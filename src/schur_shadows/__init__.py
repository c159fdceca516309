"""Joint-measurement classical shadows for mixed states at desk scale.

Layers:

* :mod:`schur_shadows.qudit`: dense n-qudit states, the index <-> digits
  codec, the index map of qudit permutations, the local unitary action,
  Haar sampling, seeded streams.
* :mod:`schur_shadows.young`: partitions, row/column groups, standard
  tableaux, slot classes (symmetrizers as class means), majorization, and
  the weight classes of digit tuples, which the basis, its verification and
  the POVM's Dicke coordinates all read.
* :mod:`schur_shadows.basis`: nice Schur basis construction, verification,
  persistence, and :func:`schur_measure`, the Schur measurement with its
  block change of basis, one weight slice at a time. The product-input
  front end reads only the basis's j = 0 layer, :func:`build_q_bases`.
* :mod:`schur_shadows.protocol`: population sampling, the row-symmetric
  POVM, the shadow record :func:`shadow_matrix`, the joint-state and
  product-input shadow front ends, median-of-means, baseline.
* :mod:`schur_shadows.moments`: exact first/second shadow moments and the
  closed-form single-row variance; Monte Carlo cross-checks.
* :mod:`schur_shadows.observables` / :mod:`schur_shadows.cli`: observable
  families and the command-line driver.
"""

from .basis import (
    SchurBasis,
    build_basis,
    load_basis,
    save_basis,
    schur_measure,
    verify_nice_basis,
)
from .moments import (
    single_row_variance_closed_form,
    expected_shadow_exact,
    expected_shadow_formula,
    povm_completeness_residual,
    second_moment_exact,
    variance_exact,
)
from .protocol import (
    MixedState,
    Observable,
    ShadowEstimate,
    baseline_single_copy_shadow,
    median_of_means,
    mixed_state_shadow,
    population_shadow,
    predict,
    sample_population_input,
    shadow_matrix,
)
from .qudit import OperatorGrid, PureState, RngStream, apply_local_unitary, haar_unitary
from .young import Partition, majorizes, partitions_of

__version__ = "0.1.0"
