"""End-to-end shadow protocol: population inputs, pre-processing, the
row-symmetric POVM, shadow estimates, and the single-copy baseline.

A run on n qudits splits them into T contiguous segments of n' = n // T
qudits (trailing remainder discarded). Each segment goes through the Schur
projective measurement, the block change of basis, and the row-symmetric
POVM; the per-segment record (Psi - k I) / n' averages into an unbiased
estimate of the population average state, hence of the mixed state when the
symbols are drawn from its spectrum. Both front ends sum the records with
:func:`shadow_matrix` and divide once by T n'.

Two front ends run the segments:

* :func:`population_shadow` takes a general joint state and measures it
  densely, segment by segment: :func:`schur_measure` on the segment's rows,
  then the POVM, whose partial contraction leaves the state of the later
  segments. It is the reference for the product path below.
* :func:`shadow_from_population` takes a product input U^{x n}|e> and never
  forms a segment state. The protocol is U-covariant (Haar proposals make
  the POVM outcome for U tau equal to U times the outcome for tau), so it
  simulates at U = I and returns U (.) U^dag. At U = I a segment |e> of
  weight w has, with f^lam = ``dim_p`` and K_{lam,w} the number of weight-w
  vectors in the (lam, 0) block,

      P(lam | e) = f^lam K_{lam,w} / multinom(n'; w),

  and the j-averaged state after the change of basis is the maximally mixed
  state on those K_{lam,w} vectors. Since the POVM is linear in that state,
  the segment's outcome has the law of the POVM on one of those vectors,
  picked uniformly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import SchurBasis, schur_measure
from .qudit import (
    DEFAULT_ATOL,
    OperatorGrid,
    PureState,
    RngStream,
    apply_local_unitary,
    haar_pure_state_batch,
    hermiticity_deviation,
    unitarity_deviation,
)
from .young import Partition, kappa_product

logger = logging.getLogger(__name__)

DEFAULT_MAX_REJECTION_ITERS = 10_000_000


class RejectionBudgetError(RuntimeError):
    """Rejection sampling exceeded its iteration budget."""


# ---------------------------------------------------------------------------
# States and observables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixedState:
    """Rank-r mixed state given by its spectrum and eigenbasis."""

    d: int
    eigenvalues: np.ndarray
    eigenvectors: OperatorGrid
    rank: int

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        if vals.shape != (self.d,):
            raise ValueError("eigenvalues must have length d")
        if np.any(vals < -1e-12):
            raise ValueError("eigenvalues must be non-negative")
        if abs(vals.sum() - 1.0) > 1e-10:
            raise ValueError(f"eigenvalues sum to {vals.sum()}, expected 1")
        if np.any(np.diff(vals) > 1e-12):
            raise ValueError("eigenvalues must be sorted descending")
        if np.any(vals[self.rank :] > 1e-12):
            raise ValueError(f"eigenvalues beyond declared rank {self.rank} are non-zero")
        if self.eigenvectors.entries.shape != (self.d, self.d):
            raise ValueError("eigenvector matrix must be d x d")
        object.__setattr__(self, "eigenvalues", vals)

    @classmethod
    def random(cls, d: int, rank: int, rng: RngStream) -> "MixedState":
        from .qudit import haar_unitary

        if not 1 <= rank <= d:
            raise ValueError(f"rank must be in 1..{d}")
        raw = rng.gen.dirichlet(np.ones(rank))
        vals = np.zeros(d)
        vals[:rank] = np.sort(raw)[::-1]
        return cls(d, vals, haar_unitary(d, rng), rank)

    def density(self) -> np.ndarray:
        u = self.eigenvectors.entries
        return (u * self.eigenvalues) @ u.conj().T


@dataclass(frozen=True)
class Observable:
    """Hermitian observable with spectral norm <= 1 and tr(O^2) <= B."""

    matrix: np.ndarray
    frobenius_sq_bound: float

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("observable must be a square matrix")
        if hermiticity_deviation(mat) > 1e-9:
            raise ValueError("observable must be Hermitian")
        spectral = float(np.max(np.abs(np.linalg.eigvalsh(mat)))) if mat.size else 0.0
        if spectral > 1.0 + 1e-9:
            raise ValueError(f"spectral norm {spectral} exceeds 1")
        frob_sq = float(np.trace(mat @ mat).real)
        if frob_sq > self.frobenius_sq_bound + 1e-9:
            raise ValueError(
                f"tr(O^2) = {frob_sq} exceeds declared bound {self.frobenius_sq_bound}"
            )
        object.__setattr__(self, "matrix", mat)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


@dataclass
class ShadowEstimate:
    """Averaged per-segment estimates; Hermitian but not necessarily PSD."""

    matrix: np.ndarray
    t_segments: int
    segment_size: int
    master_seed: int | None = None
    segment_partitions: list[tuple[int, ...]] = field(default_factory=list)
    povm_proposals: int = 0


# ---------------------------------------------------------------------------
# Population inputs
# ---------------------------------------------------------------------------


def sample_population_input(chi: MixedState, n: int, rng: RngStream) -> tuple[OperatorGrid, tuple[int, ...]]:
    """Draw (U, e) with e_i i.i.d. from the spectrum of chi."""
    if n < 1:
        raise ValueError("n must be >= 1")
    digits = tuple(int(x) for x in rng.gen.choice(chi.d, size=n, p=chi.eigenvalues))
    return chi.eigenvectors, digits


# ---------------------------------------------------------------------------
# Row-symmetric POVM sampling
# ---------------------------------------------------------------------------


def _batch_amplitudes(lam: Partition, d: int, tau_matrix: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Contract <psi_1^{x lam_1} x ... | tau> for a batch of proposals.

    tau_matrix has shape (d^n, rest); the return value has shape
    (batch, rest): partial inner products over the n measured qudits.
    """
    batch = psis.shape[0]
    row_of_pos = [row for row, part in enumerate(lam.parts) for _ in range(part)]
    state = np.einsum(
        "bd,dr->br", psis[:, row_of_pos[0], :].conj(), tau_matrix.reshape(d, -1)
    )
    for pos in range(1, lam.n):
        state = np.einsum(
            "bd,bdr->br", psis[:, row_of_pos[pos], :].conj(), state.reshape(batch, d, -1)
        )
    return state


def _rejection_sample(
    lam: Partition,
    d: int,
    tau_matrix: np.ndarray,
    count: int,
    rng: RngStream,
    max_iters: int,
):
    """Accept ``count`` POVM outcomes; returns (psis, rests, proposals).

    Proposals are product-Haar tuples accepted with probability
    |<x psi_i^{x lam_i}|tau>|^2, which is bounded by 1 and averages to one
    over kappa_product for states inside the row-symmetric subspace.
    """
    k = lam.k
    kappa = kappa_product(lam, d)
    gen = rng.gen
    rest_dim = tau_matrix.shape[1]
    # Fancy-indexed copies, so no accepted row keeps its whole batch alive.
    accepted_psis = [np.empty((0, k, d), dtype=np.complex128)]
    accepted_rests = [np.empty((0, rest_dim), dtype=np.complex128)]
    got = 0
    proposals = 0
    # Expected trials per accept is kappa; oversample modestly per batch. A
    # batch is sized for at most eight accepts, so a large count takes several
    # small batches instead of one that grows with it.
    batch = max(8, int(2.2 * kappa * max(1, min(count, 8))))
    batch = max(8, min(batch, max(1, 50_000_000 // max(1, rest_dim))))
    while got < count:
        if proposals > max_iters:
            raise RejectionBudgetError(
                f"no acceptance within {max_iters} proposals for {lam} "
                "(state may violate the row-symmetric precondition)"
            )
        psis = haar_pure_state_batch(d, batch * k, gen).reshape(batch, k, d)
        rests = _batch_amplitudes(lam, d, tau_matrix, psis)
        accept_prob = np.sum(np.abs(rests) ** 2, axis=1)
        hits = np.nonzero(gen.random(batch) < accept_prob)[0][: count - got]
        accepted_psis.append(psis[hits])
        accepted_rests.append(rests[hits])
        got += hits.size
        # The last batch counts only the proposals up to its final accept.
        proposals += int(hits[-1]) + 1 if got == count else batch
    return np.concatenate(accepted_psis), np.concatenate(accepted_rests), proposals


def row_symmetric_sample(
    lam: Partition,
    tau_state: PureState,
    rng: RngStream,
    max_iters: int = DEFAULT_MAX_REJECTION_ITERS,
) -> list[np.ndarray]:
    """Sample one POVM outcome (psi_1, ..., psi_k) for a row-symmetric state."""
    from .moments import row_symmetry_residual

    residual = row_symmetry_residual(lam, tau_state)
    if residual > 1e-8:
        raise ValueError(
            f"state outside the row-symmetric subspace of {lam} (residual {residual:.3e})"
        )
    psis, _, _ = _rejection_sample(
        lam, tau_state.d, tau_state.amplitudes.reshape(-1, 1), 1, rng, max_iters
    )
    return [psis[0, i].copy() for i in range(lam.k)]


def row_symmetric_sample_batch(
    lam: Partition,
    tau_state: PureState,
    count: int,
    rng: RngStream,
    max_iters: int = DEFAULT_MAX_REJECTION_ITERS,
) -> tuple[np.ndarray, int]:
    """Vectorized multi-sample variant for Monte Carlo studies."""
    psis, _, proposals = _rejection_sample(
        lam, tau_state.d, tau_state.amplitudes.reshape(-1, 1), count, rng, max_iters * max(1, count)
    )
    return psis, proposals


def shadow_matrix(lam: Partition, psis: np.ndarray, d: int) -> np.ndarray:
    """Sum over samples s of Psi_s = sum_r (d + lam_r) |psi_{s,r}><psi_{s,r}|.

    ``psis`` has shape (count, k, d): one POVM outcome per sample.
    """
    psis = np.asarray(psis)
    if psis.ndim != 3 or psis.shape[1:] != (lam.k, d):
        raise ValueError(f"need outcomes of shape (count, {lam.k}, {d}) for {lam}, got {psis.shape}")
    # Rows sqrt(d + lam_r) psi_r: their Gram sum is the sum of Psi.
    scaled = (psis * np.sqrt(d + np.array(lam.parts))[None, :, None]).reshape(-1, d)
    return scaled.T @ scaled.conj()


# ---------------------------------------------------------------------------
# The two shadow front ends
# ---------------------------------------------------------------------------


def segment_count(epsilon: float) -> int:
    """T = ceil(10 / epsilon^2)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return math.ceil(10.0 / epsilon**2)


def population_shadow(
    basis: SchurBasis,
    state: PureState,
    epsilon: float,
    rng: RngStream,
    max_iters: int = DEFAULT_MAX_REJECTION_ITERS,
) -> ShadowEstimate:
    """Shadow estimate for a joint population input on n qudits.

    Splits the qudits into T = ceil(10/eps^2) contiguous segments of
    n' = n // T (remainder discarded), processes each segment, and averages
    (Psi - k I) / n'. The basis must be built for segment size n'.
    """
    t_segments = segment_count(epsilon)
    if state.n < t_segments:
        raise ValueError(f"need n >= T = {t_segments}, got n = {state.n}")
    seg_size = state.n // t_segments
    if basis.n != seg_size or basis.d != state.d:
        raise ValueError(
            f"basis is for (d={basis.d}, n={basis.n}), segments need (d={state.d}, n={seg_size})"
        )
    discarded = state.n - t_segments * seg_size
    if discarded:
        logger.info("discarding %d remainder qudits of %d", discarded, state.n)
    d = state.d
    seg_dim = d**seg_size
    rest = state.amplitudes
    acc = np.zeros((d, d), dtype=np.complex128)
    partitions = []
    proposals = 0
    for t in range(t_segments):
        sub = rng.child(t)
        # The segment qudits are the rows; the POVM's partial contraction
        # leaves the state of the qudits after them.
        lam, _j, tau = schur_measure(basis, rest.reshape(seg_dim, -1), sub)
        psis, rests, trials = _rejection_sample(lam, d, tau, 1, sub, max_iters)
        rest = rests[0] / np.linalg.norm(rests[0])
        acc += shadow_matrix(lam, psis, d) - lam.k * np.eye(d)
        partitions.append(lam.parts)
        proposals += trials
    return ShadowEstimate(
        matrix=acc / (t_segments * seg_size),
        t_segments=t_segments,
        segment_size=seg_size,
        master_seed=rng.master_seed,
        segment_partitions=partitions,
        povm_proposals=proposals,
    )


def shadow_from_population(
    basis: SchurBasis,
    unitary: OperatorGrid,
    digits,
    t_segments: int,
    rng: RngStream,
    max_iters: int = DEFAULT_MAX_REJECTION_ITERS,
) -> ShadowEstimate:
    """Shadow estimate for a product population input U^{x n}|e>.

    Equal in law to :func:`population_shadow` on the dense product state,
    which is the reference this sampler is tested against, but it never
    forms a segment state or the dense basis matrix; the total qudit count
    ``t_segments * basis.n`` is not limited by the dense-state cap. By
    U-covariance the segments are simulated at U = I (see the module
    docstring for the two identities used):

    1. one bincount gives the weight w of every segment's digits;
    2. per distinct w, lam is drawn for all its segments from
       f^lam K_{lam,w} / multinom(n'; w);
    3. i is drawn uniformly among the block's weight-w vectors;
    4. the POVM runs once per (lam, i) group on |(lam, i, 0)>, with the
       group size as its sample count;
    5. the records (Psi - k I) / n' are summed and U (.) U^dag / T returned.

    ``segment_partitions`` lists the partitions in segment order;
    ``povm_proposals`` counts the proposals the sampler needed, up to each
    group's last accept.
    """
    d = basis.d
    seg_size = basis.n
    if t_segments < 1:
        raise ValueError("t_segments must be >= 1")
    if len(digits) < t_segments * seg_size:
        raise ValueError(f"need {t_segments * seg_size} symbols, got {len(digits)}")
    u = unitary.entries
    if u.shape != (d, d) or unitarity_deviation(u) > DEFAULT_ATOL:
        raise ValueError(f"population unitary must be a {d} x {d} unitary")
    seg_digits = np.asarray(digits[: t_segments * seg_size], dtype=np.int64).reshape(t_segments, seg_size)
    if np.any((seg_digits < 0) | (seg_digits >= d)):
        raise ValueError(f"symbols must lie in 0..{d - 1}")

    offsets = d * np.arange(t_segments)[:, None]
    weights = np.bincount((offsets + seg_digits).ravel(), minlength=d * t_segments)
    segs_of_weight: dict[tuple[int, ...], list[int]] = {}
    for t, row in enumerate(weights.reshape(t_segments, d).tolist()):
        segs_of_weight.setdefault(tuple(row), []).append(t)

    draws = rng.child(0).gen
    blocks = list(basis.blocks.values())
    lam_of_seg = np.empty(t_segments, dtype=np.int64)
    i_of_seg = np.empty(t_segments, dtype=np.int64)
    for weight, segs in segs_of_weight.items():
        slots = [
            np.array([i for i, w in enumerate(block.weight_of_i) if w == weight], dtype=np.int64)
            for block in blocks
        ]
        kostka = np.array([slot.size for slot in slots])
        mass = kostka * np.array([block.dim_p for block in blocks])
        multinom = math.factorial(seg_size) // math.prod(math.factorial(x) for x in weight)
        if mass.sum() != multinom:
            raise ValueError(
                f"basis gives sum_lam f K = {mass.sum()} for weight {weight}, expected {multinom}"
            )
        picks = draws.choice(len(blocks), size=len(segs), p=mass / multinom)
        lam_of_seg[segs] = picks
        # A uniform offset into the picked block's run of the concatenated slots.
        starts = np.cumsum(kostka) - kostka
        i_of_seg[segs] = np.concatenate(slots)[starts[picks] + draws.integers(kostka[picks])]

    acc = np.zeros((d, d), dtype=np.complex128)
    proposals = 0
    keys, sizes = np.unique(lam_of_seg * basis.dim + i_of_seg, return_counts=True)
    for g, (key, count) in enumerate(zip(keys.tolist(), sizes.tolist())):
        b, i = divmod(key, basis.dim)
        lam = blocks[b].lam
        tau = basis.vector(lam, i, 0).to_dense(basis.dim).reshape(-1, 1)
        psis, _, trials = _rejection_sample(lam, d, tau, count, rng.child(1 + g), max_iters * count)
        acc += shadow_matrix(lam, psis, d) - count * lam.k * np.eye(d)
        proposals += trials
    return ShadowEstimate(
        matrix=u @ acc @ u.conj().T / (t_segments * seg_size),
        t_segments=t_segments,
        segment_size=seg_size,
        master_seed=rng.master_seed,
        segment_partitions=[blocks[b].lam.parts for b in lam_of_seg.tolist()],
        povm_proposals=proposals,
    )


def mixed_state_shadow(
    chi: MixedState,
    n: int,
    epsilon: float,
    rng: RngStream,
    basis: SchurBasis | None = None,
    cache_dir=None,
    max_iters: int = DEFAULT_MAX_REJECTION_ITERS,
) -> ShadowEstimate:
    """Shadow estimate from n copies of a mixed state.

    Draws the population input (U, e) from the spectrum of chi and runs the
    population protocol at accuracy epsilon / 2.
    """
    t_segments = segment_count(epsilon / 2.0)
    if n < t_segments:
        raise ValueError(f"need n >= T = {t_segments} copies, got {n}")
    seg_size = n // t_segments
    if basis is None:
        from .basis import build_or_load

        basis = build_or_load(chi.d, seg_size, cache_dir)
    if basis.n != seg_size or basis.d != chi.d:
        raise ValueError(
            f"basis is for (d={basis.d}, n={basis.n}), segments need (d={chi.d}, n={seg_size})"
        )
    unitary, digits = sample_population_input(chi, n, rng.child(-1))
    return shadow_from_population(basis, unitary, digits, t_segments, rng, max_iters)


# ---------------------------------------------------------------------------
# Prediction, boosting, baseline
# ---------------------------------------------------------------------------


def predict(estimate: ShadowEstimate, observable: Observable) -> float:
    """tr(O chi_hat); the imaginary part must be numerical noise."""
    if observable.matrix.shape != estimate.matrix.shape:
        raise ValueError("observable and estimate dimensions differ")
    value = np.trace(observable.matrix @ estimate.matrix)
    if abs(value.imag) > 1e-9:
        raise ValueError(f"prediction has imaginary part {value.imag}")
    return float(value.real)


def median_of_means(shadows, observable: Observable) -> float:
    """Median of tr(O chi_hat_i); even-length lists use the lower median."""
    if not shadows:
        raise ValueError("need at least one shadow")
    values = sorted(predict(s, observable) for s in shadows)
    return values[(len(values) - 1) // 2]


def baseline_single_copy_shadow(chi: MixedState, n: int, rng: RngStream) -> ShadowEstimate:
    """Random-basis single-copy estimator: average of (d+1) V|b><b|V^dag - I.

    Measuring V^dag chi V in the computational basis is simulated exactly:
    draw the eigenindex from the spectrum, then the outcome b from the
    column overlaps |(V^dag U)[b, i]|^2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = chi.d
    gen = rng.gen
    ginibre = gen.standard_normal((n, d, d)) + 1j * gen.standard_normal((n, d, d))
    q, r = np.linalg.qr(ginibre)
    phases = np.einsum("cii->ci", r)
    v = q * (phases / np.abs(phases))[:, None, :]
    eigen_idx = gen.choice(d, size=n, p=chi.eigenvalues)
    rotated = np.einsum("cba,bi->cai", v.conj(), chi.eigenvectors.entries)  # V^dag U per copy
    probs = np.abs(rotated[np.arange(n), :, eigen_idx]) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    cumulative = np.cumsum(probs, axis=1)
    outcomes = (gen.random((n, 1)) < cumulative).argmax(axis=1)
    cols = v[np.arange(n), :, outcomes]
    mean_proj = np.einsum("ca,cb->ab", cols, cols.conj()) / n
    matrix = (d + 1) * mean_proj - np.eye(d)
    return ShadowEstimate(matrix=matrix, t_segments=n, segment_size=1, master_seed=rng.master_seed)
