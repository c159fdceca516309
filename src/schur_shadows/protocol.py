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
  segment by segment. With A the (d^n', rest) view of the state, the law of
  (lam, j) and of the POVM outcome depends on A only through A A^dag, so
  :func:`schur_measure` and the POVM run on a factor F = U Lam^{1/2} of the
  Gram A A^dag = U Lam U^dag, with at most d^n' columns. The state of the
  later segments is the POVM's contraction r_F on F's columns, carried back
  by (r_F F^+) A: range F = range A, so F F^+ A = A. The wide A is read
  twice per segment, once for the Gram and once for the back-map. It is the
  reference for the product path below.
* :func:`shadow_from_population` takes a product input U^{x n}|e> and never
  forms a segment state. The protocol is U-covariant (the POVM outcome for
  U tau has the law of U times the outcome for tau), so it simulates at
  U = I and returns U (.) U^dag. At U = I a segment |e> of weight w lies in
  the weight-w subspace, which the weight-pure nice basis splits into its
  multinom(n'; w) vectors (lam, i, j) of weight w. The Schur measurement
  followed by the j-averaged change of basis therefore leaves the segment on
  each (lam, i, 0) of weight w with probability f^lam / multinom(n'; w),
  f^lam the number of standard tableaux of shape lam. The average runs over
  a whole weight block, so the law does not depend on which orthonormal
  basis of the block's j = 0 layer is used, and only that layer, stage 1 of
  the basis build (:func:`build_q_bases`), is built. That is one uniform
  draw among the columns (lam, i, j) of the weight-w slice, so the draw
  table maps each column, in (lam, i, j) order, to its (lam, i), both read
  off the basis layout that labels stage 1 (:func:`check_stage1`). Since the
  POVM is linear in the state, the segment's outcome has the law of the
  POVM on the drawn vector. The draw table and the row-1 laws of the
  (lam, i, 0) vectors in Dicke coordinates are built once per (d, n') and
  cached; an estimate then draws all segments of one partition in one POVM
  pass, so it does no d^n'-sized work.

Both front ends draw the POVM with one sampler, :func:`_povm_sample`, which
takes L states and a sample count for each. Row r has lam_r boxes on the
next lam_r qudits, and its outcome psi_r has density
kappa(lam_r) <psi^{x lam_r}|rho_r|psi^{x lam_r}> relative to Haar, where
rho_r is the reduced state of the row given the rows drawn before it. The
sampler goes row by row in Dicke coordinates (occupation numbers v of the
row's d symbols): a proposal draws v from D = diag rho_r, then the moduli
|psi_a|^2 from Dirichlet(v + 1), and is accepted with probability
phi^dag rho_r phi / (M phi^dag D phi) for phi_v = <D_v|psi^{x lam_r}> and
M = lambda_max(D^{-1/2} rho_r D^{-1/2}). A row takes M proposals per
outcome on average, and M is at most the number of nonzero Dicke weights,
so never more than kappa(lam_r). M = 1 when rho_r is diagonal, which holds
for the first row of any weight vector, so the product path draws that row
exactly: every proposal is accepted, and neither the target nor the
proposal weight is formed. A one-box row is drawn exactly from its state's
columns. A row that can reject contracts each proposal once,
c = <psi_r^{x lam_r}|T>, and reads the target phi^dag rho_r phi = ||c||^2
off c, so rho_r is never formed; the accepted c is the next row's state.
Samples go through the rows in chunks sized by what each row holds per sample
(see :func:`_povm_sample`), at most ``_CHUNK_ENTRIES`` complex entries.

phi and the contraction are formed only where they are read. phi is read
by the contraction, and the contraction by a rejection row's target and by
the next row. Only the joint front end reads the last row's contraction,
the state of the later segments. The product path and
:func:`row_symmetric_sample_batch` read outcomes alone, so there an exact
last row forms neither phi nor a contraction, and a one-box last row forms
no contraction. The draws are the same either way, and the generator gives
only what they read: a pick uniform where a law has more than one index to
pick from, an accept uniform on a row that can reject.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import SchurBasis, _layout, build_q_bases, check_stage1, schur_measure
from .qudit import (
    DEFAULT_ATOL,
    MAX_DENSE_DIM,
    CapExceededError,
    OperatorGrid,
    PureState,
    RngStream,
    check_dense_dim,
    haar_unitary,
    hermiticity_deviation,
    place_values,
    unitarity_deviation,
)
from .young import Partition, SlotClasses, partitions_of, symmetric_dim, weight_classes, weyl_dim

logger = logging.getLogger(__name__)

#: Row draws the POVM sampler may take per sample before it gives up with
#: :class:`RejectionBudgetError`.
MAX_ROW_DRAWS = 10_000_000


class RejectionBudgetError(RuntimeError):
    """The POVM sampler used up its budget of row draws."""


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
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"eigenvalues must be finite, got {vals}")
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
        # Written so that a NaN deviation fails too.
        if not unitarity_deviation(self.eigenvectors.entries) <= DEFAULT_ATOL:
            raise ValueError(f"eigenvector matrix must be unitary within {DEFAULT_ATOL}")
        object.__setattr__(self, "eigenvalues", vals)

    @classmethod
    def random(cls, d: int, rank: int, rng: RngStream) -> "MixedState":
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
        if not np.all(np.isfinite(mat)):
            raise ValueError("observable entries must be finite")
        if not np.isfinite(self.frobenius_sq_bound):
            raise ValueError(f"the bound on tr(O^2) must be finite, got {self.frobenius_sq_bound}")
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
    """Averaged per-segment estimates; Hermitian but not necessarily PSD.

    ``povm_proposals`` counts the POVM's proposals, one per row draw: a
    segment with k rows takes at least k.
    """

    matrix: np.ndarray
    t_segments: int
    segment_size: int
    segment_partitions: list[tuple[int, ...]] = field(default_factory=list)
    povm_proposals: int = 0


# ---------------------------------------------------------------------------
# Population inputs
# ---------------------------------------------------------------------------


def sample_population_input(chi: MixedState, n: int, rng: RngStream) -> tuple[OperatorGrid, np.ndarray]:
    """Draw (U, e) with e_i i.i.d. from the spectrum of chi: U is chi's
    eigenvector matrix and e the drawn int64 array of n symbols.

    The symbols are the draws of ``Generator.choice(d, size=n, p=spectrum)``,
    one uniform each placed in the normalised cumulative spectrum, without
    ``choice``'s checks of a spectrum that :class:`MixedState` has checked.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cdf = np.cumsum(chi.eigenvalues)
    return chi.eigenvectors, np.searchsorted(cdf / cdf[-1], rng.gen.random(n), side="right")


# ---------------------------------------------------------------------------
# Row-symmetric POVM sampling
# ---------------------------------------------------------------------------

#: Complex entries that the intermediates of one chunk of samples, or of one
#: column chunk of a segment's Gram, may hold.
_CHUNK_ENTRIES = 1 << 16

#: Bytes that each of the product path's tables may take (see
#: :func:`_product_table`): the int64 tables over the d^n' digit tuples,
#: where (2, 20) and (3, 13) fit and (2, 21) and (3, 14) do not, and the
#: row-1 laws, where (4, 8) fits and (8, 5) does not.
_TABLE_BYTES = 1 << 28

#: Eigenvalues of a segment's Gram below this fraction of the largest are
#: rounding noise of exact zeros; the factor drops their eigenvectors.
_FACTOR_CUT = 1e-14

#: Largest loss of mass, relative to the state's, when a row is projected
#: onto its Dicke states.
_DICKE_MASS_TOL = 1e-9

#: Dicke weights below this fraction of their row's total are rounding noise
#: of exact zeros; they stay out of the proposal's support.
_SUPPORT_CUT = 1e-16


@lru_cache(maxsize=64)
def _dicke_map(d: int, m: int) -> tuple[SlotClasses, np.ndarray, np.ndarray, np.ndarray]:
    """The weight classes of the m-digit tuples, their weights v (the Dicke
    compositions, largest first, so the unit composition e_a has index a),
    sqrt(multinom(m; v)), the square roots of the class sizes, and v + 1,
    the shapes of a proposal's Dirichlet draw. The normalised Dicke state
    |D_v> is the uniform superposition of the digit tuples of class v. The
    arrays are shared by the cache, so read-only.
    """
    classes, comps = weight_classes(d, m)
    sqrt_multinom = np.sqrt(classes.counts)
    shapes = comps + 1.0
    sqrt_multinom.setflags(write=False)
    shapes.setflags(write=False)
    return classes, comps, sqrt_multinom, shapes


def _dicke_tensor(lam: Partition, d: int, taus: np.ndarray) -> np.ndarray:
    """L states ``taus`` of shape (L, d^n, rest) in Dicke coordinates on every row.

    Returns the (L, kappa(lam_1), prod_{r>1} kappa(lam_r) * rest) array.
    Row r's coordinate on |D_v> is the sum of the row's amplitudes over the
    digit tuples of class v, divided by sqrt(multinom(lam_r; v)); no
    (kappa, d^m) map is formed. Each state is checked on its own:
    ``ValueError`` is raised when one is zero, or when a row's Dicke states
    miss more than ``_DICKE_MASS_TOL`` of its mass, before any proposal is
    drawn.
    """
    count, rows = taus.shape[:2]
    if rows != d**lam.n:
        raise ValueError(f"state has {rows} rows, {lam} at d={d} needs {d**lam.n}")
    total = np.sum(np.abs(taus) ** 2, axis=(1, 2))
    if not np.all(total > 0.0):
        raise ValueError("the POVM needs a nonzero state")
    out = taus
    prefix = 1
    for r, m in enumerate(lam.parts):
        if m > 1:
            classes, _, sqrt_multinom, _ = _dicke_map(d, m)
            out = np.add.reduceat(out.reshape(count, prefix, d**m, -1)[:, :, classes.order], classes.starts, axis=2)
            out /= sqrt_multinom[:, None]
            mass = np.sum(np.abs(out) ** 2, axis=(1, 2, 3))
            lost = total - mass > _DICKE_MASS_TOL * total
            if np.any(lost):
                l = int(np.argmax(lost))
                raise ValueError(
                    f"state {l} is outside the row-symmetric subspace of {lam}: row {r + 1} keeps "
                    f"{mass[l] / total[l]:.9f} of its mass in Dicke coordinates"
                )
        prefix *= symmetric_dim(m, d)
    return out.reshape(count, symmetric_dim(lam.parts[0], d), -1)


@dataclass
class _RowLaw:
    """Proposal laws of one row of m boxes for L states in Dicke coordinates.

    ``states`` is (L, kappa, X): law l's state A, whose reduced state is
    rho = A A^dag. A proposal starts with an index drawn in proportion to
    ``weights``:

    * m > 1: a composition v, with D_v = rho_vv on the support of diag rho,
      and ``bound`` M = lambda_max(D^{-1/2} rho D^{-1/2}), which is N, the
      support size, when rho = a a^dag has rank 1;
    * m = 1: a column x of the state, with weight ||a_x||^2, and M = 1.

    No law forms or keeps rho. M is the top eigenvalue of the smaller Gram
    of B = D^{-1/2} A, B B^dag (kappa x kappa) when X > kappa and B^dag B
    (X x X) otherwise; both have the nonzero eigenvalues of
    D^{-1/2} rho D^{-1/2}, and neither is kept. :func:`_propose` reads a
    proposal's target off its contraction phi^* A.

    Construction also sets what every draw from the laws reads, so a law
    built once (row 1 of the product table) pays for it once:

    * ``exact``: m > 1 and M <= 1 + 1e-12 for every law, so that every
      proposal is accepted (see :func:`_sample_row`);
    * ``every``: one-box or exact, the rows whose proposals are all accepted;
    * ``sole``, on a row whose proposals are all accepted, each law's one
      index of nonzero weight where every law has just one, else ``None``:
      a one-box law of one column, or an exact law whose every state is a
      single Dicke state, as every weight vector of a one-row lam is;
    * ``cum``, where ``sole`` is ``None``: law l's normalised cumulative
      weights shifted into [l, l + 1] and raveled, so that one
      ``searchsorted`` of l + u picks an index of law l.
    """

    m: int
    states: np.ndarray
    weights: np.ndarray
    bound: np.ndarray
    exact: bool = field(init=False)
    every: bool = field(init=False)
    sole: np.ndarray | None = field(init=False)
    cum: np.ndarray | None = field(init=False)

    @classmethod
    def of(cls, states: np.ndarray, m: int) -> "_RowLaw":
        if m == 1:
            return cls(m, states, np.sum(np.abs(states) ** 2, axis=1), np.ones(len(states)))
        diag = np.sum(states.real**2 + states.imag**2, axis=2)
        weights = np.where(diag > _SUPPORT_CUT * diag.sum(axis=1, keepdims=True), diag, 0.0)
        if states.shape[2] == 1:
            # D^{-1/2} a a^dag D^{-1/2} = u u^dag with |u_v| = 1 on the support.
            bound = np.count_nonzero(weights, axis=1).astype(np.float64)
        else:
            scale = np.divide(1.0, np.sqrt(weights), out=np.zeros_like(weights), where=weights > 0.0)
            scaled = states * scale[:, :, None]
            adjoint = scaled.conj().swapaxes(1, 2)
            gram = scaled @ adjoint if states.shape[2] > states.shape[1] else adjoint @ scaled
            bound = np.linalg.eigvalsh(gram)[:, -1]
        return cls(m, states, weights, np.maximum(bound, 1.0))

    def __post_init__(self):
        self.exact = self.m > 1 and bool(self.bound.max() <= 1.0 + 1e-12)
        self.every = self.m == 1 or self.exact
        if self.every and np.all(np.count_nonzero(self.weights, axis=1) == 1):
            self.sole, self.cum = np.argmax(self.weights, axis=1), None
        else:
            cum = np.cumsum(self.weights, axis=1)
            self.sole, self.cum = None, (cum / cum[:, -1:] + np.arange(len(cum))[:, None]).ravel()

    @classmethod
    def row_one(cls, lam: Partition, d: int, taus: np.ndarray) -> "_RowLaw":
        """Row 1's law over L states ``taus`` of shape (L, d^n, rest), which
        :func:`_dicke_tensor` checks and maps to Dicke coordinates."""
        return cls.of(_dicke_tensor(lam, d, taus), lam.parts[0])


def _phi(psi: np.ndarray, m: int, d: int) -> np.ndarray:
    """phi_v = <D_v|psi^{x m}> = sqrt(multinom(m; v)) prod_a psi_a^{v_a} per
    row of ``psi``, from a (d, m + 1, proposals) table of powers: m - 1
    multiplies, one gather per symbol. phi = psi on a one-box row."""
    if m == 1:
        return psi
    _, comps, sqrt_multinom, _ = _dicke_map(d, m)
    powers = np.empty((d, m + 1, len(psi)), dtype=np.complex128)
    powers[:, 0] = 1.0
    powers[:, 1] = psi.T
    for e in range(2, m + 1):
        np.multiply(powers[:, e - 1], powers[:, 1], out=powers[:, e])
    phi = powers[0, comps[:, 0]]
    for a in range(1, d):
        phi *= powers[a, comps[:, a]]
    return (sqrt_multinom[:, None] * phi).T


def _contract(law: _RowLaw, coeffs: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """c = coeffs . A per proposal, with A the state of the proposal's law."""
    if len(law.states) == 1:
        return coeffs @ law.states[0]
    return np.einsum("pv,pvx->px", coeffs, law.states[owners])


def _one_box(cols: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """One outcome psi of the one-box POVM per row of ``cols`` (size, d), on
    the one-column state a of that row: density d |<a|psi>|^2 / ||a||^2
    relative to Haar.

    With c the unit column, that is |<c|psi>|^2 ~ Beta(2, d - 1), a uniform
    phase on <c|psi> and a Haar complement. A complex Gaussian g with
    standard normal real and imaginary parts has |<c|g>|^2 ~ 2 Gamma(1), a
    uniform phase on <c|g>, and squared norm 2 Gamma(d - 1) on a Haar
    direction off c, all independent. Its component along c is stretched,
    its phase kept, to the squared modulus |<c|g>|^2 + 2E, E ~ Exp(1), a
    2 Gamma(2), and g / ||g|| is psi.
    """
    unit = cols / np.linalg.norm(cols, axis=1, keepdims=True)
    g = gen.standard_normal((len(cols), 2 * cols.shape[1])).view(np.complex128)
    along = np.einsum("pa,pa->p", unit.conj(), g)
    stretch = np.sqrt(1.0 + 2.0 * gen.standard_exponential(len(cols)) / np.maximum(np.abs(along) ** 2, 1e-300))
    g += unit * (along * (stretch - 1.0))[:, None]
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _propose(law: _RowLaw, owner: np.ndarray, d: int, gen: np.random.Generator):
    """One proposal of law ``owner[p]`` per p: (psi, contracted, accept).

    On a row whose proposals are all accepted (``law.every``) only psi is
    drawn and the rest is ``None``. On a rejection row, ``contracted`` is
    c = phi^* A, A the state of the proposal's law, and ``accept`` the
    accept test, whose target phi^dag rho phi = ||c||^2 is read off c. The
    generator gives only what is read: pick uniforms where a law has more
    than one index (no ``sole``), accept uniforms on a rejection row.

    A one-box proposal picks a column of its law's state, then draws psi by
    :func:`_one_box` on it. A multi-box proposal picks a composition v, then
    draws Gamma(v + 1) moduli and uniform phases; the shapes v + 1 come from
    :func:`_dicke_map`.
    """
    size = owner.size
    if law.cum is None:
        pick = law.sole[owner]
    else:
        pick = np.searchsorted(law.cum, owner + gen.random(size), side="right") - owner * law.weights.shape[1]
    if law.m == 1:
        return _one_box(law.states[owner, :, pick], gen), None, None
    gamma = gen.standard_gamma(_dicke_map(d, law.m)[3][pick])
    gamma /= gamma.sum(axis=1, keepdims=True)
    psi = np.exp(2j * np.pi * gen.random((size, d)))
    psi *= np.sqrt(gamma, out=gamma)
    if law.exact:
        return psi, None, None
    phi = _phi(psi, law.m, d)
    contracted = _contract(law, phi.conj(), owner)
    # ||c||^2 as the dot of c's float view with itself, with no (proposals, X)
    # temporaries: c is the largest array a proposal holds on a wide law.
    flat = contracted.view(np.float64)
    target = np.einsum("pk,pk->p", flat, flat)
    weight = np.einsum("pv,pv->p", law.weights[owner], phi.real**2 + phi.imag**2)
    accept = gen.random(size) * (law.bound[owner] * weight) < target
    return psi, contracted, accept


def _charge(spent: int, draws: int, budget: int, m: int) -> int:
    """``spent + draws`` row draws of a row of m boxes, refused past ``budget``."""
    spent += draws
    if spent > budget:
        raise RejectionBudgetError(f"no POVM outcome within {budget} row draws (row of {m} boxes)")
    return spent


def _sample_row(
    law: _RowLaw, need: np.ndarray, d: int, gen: np.random.Generator, spent: int, budget: int, want_rests: bool = True
):
    """Accept ``need[l]`` outcomes of law l; returns (psis, rests, spent).

    The outcomes of law l fill ``need[l]`` consecutive slots, law after law;
    ``rests`` holds c = phi^* A, the unnormalised state of the later rows,
    or is ``None`` when ``want_rests`` is false. ``spent`` counts one
    proposal per row draw, up to each law's last needed accept, and may not
    exceed ``budget``.

    For m > 1 a proposal draws v with probability D_v / tr D, then |psi_a|^2
    from Dirichlet(v + 1) with uniform phases. Relative to Haar its density
    is kappa phi^dag D phi / tr D, with phi_v = <D_v|psi^{x m}>, and the
    target's is kappa phi^dag rho phi / tr rho, so it is accepted with
    probability phi^dag rho phi / (M phi^dag D phi) <= 1. With rho = A A^dag
    the numerator is ||c||^2, c = phi^* A, the contraction that an accepted
    proposal returns as its rest.

    A one-box row has rho = sum_x a_x a_x^dag over the columns of its state,
    so the target d <psi|rho|psi> / tr rho is the mixture, with weights
    ||a_x||^2 / tr rho, of the densities d |<a_x|psi>|^2 / ||a_x||^2, each
    drawn exactly by :func:`_one_box`: every proposal is accepted. A state
    of one column is its own pick and draws no pick uniform.
    :func:`_povm_sample` draws a later one-box row of one column by
    :func:`_one_box` directly, without a law.

    When every law of the call has M <= 1 + 1e-12 (``law.exact``), rho = D
    on the support and a proposal is accepted with probability at least
    1 - kappa 1e-12, so every proposal is accepted without an accept
    uniform, the target or the proposal weight. A law whose every state is
    a single Dicke state (``law.sole``) draws no pick uniform either. On
    such a row, and on a
    one-box row (``law.every``), law l takes exactly ``need[l]`` proposals,
    so the call draws them in slot order and returns them as they are, with
    none of the rejection loop's bookkeeping, and forms phi (:func:`_phi`)
    and c only when ``want_rests`` is true. A rejection row contracts each
    proposal once, for its target, and keeps the contractions of those it
    accepts.
    """
    if law.every:
        owner = np.repeat(np.arange(len(need)), need)
        spent = _charge(spent, owner.size, budget, law.m)
        psi = _propose(law, owner, d, gen)[0]
        return psi, _contract(law, _phi(psi, law.m, d).conj(), owner) if want_rests else None, spent
    first_slot = np.cumsum(need) - need
    psis = np.empty((int(need.sum()), d), dtype=np.complex128)
    rests = np.empty((len(psis), law.states.shape[2]), dtype=np.complex128) if want_rests else None
    got = np.zeros_like(need)
    live = np.arange(len(need))
    while live.size:
        pending = need[live] - got[live]
        # M proposals per needed accept.
        reps = np.ceil(pending * law.bound[live] - 1e-6).astype(np.int64)
        owner = np.repeat(live, reps)
        psi, contracted, accept = _propose(law, owner, d, gen)
        # Rank of each proposal among the accepts of its law in this round.
        accepted = np.cumsum(accept)
        group_start = np.cumsum(reps) - reps
        rank = accepted - np.repeat(np.concatenate(([0], accepted))[group_start], reps)
        counted = rank - accept < np.repeat(pending, reps)
        spent = _charge(spent, int(np.count_nonzero(counted)), budget, law.m)
        taken = np.nonzero(accept & counted)[0]
        own = owner[taken]
        slots = first_slot[own] + got[own] + rank[taken] - 1
        psis[slots] = psi[taken]
        if want_rests:
            rests[slots] = contracted[taken]
        got += np.bincount(own, minlength=len(need))
        live = np.nonzero(got < need)[0]
    return psis, rests, spent


def _povm_sample(
    lam: Partition, d: int, first: _RowLaw, counts, gen: np.random.Generator, want_rests: bool = True
) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Draw ``counts[l]`` outcomes of the row-symmetric POVM on each of L states.

    ``first`` is row 1's law over the L states, each (d^n, rest) before
    :meth:`_RowLaw.row_one` maps it to Dicke coordinates; row r occupies the
    next lam_r qudits and the rest axis is carried along. Rows are drawn one at a time by the chain
    rule: psi_r has the law of the one-row POVM on the reduced state of row
    r, and the accepted c = <psi_r^{x lam_r}|T> is the next row's state. The
    outcomes of state l fill slots ``cumsum(counts)[l-1]:cumsum(counts)[l]``.
    Samples go through the rows in chunks of at most ``_CHUNK_ENTRIES``
    complex entries, split across states where a chunk spans several; row 1
    of a chunk is one :func:`_sample_row` call over all its states. A later
    row of one box whose state has one column, the last row of a protocol
    state, is one :func:`_one_box` call on those columns: no law, no owner
    table and no gather.

    A chunk is sized by what each row holds per sample, on top of the
    sample's later-row state (the X columns of row 1's state):

    * row 1, where every proposal is accepted: kappa_1 (d + g) entries, a
      (kappa_1, d) power gather plus g = min(X, kappa_1) of its own state
      when several states share the call;
    * row 1, where it can reject: about M proposals, each with a
      (d, lam_1 + 1) power table, psi and its Dirichlet draws,
      d (lam_1 + 3), phi, its conjugate, |phi|^2 and the gathered pick
      weights, 4 kappa_1, and the contraction's X entries, or the
      (kappa_1, X) state it gathers when several states share the call;
    * a later one-box row whose state has one column: what :func:`_one_box`
      holds, the column, its unit vector, g and psi, 4d;
    * a later one-box row of X_r > 1 columns: d^2 (2 d), which covers the
      (d, X_r) state that its proposal gathers for the contraction while
      X_r < 2 d^2;
    * any other later row r: up to kappa_r proposals, each with its law's
      (kappa_r, X_r) state gathered for the contraction, a (d, lam_r + 1)
      power table, phi and |phi|^2, so
      kappa_r (kappa_r X_r + (lam_r + 1) d + 2 kappa_r).

    The largest of these sets the chunk.

    Returns the outcomes (sum(counts), k, d), the unnormalised
    post-measurement states <x_r psi_r^{x lam_r}|tau_l> (sum(counts), rest),
    and the number of row draws. ``RejectionBudgetError`` is raised past
    ``MAX_ROW_DRAWS`` draws per sample.

    Every row but the last forms phi and its contraction, the next row's
    state. The last row forms them only when ``want_rests`` is true; when it
    is false, the post-measurement states are returned as ``None``, an exact
    last row forms neither phi nor its contraction, and a one-box last row
    forms no contraction. The outcomes and the draw count are the same
    either way.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    budget = MAX_ROW_DRAWS * total
    kappas = [symmetric_dim(m, d) for m in lam.parts]
    width = first.states.shape[2]
    cols = width // math.prod(kappas[1:])
    shared = len(counts) > 1
    if first.every:
        proposal = kappas[0] * (d + (min(width, kappas[0]) if shared else 0))
    else:
        proposal = d * (lam.parts[0] + 3) + 4 * kappas[0] + (kappas[0] * width if shared else width)
    held = [math.ceil(first.bound.max()) * proposal]
    for r in range(1, lam.k):
        kap, x, m = kappas[r], math.prod(kappas[r + 1 :]) * cols, lam.parts[r]
        held.append(kap * (kap * x + (m + 1) * d + 2 * kap) if m > 1 else 4 * d if x == 1 else 2 * d**3)
    chunk = max(1, _CHUNK_ENTRIES // (width + max(held)))
    psis = np.empty((total, lam.k, d), dtype=np.complex128)
    rests = np.empty((total, cols), dtype=np.complex128) if want_rests else None
    ends = np.cumsum(counts)
    firsts = ends - counts
    spent = 0
    for start in range(0, total, chunk):
        size = min(chunk, total - start)
        # Each state's share of slots start .. start + size - 1.
        need = counts if size == total else np.maximum(np.minimum(ends, start + size) - np.maximum(firsts, start), 0)
        out, state, spent = _sample_row(first, need, d, gen, spent, budget, want_rests or lam.k > 1)
        psis[start : start + size, 0] = out
        for r in range(1, lam.k):
            more = want_rests or r < lam.k - 1
            if lam.parts[r] == 1 and state.shape[1] == d:
                # One box on one column: the column is the row's only pick.
                spent = _charge(spent, size, budget, 1)
                out = _one_box(state, gen)
                state = np.einsum("pa,pa->p", out.conj(), state)[:, None] if more else None
            else:
                law = _RowLaw.of(state.reshape(size, kappas[r], -1), lam.parts[r])
                out, state, spent = _sample_row(law, np.ones(size, dtype=np.int64), d, gen, spent, budget, more)
            psis[start : start + size, r] = out
        if want_rests:
            rests[start : start + size] = state
    return psis, rests, spent


def row_symmetric_sample_batch(
    lam: Partition, tau_state: PureState, count: int, rng: RngStream
) -> tuple[np.ndarray, int]:
    """``count`` independent outcomes (count, k, d) and the row draws they took."""
    first = _RowLaw.row_one(lam, tau_state.d, tau_state.amplitudes.reshape(1, -1, 1))
    psis, _, proposals = _povm_sample(lam, tau_state.d, first, np.array([count]), rng.gen, False)
    return psis, proposals


def shadow_matrix(lam: Partition, psis: np.ndarray, d: int) -> np.ndarray:
    """Sum over samples s of Psi_s = sum_r (d + lam_r) |psi_{s,r}><psi_{s,r}|.

    ``psis`` has shape (count, k, d): one POVM outcome per sample.
    """
    psis = np.asarray(psis)
    if psis.ndim != 3 or psis.shape[1:] != (lam.k, d):
        raise ValueError(f"need outcomes of shape (count, {lam.k}, {d}) for {lam}, got {psis.shape}")
    out = np.zeros((d, d), dtype=np.complex128)
    # One row at a time, so only that row's conjugate is held.
    for r, part in enumerate(lam.parts):
        rows = psis[:, r]
        out += (d + part) * (rows.T @ rows.conj())
    return out


# ---------------------------------------------------------------------------
# The two shadow front ends
# ---------------------------------------------------------------------------


def segment_count(epsilon: float) -> int:
    """T = ceil(10 / epsilon^2), at least 1; epsilon must be finite and positive.

    Divided twice rather than squared, so that a huge epsilon gives T = 1
    instead of overflowing.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    return max(1, math.ceil(10.0 / epsilon / epsilon))


def _segment_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """F with F F^dag = A A^dag and at most ``len(a)`` columns, and F^+.

    A matrix no wider than it is tall is its own factor, returned as is with
    F^+ = None. Otherwise the Gram is summed over column chunks of A, so the
    only conjugate copy is one chunk's, and F = U Lam^{1/2} with
    F^+ = Lam^{-1/2} U^dag keeps the eigenvalues above ``_FACTOR_CUT`` of the
    largest. F^+ A = V^dag has orthonormal rows, the right singular vectors
    of A, and F F^+ A = A.
    """
    rows, width = a.shape
    if width <= rows:
        return a, None
    gram = np.zeros((rows, rows), dtype=np.complex128)
    step = max(1, _CHUNK_ENTRIES // rows)
    for start in range(0, width, step):
        block = a[:, start : start + step]
        gram += block @ block.conj().T
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > _FACTOR_CUT * vals[-1]
    root = np.sqrt(vals[keep])
    return vecs[:, keep] * root, vecs[:, keep].conj().T / root[:, None]


def population_shadow(basis: SchurBasis, state: PureState, epsilon: float, rng: RngStream) -> ShadowEstimate:
    """Shadow estimate for a joint population input on n qudits.

    Splits the qudits into T = ceil(10/eps^2) contiguous segments of
    n' = n // T (remainder discarded), processes each segment, and averages
    (Psi - k I) / n'. The basis must be built for segment size n'.

    A segment's rows are its qudits and its columns the later ones: A is
    (d^n', R). The Schur measurement draws (lam, j) with probability
    tr(Pi A A^dag) and the POVM's outcome density is a function of
    Pi A A^dag Pi, so both keep their law on any F with F F^dag = A A^dag.
    When R > d^n', they run on the factor of :func:`_segment_factor`, which
    has at most d^n' columns. With Pi the measured projection followed by
    the change of basis and c the POVM's contraction of the segment's rows,
    the POVM leaves r_F = c Pi F / ||Pi F|| on F's columns, and
    (r_F F^+) A = c Pi A / ||Pi A|| is the state it would leave on A itself.
    Its norm is ||r_F||, so r_F is normalised before the back-map. A is read
    once for its Gram and once for that back-map; a segment with
    R <= d^n' runs on A directly.
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
        segment = rest.reshape(seg_dim, -1)
        factor, pinv = _segment_factor(segment)
        lam, _j, tau = schur_measure(basis, factor, sub)
        psis, rests, trials = _povm_sample(lam, d, _RowLaw.row_one(lam, d, tau[None]), [1], sub.gen)
        # F^+ A has orthonormal rows, so ||(r_F F^+) A|| = ||r_F||: the short
        # row is normalised before the one pass over A.
        row = rests[0] / np.linalg.norm(rests[0])
        rest = row if pinv is None else (row @ pinv) @ segment
        acc += shadow_matrix(lam, psis, d) - lam.k * np.eye(d)
        partitions.append(lam.parts)
        proposals += trials
    return ShadowEstimate(
        matrix=acc / (t_segments * seg_size),
        t_segments=t_segments,
        segment_size=seg_size,
        segment_partitions=partitions,
        povm_proposals=proposals,
    )


@dataclass(frozen=True)
class _ProductTable:
    """What the product path draws from at one (d, n'), built by :func:`_product_table`.

    Entry e is the stage-1 vector |(lam, i, 0)> of partition ``lams[block_of[e]]``;
    entries come in partition order, then by i. Position p of weight class c,
    counted from ``classes.starts[c]``, is column p of that weight's V_w with
    its columns ordered by (lam, i, j), so ``entry[classes.starts[c] + p]``
    is its (lam, i): each (lam, i) of weight w holds f^lam positions of w's
    multinom(n'; w). ``first_rows[b]`` is row 1's law over partition b's
    (lam, i, 0) vectors in Dicke coordinates, law i for i. ``parts[b]`` is
    ``lams[b].parts``, in an object array, so that one gather lists the
    partitions of an estimate's segments.
    """

    classes: SlotClasses
    entry: np.ndarray
    block_of: np.ndarray
    lams: tuple[Partition, ...]
    first_rows: tuple[_RowLaw, ...]
    parts: np.ndarray


def _product_table_bytes(d: int, n: int) -> int:
    """Bytes that the row-1 laws of :func:`_product_table` hold, counted from
    shapes alone. Per lam, dim_q(lam) laws, each of a kappa x X complex
    state, kappa = kappa(lam_1) and X = prod_{r>1} kappa(lam_r), and 8-byte
    tables: the ``weights`` of its picks (kappa compositions on lam_1 > 1,
    else X columns), one ``bound``, and the ``cum`` of its picks, or one
    ``sole`` index on a one-row lam, whose weight vectors are single Dicke
    states."""
    total = 0
    for lam in partitions_of(n, d):
        kappa = symmetric_dim(lam.parts[0], d)
        width = math.prod(symmetric_dim(m, d) for m in lam.parts[1:])
        picks = kappa if lam.parts[0] > 1 else width
        tables = picks + 2 if lam.k == 1 else 2 * picks + 1
        total += weyl_dim(lam, d) * (16 * kappa * width + 8 * tables)
    return total


@lru_cache(maxsize=16)
def _product_table(d: int, n: int) -> _ProductTable:
    """The :class:`_ProductTable` of segment size n, from :func:`build_q_bases`
    and the labels of :func:`_layout`.

    Raises :class:`CapExceededError` before any stage-1 work or d^n-sized
    table, in this order: when d^n exceeds ``MAX_DENSE_DIM``, decided in
    O(1); when the int64 tables over the d^n digit tuples would take more
    than ``_TABLE_BYTES``: the (d^n, n) digit table of the weight classes,
    the layout's (d^n, 4) keys and the draw table; and when the row-1 laws
    would hold more than ``_TABLE_BYTES`` (:func:`_product_table_bytes`, a
    sum over the partitions of n). Raises :class:`SpanExtractionError` when
    :func:`check_stage1` refuses stage 1. A refused table is not cached.
    """
    check_dense_dim(d, n)
    for what, size in (("d^n' tables", 8 * d**n * (n + 5)), ("row-1 laws", _product_table_bytes(d, n))):
        if size > _TABLE_BYTES:
            raise CapExceededError(
                f"the product table at d={d}, n'={n} would take {size} bytes of {what}, over the cap {_TABLE_BYTES}"
            )
    blocks, labels = _layout(d, n)
    stage1 = build_q_bases(d, n)
    check_stage1(d, n, stage1)
    lams, _, weight_of_i = zip(*blocks)
    sizes = list(map(len, weight_of_i))
    block_of = np.repeat(np.arange(len(sizes)), sizes)
    first_i = np.cumsum(sizes) - sizes
    # Sorted, the (lam, i) of a slice's columns are in (lam, i, j) order.
    entry = np.concatenate([np.sort(first_i[keys[:, 0]] + keys[:, 1]) for keys, _ in labels.values()])
    first_rows = []
    step = max(1, _CHUNK_ENTRIES // d**n)
    for lam, images in stage1.items():
        vectors = [(image.indices, col) for image in images for col in image.columns.T]
        states = []
        # A few dense vectors at a time: no (dim_q, d^n) array is formed.
        for k in range(0, len(vectors), step):
            dense = np.zeros((len(vectors[k : k + step]), d**n, 1), dtype=np.complex128)
            for row, (indices, col) in zip(dense, vectors[k : k + step]):
                row[indices, 0] = col
            states.append(_dicke_tensor(lam, d, dense))
        first_rows.append(_RowLaw.of(np.concatenate(states), lam.parts[0]))
    parts = np.fromiter((lam.parts for lam in lams), dtype=object, count=len(lams))
    return _ProductTable(weight_classes(d, n)[0], entry, block_of, lams, tuple(first_rows), parts)


def shadow_from_population(
    unitary: OperatorGrid, digits, t_segments: int, segment_size: int, rng: RngStream
) -> ShadowEstimate:
    """Shadow estimate for a product population input U^{x n}|e>, in
    ``t_segments`` segments of ``segment_size`` qudits.

    Equal in law to :func:`population_shadow` on the dense product state,
    which is the reference this sampler is tested against, but it never
    forms a segment state or measures one, and of the nice basis it builds
    only the j = 0 layer (:func:`_product_table`). By U-covariance the
    segments are simulated at U = I (see the module docstring):

    1. each segment draws one of the multinom(n'; w) positions of its
       weight's class, found by the index of its digits, and takes the
       (lam, i) that the table gives that position (f^lam positions each);
    2. the POVM runs once per partition lam, on all its |(lam, i, 0)> at
       once, with the number of segments that drew (lam, i) as the sample
       count of state i. |(lam, i, 0)> is a weight vector, so its first row
       is drawn exactly (M = 1);
    3. the records (Psi - k I) / n' are summed and U (.) U^dag / T returned.

    Inputs are checked before any draw, here and nowhere else: T and n' at
    least 1, at least T n' symbols, each in 0..d-1, and U unitary. Every draw
    comes from the one generator of ``rng.child(0)``. ``segment_partitions``
    lists the partitions in segment order; ``povm_proposals`` counts the
    POVM's row draws.
    """
    if t_segments < 1 or segment_size < 1:
        raise ValueError("t_segments and segment_size must be >= 1")
    if len(digits) < t_segments * segment_size:
        raise ValueError(f"need {t_segments * segment_size} symbols, got {len(digits)}")
    u = unitary.entries
    d = u.shape[0]
    if u.shape != (d, d) or unitarity_deviation(u) > DEFAULT_ATOL:
        raise ValueError(f"population unitary must be a {d} x {d} unitary")
    # Bound by their extremes, so no copy of the symbols outlives the check.
    if np.min(digits[: t_segments * segment_size]) < 0 or np.max(digits[: t_segments * segment_size]) >= d:
        raise ValueError(f"symbols must lie in 0..{d - 1}")
    return _product_shadow(unitary, digits, t_segments, segment_size, rng)


def _product_shadow(unitary: OperatorGrid, digits, t_segments: int, seg_size: int, rng: RngStream) -> ShadowEstimate:
    """:func:`shadow_from_population` on inputs that pass its checks."""
    d = len(unitary.entries)
    table = _product_table(d, seg_size)
    seg_digits = np.asarray(digits[: t_segments * seg_size], dtype=np.int64).reshape(t_segments, seg_size)
    draws = rng.child(0).gen
    seg_class = table.classes.inverse[seg_digits @ place_values(d, seg_size)]
    position = table.classes.starts[seg_class] + draws.integers(table.classes.counts[seg_class])
    entry = table.entry[position]
    hits = np.bincount(entry, minlength=len(table.block_of))
    partitions = table.parts[table.block_of[entry]].tolist()
    # Only the counts per entry and the partitions stay through the POVM passes.
    del seg_digits, seg_class, position, entry
    acc = np.zeros((d, d), dtype=np.complex128)
    proposals = start = 0
    for lam, first in zip(table.lams, table.first_rows):
        counts = hits[start : start + len(first.states)]
        start += len(counts)
        if counts.any():
            psis, _, trials = _povm_sample(lam, d, first, counts, draws, False)
            record = shadow_matrix(lam, psis, d)
            # Rounds as subtracting count k I would: x - 0.0 = x off the diagonal.
            record.flat[:: d + 1] -= len(psis) * lam.k
            acc += record
            proposals += trials
    return ShadowEstimate(
        matrix=unitary.entries @ acc @ unitary.entries.conj().T / (t_segments * seg_size),
        t_segments=t_segments,
        segment_size=seg_size,
        segment_partitions=partitions,
        povm_proposals=proposals,
    )


def mixed_state_shadow(
    chi: MixedState, n: int, epsilon: float, rng: RngStream, basis: SchurBasis | None = None
) -> ShadowEstimate:
    """Shadow estimate from n copies of a mixed state.

    Draws the population input (U, e) from the spectrum of chi and runs the
    product path at accuracy epsilon / 2; no basis is built or read. The
    product table is reached first, so a (d, n') that it refuses draws
    nothing, and its caps are decided before any n-sized work. A given
    ``basis`` is only checked against (d, n'), because the ``shadow-d4``
    workload in ``perfbench/workloads.py`` passes one. U was checked when chi
    was built and the symbols are drawn in 0..d-1, so the product path runs
    without the input checks of :func:`shadow_from_population`.
    """
    t_segments = segment_count(epsilon / 2.0)
    if n < t_segments:
        raise ValueError(f"need n >= T = {t_segments} copies, got {n}")
    seg_size = n // t_segments
    if basis is not None and (basis.n != seg_size or basis.d != chi.d):
        raise ValueError(f"basis is for (d={basis.d}, n={basis.n}), segments need (d={chi.d}, n={seg_size})")
    _product_table(chi.d, seg_size)
    # Not through shadow_from_population, whose perfbench/layers.py hook reads a basis first.
    return _product_shadow(*sample_population_input(chi, n, rng.child(-1)), t_segments, seg_size, rng)


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
    """Random-basis single-copy estimator: the average of (d + 1)|psi><psi| - I.

    Measuring one copy of chi in a Haar-random basis V returns the column
    V|b>, whose law has density d <psi|chi|psi> relative to Haar. That is the
    law of the one-box POVM on a segment of one qudit, whose Schur
    measurement is trivial (lam = (1)) and whose record is the same, so the
    baseline is the product path at n' = 1, with the streams of
    :func:`mixed_state_shadow`, and like it without the input checks. The
    product table is reached first, so its caps are decided before any draw.
    """
    _product_table(chi.d, 1)
    return _product_shadow(*sample_population_input(chi, n, rng.child(-1)), n, 1, rng)
