"""Exact moments of the shadow matrix, independent of any Monte Carlo path.

For a measured partition with rows lam_1 >= ... >= lam_k and a row-symmetric
state tau, the POVM outcome moments reduce to permutation averages: the Haar
expectation of psi^{tensor s} times the symmetric-subspace dimension kappa_s
equals the s-slot symmetrizer. Attaching one (or two) output qudits to a row
and symmetrizing the enlarged slot set therefore gives E[Psi] and
E[Psi tensor Psi] exactly. Tau is symmetric within each row, so the average
over an enlarged row's permutations depends only on where the outputs land:
on themselves, which gives the identity (or the swap of two outputs) times
t = ||tau||^2, or on row qudits, which gives a reduced state of tau tau^dag.
So E[Psi] is a sum of one-qudit reduced states and E[Psi tensor Psi] one of
one- and two-qudit reduced states, with four cases for two outputs in one
row (see :func:`second_moment_exact`). No register on n+1 or n+2 qudits and
no permutation group is formed: the moments read Gram matrices of the state,
and the row-symmetry check reads slot classes.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .qudit import (
    CapExceededError,
    OperatorGrid,
    PureState,
    RngStream,
    apply_local_unitary,
    haar_pure_state_batch,
    power_exceeds,
)
from .young import BoxLayout, Partition, kappa_product, register_classes, weight_classes

#: Hard cap on d**(n+2), the dimension of the state with the two output
#: qudits attached, for the second moment, and on d**n for the POVM
#: completeness checks' d^n x d^n arrays.
ORACLE_DIM_CAP = 2200

ROW_SYMMETRY_TOL = 1e-8

#: Samples accumulated per pass of the Monte Carlo checks.
_MC_BATCH = 2000

#: Complex entries of one pass of :func:`mc_povm_completeness`: a d^n above
#: 2^19 / 2000 = 262 takes fewer than :data:`_MC_BATCH` rows.
_MC_ENTRIES = 1 << 19

#: Entries per row block of a statistic of the Monte Carlo accumulators.
_STATS_ENTRIES = 1 << 16


# ---------------------------------------------------------------------------
# Row symmetrizers on the n-qudit register
# ---------------------------------------------------------------------------


def row_symmetric_projector(lam: Partition, d: int) -> np.ndarray:
    """Projector onto the row-symmetric subspace: the Kronecker product of the
    rows' symmetric projectors. A row of s boxes projects with entry 1/|C| at
    (x, y) when the s-digit tuples x and y share the weight class C."""

    def row_projector(s: int) -> np.ndarray:
        classes, _ = weight_classes(d, s)
        same = classes.inverse[:, None] == classes.inverse[None, :]
        return same / classes.counts[classes.inverse][:, None]

    return reduce(np.kron, map(row_projector, lam.parts))


def _apply_row_symmetrizers(lam: Partition, d: int, vecs: np.ndarray) -> np.ndarray:
    """prod_r S_r applied along axis 0 of ``vecs`` on the n-qudit register."""
    return register_classes(d, lam.n, tuple(map(tuple, BoxLayout(lam).row_blocks()))).mean(vecs)


def row_symmetry_residual(lam: Partition, tau: PureState) -> float:
    """||prod_r S_r tau - tau||: zero exactly on the row-symmetric subspace."""
    if lam.n != tau.n:
        raise ValueError(f"partition of {lam.n} does not match {tau.n}-qudit state")
    amps = tau.amplitudes
    return float(np.linalg.norm(_apply_row_symmetrizers(lam, tau.d, amps) - amps))


def _check_protocol_state(lam: Partition, tau: PureState) -> None:
    if lam.n != tau.n:
        raise ValueError(f"partition of {lam.n} does not match {tau.n}-qudit state")
    tau.check_normalized(1e-8)
    residual = row_symmetry_residual(lam, tau)
    if residual > ROW_SYMMETRY_TOL:
        raise ValueError(
            f"state is outside the row-symmetric subspace of {lam} (residual {residual:.3e})"
        )


def random_protocol_state(
    lam: Partition, images, d: int, gen: np.random.Generator
) -> tuple[PureState, tuple[int, ...]]:
    """Random unit combination of the (lam, i, 0) vectors of one weight.

    ``images`` is stage 1's list for lam (``build_q_bases(d, n)[lam]``), the
    (lam, i, 0) of each weight as real columns. The weight is that of a
    uniformly drawn i; returns (state, weight).
    """
    ends = np.cumsum([image.columns.shape[1] for image in images])
    image = images[int(np.searchsorted(ends, gen.choice(ends[-1]), side="right"))]
    count = image.columns.shape[1]
    coeff = gen.standard_normal(count) + 1j * gen.standard_normal(count)
    coeff /= np.linalg.norm(coeff)
    dense = np.zeros(d**lam.n, dtype=np.complex128)
    for c, col in zip(coeff, image.columns.T):
        dense[image.indices] += c * col
    return PureState(d, lam.n, dense).normalized(), image.weight


# ---------------------------------------------------------------------------
# First moment
# ---------------------------------------------------------------------------


def _reduced(tau: PureState, *qudits: int) -> np.ndarray:
    """Reduced state of ``qudits`` of tau tau^dag, the first as the leading
    digit: the Gram matrix of the tensor with those axes in front."""
    d = tau.d
    rows = np.moveaxis(tau.amplitudes.reshape((d,) * tau.n), qudits, range(len(qudits))).reshape(d ** len(qudits), -1)
    return rows @ rows.conj().T


def expected_shadow_exact(lam: Partition, tau: PureState) -> np.ndarray:
    """Exact E[Psi] = sum_j (t I + lam_j rho_j), with t = ||tau||^2.

    Row j's term is its Haar weight (lam_j + d) kappa(lam_j) / kappa(lam_j + 1)
    = lam_j + 1 times the mean over the lam_j + 1 places of the output qudit
    in the enlarged row: its own place gives t I, and each of the lam_j row
    qudits gives the reduced state rho_j of that qudit. The state is
    row-symmetric, so every qudit of a row has the same rho_j, read off the
    row's first.
    """
    _check_protocol_state(lam, tau)
    out = sum(part * _reduced(tau, first) for part, first in zip(lam.parts, np.cumsum(lam.parts) - lam.parts))
    return out + lam.k * float(np.vdot(tau.amplitudes, tau.amplitudes).real) * np.eye(tau.d)


def expected_shadow_formula(lam: Partition, weight, unitary: OperatorGrid | None, d: int) -> np.ndarray:
    """Closed form k*I + sum_i w_i U|i><i|U^dag for a weight-w protocol state."""
    mat = float(lam.k) * np.eye(d, dtype=np.complex128)
    u = np.eye(d, dtype=np.complex128) if unitary is None else unitary.entries
    for sym, count in enumerate(weight):
        if count:
            col = u[:, sym]
            mat += count * np.outer(col, col.conj())
    return mat


# ---------------------------------------------------------------------------
# Second moment
# ---------------------------------------------------------------------------


def check_oracle_cap(d: int, n: int) -> None:
    """Refuse an n-qudit second moment whose d^(n+2) exceeds the cap."""
    if power_exceeds(d, n + 2, ORACLE_DIM_CAP):
        raise CapExceededError(f"d^(n+2) = {d}^{n + 2} exceeds oracle cap {ORACLE_DIM_CAP}")


def _check_povm_cap(lam: Partition, d: int) -> None:
    """Refuse a POVM completeness check whose d^n x d^n arrays exceed the cap."""
    if power_exceeds(d, lam.n, ORACLE_DIM_CAP):
        raise CapExceededError(f"the POVM check of {lam} at d^n = {d}^{lam.n} exceeds oracle cap {ORACLE_DIM_CAP}")


def second_moment_exact(lam: Partition, tau: PureState) -> np.ndarray:
    """Exact E[Psi tensor Psi] as a d^2 x d^2 matrix, from the one- and
    two-qudit reduced states of tau tau^dag.

    With t = ||tau||^2, rho_j the reduced state of a qudit of row j, rho_jj'
    that of a qudit of row j (leading digit) and one of row j', and S the
    swap of the two outputs:

        E[Psi x Psi] = sum_{j != j'} (t I x I + lam_j rho_j x I
                                      + lam_j' I x rho_j' + lam_j lam_j' rho_jj')
                     + sum_j (lam_j + d) / (lam_j + d + 1) [t (I + S)
                         + lam_j (I + S)(rho_j x I)(I + S) + lam_j (lam_j - 1) rho_jj].

    Each term is the Haar weight (lam_j + d)(lam_j' + d) times the ratio of
    symmetric-subspace dimensions before and after the outputs join their
    rows, times the mean over the enlarged rows' permutations of where the
    outputs land. For j != j' the weight is (lam_j + 1)(lam_j' + 1), and each
    output stays (t) or trades places with one of its row's qudits (rho_j).
    For j = j' the weight is (lam_j + d)(lam_j + 1)(lam_j + 2) / (lam_j + d + 1)
    over (lam_j + 2)(lam_j + 1) placements of the two outputs: both stay or
    swap (t (I + S)); one lands on a row qudit, four ways, whose sum is
    (I + S)(rho_j x I)(I + S); or both do (rho_jj, that of two qudits of the
    row). The state is row-symmetric, so the qudits are the rows' first and
    second. Every term is linear in tau tau^dag, and the cost is k^2 Gram
    products of d^(n+2) entries.
    """
    d = tau.d
    # Refuse by size first, before any validation work.
    check_oracle_cap(d, tau.n)
    _check_protocol_state(lam, tau)
    t = float(np.vdot(tau.amplitudes, tau.amplitudes).real)
    eye, one = np.eye(d), np.eye(d * d)
    sym = one + one.reshape((d,) * 4).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    starts = np.cumsum(lam.parts) - lam.parts
    # Summed over j != j', the first three terms are (k - 1) times
    # k t I x I + A x I + I x A, with A = sum_j lam_j rho_j.
    a = sum(part * _reduced(tau, first) for part, first in zip(lam.parts, starts))
    total = (lam.k - 1) * (lam.k * t * one + np.kron(a, eye) + np.kron(eye, a))
    for part, first in zip(lam.parts, starts):
        for part_p, first_p in zip(lam.parts, starts):
            if first_p != first:
                total += part * part_p * _reduced(tau, first, first_p)
        diag = t * sym + part * (sym @ np.kron(_reduced(tau, first), eye) @ sym)
        if part > 1:
            diag += part * (part - 1) * _reduced(tau, first, first + 1)
        total += (part + d) / (part + d + 1) * diag
    return total


def variance_exact(observable: np.ndarray, first: np.ndarray, second: np.ndarray) -> float:
    """Var[tr(O Psi)] = tr((O tensor O) E[Psi x Psi]) - tr(O E[Psi])^2, from
    the exact moments ``first`` (:func:`expected_shadow_exact`) and
    ``second`` (:func:`second_moment_exact`)."""
    obs = np.asarray(observable, dtype=np.complex128)
    raw = np.trace(np.kron(obs, obs) @ second) - np.trace(obs @ first) ** 2
    if abs(raw.imag) > 1e-8:
        raise ValueError(f"variance has non-negligible imaginary part {raw.imag}")
    return float(raw.real)


def single_row_variance_closed_form(observable: np.ndarray, p: int, q: int, d: int) -> float:
    """Closed-form Var[tr(O Psi)] for a single-row partition on the uniform
    superposition of arrangements of p zeros and q ones, at U = I.

    Requires a traceless Hermitian observable and d >= 2; cross-checked
    against :func:`variance_exact` and independent quadrature in the tests.
    """
    obs = np.asarray(observable, dtype=np.complex128)
    if d < 2 or obs.shape != (d, d):
        raise ValueError("observable must be d x d with d >= 2")
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need p, q >= 0 with p + q >= 1")
    if abs(np.trace(obs)) > 1e-9:
        raise ValueError("closed form requires a traceless observable")
    n = p + q
    a = obs[0, 0].real
    b = obs[1, 1].real
    cross = float(np.abs(obs[0, 1]) ** 2)
    sq = obs @ obs
    alpha = sq[0, 0].real
    beta = sq[1, 1].real
    tr_sq = float(np.trace(sq).real)
    lead = (n + d) / (n + d + 1)
    tail = 1.0 / (n + d + 1)
    return lead * (
        tr_sq + 2 * p * alpha + 2 * q * beta + 2 * p * q * cross - p * a**2 - q * b**2
    ) - tail * (p**2 * a**2 + q**2 * b**2 + 2 * p * q * a * b)


# ---------------------------------------------------------------------------
# POVM completeness
# ---------------------------------------------------------------------------


def povm_completeness_residual(lam: Partition, d: int) -> float:
    """Max-abs gap between two constructions of the product of per-row
    symmetrizers, which equals the POVM elements' Haar integral.

    One applies the whole register's multi-block class means to the
    identity; the other is the Kronecker product of the rows' projectors
    (:func:`row_symmetric_projector`). A d^n over ``ORACLE_DIM_CAP`` is
    refused before either is formed."""
    _check_povm_cap(lam, d)
    product = _apply_row_symmetrizers(lam, d, np.eye(d**lam.n))
    direct = row_symmetric_projector(lam, d)
    return float(np.max(np.abs(product - direct)))


# ---------------------------------------------------------------------------
# Monte Carlo cross-checks
# ---------------------------------------------------------------------------


class _EntrywiseStats:
    """Streaming mean and per-entry Re/Im standard errors of complex arrays."""

    def __init__(self, shape):
        self.count = 0
        self.sum = np.zeros(shape, dtype=np.complex128)
        self.sum_sq_re = np.zeros(shape)
        self.sum_sq_im = np.zeros(shape)

    def add_batch(self, batch: np.ndarray) -> None:
        self.count += batch.shape[0]
        self.sum += batch.sum(axis=0)
        self.sum_sq_re += np.sum(batch.real**2, axis=0)
        self.sum_sq_im += np.sum(batch.imag**2, axis=0)

    def add_outer(self, rows: np.ndarray) -> None:
        """Add the outer products rows[s] rows[s]^dag of a (b, m) batch by
        Gram products, forming no (b, m, m) array."""
        re2, im2, reim = rows.real**2, rows.imag**2, rows.real * rows.imag
        self.count += rows.shape[0]
        self.sum += rows.T @ rows.conj()
        # x_uw = v_u conj(v_w): Re x = R_u R_w + I_u I_w, Im x = I_u R_w - R_u I_w.
        # Added one product at a time, so at most two m x m temporaries live.
        cross = reim.T @ reim
        cross *= 2.0
        self.sum_sq_re += re2.T @ re2
        self.sum_sq_re += im2.T @ im2
        self.sum_sq_re += cross
        self.sum_sq_im += im2.T @ re2
        self.sum_sq_im += re2.T @ im2
        self.sum_sq_im -= cross

    @property
    def mean(self) -> np.ndarray:
        return self.sum / self.count

    def row_blocks(self) -> list[slice]:
        """Slices of the accumulators' rows, each of at most ``_STATS_ENTRIES``
        entries, so that a statistic taken block by block holds no temporary
        of the accumulators' size."""
        step = max(1, _STATS_ENTRIES // self.sum[0].size)
        return [slice(start, start + step) for start in range(0, len(self.sum), step)]

    def max_z(self, target: np.ndarray) -> float:
        """Max over entries of the larger of the Re and Im z statistics of the
        mean against ``target``; NaN if any statistic is NaN."""
        worst = []
        for rows in self.row_blocks():
            mean, want = self.sum[rows] / self.count, target[rows]
            for part, sum_sq, aim in ((mean.real, self.sum_sq_re, want.real), (mean.imag, self.sum_sq_im, want.imag)):
                se = np.sqrt(np.maximum(sum_sq[rows] / self.count - part**2, 0.0) / self.count)
                dev = np.abs(part - aim)
                # Entries with (numerically) zero spread must match to float noise.
                z = np.where(se > 1e-12, dev / np.maximum(se, 1e-300), np.where(dev < 1e-9, 0.0, np.inf))
                worst.append(np.max(z))
        return float(np.max(worst))


def mc_povm_completeness(lam: Partition, d: int, samples: int, rng: RngStream) -> dict:
    """Monte Carlo average of kappa-weighted POVM elements vs the projector.

    The sampled operator is kappa * |v><v| with v the product of per-row
    tensor powers, accumulated by :meth:`_EntrywiseStats.add_outer`. The
    statistics against the projector are taken over blocks of the
    accumulators' rows (:meth:`_EntrywiseStats.max_z`), so the check holds
    little beyond its three d^n x d^n accumulators and one pass of at most
    :data:`_MC_BATCH` samples and :data:`_MC_ENTRIES` entries. A d^n over
    ``ORACLE_DIM_CAP`` is refused before any sample.
    """
    _check_povm_cap(lam, d)
    dim = d**lam.n
    scale = np.sqrt(float(kappa_product(lam, d)))
    stats = _EntrywiseStats((dim, dim))
    gen = rng.gen
    while stats.count < samples:
        b = min(_MC_BATCH, max(1, _MC_ENTRIES // dim), samples - stats.count)
        rows = _product_state_batch(lam, d, b, gen) * scale
        stats.add_outer(rows)
    target = row_symmetric_projector(lam, d)
    devs = [np.max(np.abs(stats.sum[rows] / stats.count - target[rows])) for rows in stats.row_blocks()]
    return {
        "samples": samples,
        "entries": int(2 * dim * dim),
        "max_abs_z": stats.max_z(target),
        "max_abs_dev": float(np.max(devs)),
    }


def _product_state_batch(lam: Partition, d: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Batch of tensor products psi_1^{x lam_1} x ... as (count, d^n) rows."""
    full = None
    for part in lam.parts:
        psi = haar_pure_state_batch(d, count, gen)
        prod = psi
        for _ in range(part - 1):
            prod = (prod[:, :, None] * psi[:, None, :]).reshape(count, -1)
        full = prod if full is None else (full[:, :, None] * prod[:, None, :]).reshape(count, -1)
    return full


def mc_shadow_moments(
    lam: Partition,
    tau: PureState,
    unitary: OperatorGrid | None,
    samples: int,
    rng: RngStream,
    second: bool = True,
    observable: np.ndarray | None = None,
) -> dict:
    """Sample the production POVM path and compare moments to the oracle.

    Returns entrywise max |z| for E[Psi] (and E[Psi x Psi] when ``second``),
    plus a variance z statistic for ``observable`` when given, and the exact
    moments it compared against: ``first_moment_exact``, and
    ``second_moment_exact`` when ``second`` or ``observable`` asks for it.
    Both are the moments of the rotated state U^{tensor n} tau that the
    sampler draws from, each computed once.

    The second moment's statistic is v v^dag with v = vec(Psi): since Psi is
    Hermitian, its entry ((a, b), (e, c)) is Psi_ab Psi_ce, the entry
    ((a, c), (b, e)) of Psi (tensor) Psi.
    """
    from .protocol import row_symmetric_sample_batch

    d = tau.d
    state = tau if unitary is None else apply_local_unitary(unitary, tau)
    # The exact moments come first, so a bad state is refused before any draw.
    report = {"samples": samples, "first_moment_exact": expected_shadow_exact(lam, state)}
    if second or observable is not None:
        report["second_moment_exact"] = second_moment_exact(lam, state)
    psis, _trials = row_symmetric_sample_batch(lam, state, samples, rng)
    coeffs = np.array([part + d for part in lam.parts], dtype=np.float64)

    first_stats = _EntrywiseStats((d, d))
    second_stats = _EntrywiseStats((d * d, d * d)) if second else None
    values = np.empty(samples) if observable is not None else None
    obs = None if observable is None else np.asarray(observable, dtype=np.complex128)
    for start in range(0, samples, _MC_BATCH):
        block = psis[start : start + _MC_BATCH]
        # Psi per sample: sum_i (d + lam_i) |psi_i><psi_i|.
        shadows = np.einsum("i,sia,sib->sab", coeffs, block, block.conj())
        first_stats.add_batch(shadows)
        if second_stats is not None:
            second_stats.add_outer(shadows.reshape(-1, d * d))
        if values is not None:
            values[start : start + block.shape[0]] = np.real(np.einsum("ab,sba->s", obs, shadows))

    report["first_moment_max_z"] = first_stats.max_z(report["first_moment_exact"])
    report["first_moment_mean"] = first_stats.mean
    if second_stats is not None:
        target = report["second_moment_exact"].reshape((d,) * 4).transpose(0, 2, 3, 1).reshape(d * d, d * d)
        report["second_moment_max_z"] = second_stats.max_z(target)
    if values is not None:
        sample_var = float(np.var(values))
        centred = values - values.mean()
        m2 = float(np.mean(centred**2))
        m4 = float(np.mean(centred**4))
        se_var = np.sqrt(max(m4 - m2**2, 0.0) / samples)
        exact_var = variance_exact(obs, report["first_moment_exact"], report["second_moment_exact"])
        report["variance_mc"] = sample_var
        report["variance_exact"] = exact_var
        report["variance_z"] = float(abs(sample_var - exact_var) / max(se_var, 1e-300))
    return report
