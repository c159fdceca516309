"""Exact moments of the shadow matrix, independent of any Monte Carlo path.

For a measured partition with rows lam_1 >= ... >= lam_k and a row-symmetric
state tau, the POVM outcome moments reduce to permutation averages: the Haar
expectation of psi^{tensor s} times the symmetric-subspace dimension kappa_s
equals the s-slot symmetrizer. Attaching one (or two) output qudits to a row
and symmetrizing the enlarged slot set therefore gives E[Psi] and
E[Psi tensor Psi] exactly. E[Psi] is a sum of one-qudit reduced states of
tau. For E[Psi tensor Psi] each symmetrizer acts on the d^2 vectors
|b> (tensor) tau of the (n+2)-qudit register as a mean over the classes of
indices that agree outside its slots and carry the same digit multiset on
them, so no operator on n+1 or n+2 qudits is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .qudit import (
    CapExceededError,
    OperatorGrid,
    PureState,
    RngStream,
    apply_local_unitary,
    digit_table,
    haar_pure_state_batch,
    permuted_indices,
)
from .young import BoxLayout, Partition, kappa_product, register_classes, row_group, symmetric_dim

#: Hard cap on d**(n+2) for explicit second-moment operators.
ORACLE_DIM_CAP = 2200

ROW_SYMMETRY_TOL = 1e-8

#: Digit entries that one chunk of permuted digit tables may hold.
_PERM_CHUNK = 1 << 18

#: POVM elements drawn per pass of :func:`mc_povm_completeness`.
_MC_BATCH = 2000


# ---------------------------------------------------------------------------
# Row symmetrizers on the n-qudit register
# ---------------------------------------------------------------------------


def row_symmetric_projector(lam: Partition, d: int) -> np.ndarray:
    """Projector onto the row-symmetric subspace: the row-group average, taken
    over chunks of the group so that no (|group|, d^n, n) array is formed."""
    digits = digit_table(d, lam.n)
    mat = np.zeros((len(digits), len(digits)))
    perms, count = row_group(lam), 0
    while chunk := list(itertools.islice(perms, max(1, _PERM_CHUNK // digits.size))):
        np.add.at(mat, (permuted_indices(digits, d, np.array(chunk)), np.arange(len(digits))), 1.0)
        count += len(chunk)
    return mat / count


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


def _rotated_amplitudes(tau: PureState, unitary: OperatorGrid | None) -> np.ndarray:
    state = tau if unitary is None else apply_local_unitary(unitary, tau)
    return state.amplitudes


# ---------------------------------------------------------------------------
# First moment
# ---------------------------------------------------------------------------


def expected_shadow_exact(
    lam: Partition, tau: PureState, unitary: OperatorGrid | None = None, validate: bool = True
) -> np.ndarray:
    """Exact E[Psi]: sum over rows and in-row swap positions of reduced states.

    For each row j and position p <= lam_j the swap pulls the reduced state
    of box (j, p) onto the output qudit, and the identity overload
    p = lam_j + 1 contributes tr(rho) I. The rows tile the diagram, so
    E[Psi] = k tr(rho) I + sum over all n qudits of their one-qudit reduced
    states, each a Gram matrix of the tensor with that qudit's axis in front.
    """
    if validate:
        _check_protocol_state(lam, tau)
    d, n = tau.d, tau.n
    amps = _rotated_amplitudes(tau, unitary)
    tensor = amps.reshape((d,) * n)
    out = lam.k * float(np.vdot(amps, amps).real) * np.eye(d, dtype=np.complex128)
    for qudit in range(n):
        rows = np.moveaxis(tensor, qudit, 0).reshape(d, -1)
        out += rows @ rows.conj().T
    return out


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
    """Refuse an n-qudit second moment whose (n+2)-qudit register exceeds the cap."""
    if d ** (n + 2) > ORACLE_DIM_CAP:
        raise CapExceededError(f"d^(n+2) = {d ** (n + 2)} exceeds oracle cap {ORACLE_DIM_CAP}")


def second_moment_exact(
    lam: Partition,
    tau: PureState,
    unitary: OperatorGrid | None = None,
    validate: bool = True,
) -> np.ndarray:
    """Exact E[Psi tensor Psi] as a d^2 x d^2 matrix.

    Output qudits occupy slots 0 and 1 of an (n+2)-qudit register. For every
    ordered row pair (j, j') the Haar expectation of the POVM element times
    psi_j (tensor) psi_j' factorizes into per-row symmetrizers over enlarged
    slot sets, with coefficient (lam_j + d)(lam_j' + d) times the ratio of
    symmetric-subspace dimensions before and after enlargement.

    With X the (d^(n+2), d^2) matrix whose column b is |b> (tensor) tau,
    I (tensor) rho = X X^dag, so the pair's term is coeff * X^dag W X for the
    symmetrizer product W. Each symmetrizer acts on the columns of X as a
    class mean over the :func:`register_classes` of its slot set, built once
    per (d, n, slots) for every call, and no d^(n+2)-square operator is formed.
    """
    d, n = tau.d, tau.n
    # Refuse by size first, before any validation work.
    check_oracle_cap(d, n)
    if validate:
        _check_protocol_state(lam, tau)
    amps = _rotated_amplitudes(tau, unitary)
    layout = BoxLayout(lam)
    columns = np.kron(np.eye(d * d, dtype=np.complex128), amps.reshape(-1, 1))

    row_slots = [[2 + layout.box_position(r, c) for c in range(lam.parts[r])] for r in range(lam.k)]

    total = np.zeros((d * d, d * d), dtype=np.complex128)
    for j in range(lam.k):
        for jp in range(lam.k):
            coeff = float((lam.parts[j] + d) * (lam.parts[jp] + d))
            factors = []
            for r in range(lam.k):
                slots = list(row_slots[r])
                extra = (1 if r == j else 0) + (1 if r == jp else 0)
                if r == j:
                    slots.append(0)
                if r == jp:
                    slots.append(1)
                if not extra and lam.parts[r] == 1:
                    continue  # single-box row without outputs: identity factor
                coeff *= symmetric_dim(lam.parts[r], d) / symmetric_dim(lam.parts[r] + extra, d)
                factors.append(register_classes(d, n + 2, (tuple(sorted(slots)),)))
            image = columns
            for factor in reversed(factors):
                image = factor.mean(image)
            # (X^dag W X)[a, b] = sum_r conj(tau_r) (W X)[(a, r), b]
            total += coeff * (amps.conj() @ image.reshape(d * d, -1, d * d))
    return total


def variance_exact(lam: Partition, tau: PureState, unitary: OperatorGrid | None, observable: np.ndarray) -> float:
    """Var[tr(O Psi)] = tr((O tensor O) E[Psi x Psi]) - tr(O E[Psi])^2."""
    second = second_moment_exact(lam, tau, unitary)
    return _variance(observable, expected_shadow_exact(lam, tau, unitary, validate=False), second)


def _variance(observable: np.ndarray, first: np.ndarray, second: np.ndarray) -> float:
    """tr((O tensor O) second) - tr(O first)^2 for the exact moments."""
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
    """Max-abs gap between the product of per-row symmetrizers and the
    row-group average; both equal the POVM elements' Haar integral.

    The product is read off the slot classes by applying it to the identity;
    the average is built from the row group's permutations."""
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

    @property
    def mean(self) -> np.ndarray:
        return self.sum / self.count

    def z_scores(self, target: np.ndarray) -> np.ndarray:
        """Max of the Re and Im z statistics per entry."""
        mean = self.mean
        var_re = np.maximum(self.sum_sq_re / self.count - mean.real**2, 0.0)
        var_im = np.maximum(self.sum_sq_im / self.count - mean.imag**2, 0.0)
        se_re = np.sqrt(var_re / self.count)
        se_im = np.sqrt(var_im / self.count)
        dev_re = np.abs(mean.real - target.real)
        dev_im = np.abs(mean.imag - target.imag)
        # Entries with (numerically) zero spread must match to float noise.
        z_re = np.where(se_re > 1e-12, dev_re / np.maximum(se_re, 1e-300), np.where(dev_re < 1e-9, 0.0, np.inf))
        z_im = np.where(se_im > 1e-12, dev_im / np.maximum(se_im, 1e-300), np.where(dev_im < 1e-9, 0.0, np.inf))
        return np.maximum(z_re, z_im)


def mc_povm_completeness(lam: Partition, d: int, samples: int, rng: RngStream) -> dict:
    """Monte Carlo average of kappa-weighted POVM elements vs the projector.

    The sampled operator is kappa * |v><v| with v the product of per-row
    tensor powers; entrywise Re/Im second moments accumulate through matrix
    products of the elementwise-squared real/imaginary parts.
    """
    dim = d**lam.n
    kappa = float(kappa_product(lam, d))
    stats = _EntrywiseStats((dim, dim))
    gen = rng.gen
    while stats.count < samples:
        b = min(_MC_BATCH, samples - stats.count)
        full = _product_state_batch(lam, d, b, gen) * np.sqrt(kappa)
        re, im = np.ascontiguousarray(full.real), np.ascontiguousarray(full.imag)
        stats.sum += full.T @ full.conj()
        re2, im2, reim = re**2, im**2, re * im
        # x_uw = F_u conj(F_w): Re x = R_u R_w + I_u I_w, Im x = I_u R_w - R_u I_w.
        stats.sum_sq_re += re2.T @ re2 + 2.0 * (reim.T @ reim) + im2.T @ im2
        stats.sum_sq_im += im2.T @ re2 + re2.T @ im2 - 2.0 * (reim.T @ reim)
        stats.count += b
    target = row_symmetric_projector(lam, d).astype(np.complex128)
    return {
        "samples": samples,
        "entries": int(2 * dim * dim),
        "max_abs_z": float(np.max(stats.z_scores(target))),
        "max_abs_dev": float(np.max(np.abs(stats.mean - target))),
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
    The state is checked once, and each exact moment is computed once.
    """
    from .protocol import row_symmetric_sample_batch

    d = tau.d
    # The exact moments come first, so a bad state is refused before any draw.
    report = {"samples": samples, "first_moment_exact": expected_shadow_exact(lam, tau, unitary)}
    if second or observable is not None:
        report["second_moment_exact"] = second_moment_exact(lam, tau, unitary, validate=False)
    state = tau if unitary is None else apply_local_unitary(unitary, tau)
    psis, _trials = row_symmetric_sample_batch(lam, state, samples, rng)
    coeffs = np.array([part + d for part in lam.parts], dtype=np.float64)

    first_stats = _EntrywiseStats((d, d))
    second_stats = _EntrywiseStats((d * d, d * d)) if second else None
    values = np.empty(samples) if observable is not None else None
    obs = None if observable is None else np.asarray(observable, dtype=np.complex128)
    chunk = max(1, 20_000_000 // (16 * d**4))
    for start in range(0, samples, chunk):
        block = psis[start : start + chunk]
        # Psi per sample: sum_i (d + lam_i) |psi_i><psi_i|.
        shadows = np.einsum("i,sia,sib->sab", coeffs, block, block.conj())
        first_stats.add_batch(shadows)
        if second_stats is not None:
            b = shadows.shape[0]
            kron = np.einsum("sab,scd->sacbd", shadows, shadows).reshape(b, d * d, d * d)
            second_stats.add_batch(kron)
        if values is not None:
            values[start : start + block.shape[0]] = np.real(np.einsum("ab,sba->s", obs, shadows))

    report["first_moment_max_z"] = float(np.max(first_stats.z_scores(report["first_moment_exact"])))
    report["first_moment_mean"] = first_stats.mean
    if second_stats is not None:
        report["second_moment_max_z"] = float(np.max(second_stats.z_scores(report["second_moment_exact"])))
    if values is not None:
        sample_var = float(np.var(values))
        centred = values - values.mean()
        m2 = float(np.mean(centred**2))
        m4 = float(np.mean(centred**4))
        se_var = np.sqrt(max(m4 - m2**2, 0.0) / samples)
        exact_var = _variance(obs, report["first_moment_exact"], report["second_moment_exact"])
        report["variance_mc"] = sample_var
        report["variance_exact"] = exact_var
        report["variance_z"] = float(abs(sample_var - exact_var) / max(se_var, 1e-300))
    return report


@dataclass
class MomentReport:
    """Exact-vs-Monte-Carlo comparison bundle for one partition instance."""

    lam: Partition
    d: int
    first_moment: np.ndarray
    second_moment: np.ndarray | None
    variance: float | None
    mc: dict

    def hermiticity_deviation(self) -> float:
        dev = float(np.max(np.abs(self.first_moment - self.first_moment.conj().T)))
        if self.second_moment is not None:
            dev = max(dev, float(np.max(np.abs(self.second_moment - self.second_moment.conj().T))))
        return dev

    def to_jsonable(self) -> dict:
        out = {
            "schema_version": 1,
            "partition": list(self.lam.parts),
            "d": self.d,
            "first_moment_re": self.first_moment.real.tolist(),
            "first_moment_im": self.first_moment.imag.tolist(),
            "hermiticity_deviation": self.hermiticity_deviation(),
            "mc": {k: v for k, v in self.mc.items() if not isinstance(v, np.ndarray)},
        }
        if self.second_moment is not None:
            out["second_moment_re"] = self.second_moment.real.tolist()
            out["second_moment_im"] = self.second_moment.imag.tolist()
        if self.variance is not None:
            out["variance"] = self.variance
        return out
