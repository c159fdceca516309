"""The four benchmark workloads and their correctness checks.

Each workload drives public functions of ``schur_shadows`` only. It makes
its inputs from the workload seed in ``setup`` (which the harness repeats and
times), computes its own exact references in ``prepare_checks`` (not timed),
and runs one operation per ``run_op`` call. The pass workloads call the
harness's ``lap`` after each item of a pass, so that a pass of several
seconds is timed in short laps (see speed.py). ``check_op`` turns the output of
one operation (or the name of the exception it raised) into work units,
attempts and failures; ``check_run`` makes the statistical checks that need
every operation of the run.

Why these four (see NOTES.md for the layer-to-metric table):

* ``shadow-d4``: the paper's end-to-end task on product population inputs;
  time goes to per-segment Python overhead and the d=4 multi-row POVM.
* ``shadow-joint``: the same measurement and POVM on one dense entangled
  state, where the work is memory-bound contractions over a 2^18 rest.
* ``basis-cold``: the only workload where basis construction dominates,
  including the save/load round trip.
* ``oracle``: the exact moment oracle and the batched POVM sampler, which
  the shadow workloads never call.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from statistics import NormalDist
from time import perf_counter

import numpy as np

from schur_shadows import basis as basis_mod
from schur_shadows import moments, protocol, qudit, young

KNOWN_GRID = ((2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5), (5, 4))

FULL = {
    "shadow-d4": {"d": 4, "spectrum": (0.7, 0.3, 0.0, 0.0), "epsilon": 0.35, "segment": 3, "warmup": 3},
    "shadow-joint": {"d": 2, "qudits": 21, "epsilon": 1.2, "warmup": 2},
    "basis-cold": {"grid": KNOWN_GRID, "trials": 2},
    "oracle": {
        "points": ((2, 6), (3, 4), (4, 3)),
        "samples": 4000,
        "refusals": ((2, (6, 4)), (3, (7,))),
    },
}

#: Tiny sizes for the benchmark's own test; same code paths, seconds not minutes.
SMOKE = {
    "shadow-d4": {"d": 4, "spectrum": (0.7, 0.3, 0.0, 0.0), "epsilon": 1.5, "segment": 3, "warmup": 1},
    "shadow-joint": {"d": 2, "qudits": 14, "epsilon": 1.2, "warmup": 1},
    "basis-cold": {"grid": ((2, 3), (3, 3)), "trials": 1},
    "oracle": {"points": ((2, 3),), "samples": 500, "refusals": ((4, (4,)),)},
}

#: Familywise level of every z gate: the two-sided tail mass of one 4-sigma test.
Z_SIGMA = 4.0

#: Fixed significance gate of the lambda-histogram chi-square test.
CHI2_MIN_P = 1e-4

#: Thresholds of ``schur-shadows basis verify``.
VERIFY_LIMITS = {
    "gram_deviation": 1e-9,
    "weight_purity_violation": 1e-12,
    "u_closure_residual": 1e-8,
    "pi_closure_residual": 1e-8,
}


def no_lap() -> None:
    """Default ``lap`` of ``run_op`` outside the timed loop (warm-up)."""


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Tally:
    """Work done and failures over the operations of a run."""

    units: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: Counter = field(default_factory=Counter)

    def item(self, label: str, problem: str | None, units: int = 1, wrong: bool = False) -> None:
        """Count one attempted item; ``problem`` is None on success.

        ``wrong`` marks an output that failed its correctness check, as
        opposed to an operation that raised.
        """
        self.units += units
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.wrong += wrong
            self.failures[f"{label}: {problem}"] += 1


# ---------------------------------------------------------------------------
# Shared references and statistics
# ---------------------------------------------------------------------------


def family_z(num_stats: int, sigma: float = Z_SIGMA) -> float:
    """Per-statistic |z| bound whose union bound keeps one sigma-level tail."""
    dist = NormalDist()
    tail = 2 * (1 - dist.cdf(sigma))
    return dist.inv_cdf(1 - tail / (2 * max(1, num_stats)))


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution for integer ``df`` >= 1.

    Uses Q(s + 1, y) = Q(s, y) + y^s e^{-y} / Gamma(s + 1) from the closed
    forms at df = 1 (erfc) and df = 2 (exp).
    """
    y = x / 2.0
    if df % 2:
        s, q = 0.5, math.erfc(math.sqrt(y))
    else:
        s, q = 1.0, math.exp(-y)
    while s < df / 2.0:
        q += math.exp(s * math.log(y) - y - math.lgamma(s + 1)) if y > 0 else 0.0
        s += 1.0
    return min(1.0, q)


def entrywise_z(samples: np.ndarray, target: np.ndarray) -> np.ndarray:
    """|mean - target| / standard error, per real and imaginary entry."""
    count = samples.shape[0]
    out = []
    for part in (np.real, np.imag):
        vals, want = part(samples), part(target)
        dev = np.abs(vals.mean(axis=0) - want)
        se = vals.std(axis=0, ddof=1) / math.sqrt(count) if count > 1 else np.zeros_like(dev)
        out.append(np.where(se > 1e-12, dev / np.maximum(se, 1e-300), np.where(dev < 1e-9, 0.0, np.inf)))
    return np.concatenate([z.ravel() for z in out])


def shadow_observables(d: int, rng: qudit.RngStream) -> dict[str, protocol.Observable]:
    """The three observable families of criterion 8, built from their definitions."""
    z = np.zeros((d, d), dtype=np.complex128)
    z[0, 0], z[1, 1] = 1.0, -1.0
    x = np.zeros((d, d), dtype=np.complex128)
    x[0, 1] = x[1, 0] = 1.0
    rank = max(1, d // 2)
    cols = qudit.haar_unitary(d, rng).entries[:, :rank]
    return {
        "pauli-z": protocol.Observable(z, 2.0),
        "off-diagonal": protocol.Observable(x, 2.0),
        "projector": protocol.Observable(cols @ cols.conj().T, float(rank)),
    }


def estimate_problem(est, d: int, t_segments: int, seg_size: int) -> str | None:
    """First structural defect of a shadow estimate, or None."""
    mat = np.asarray(est.matrix)
    if mat.shape != (d, d) or not np.all(np.isfinite(mat)):
        return "matrix shape or non-finite entries"
    if np.max(np.abs(mat - mat.conj().T)) > 1e-9:
        return "estimate not Hermitian"
    if abs(np.trace(mat) - 1.0) > 1e-9:
        return "estimate trace differs from 1"
    if est.t_segments != t_segments or est.segment_size != seg_size:
        return "segment count or size differs from the request"
    parts = est.segment_partitions
    if len(parts) != t_segments or any(sum(p) != seg_size or len(p) > d for p in parts):
        return "segment partitions inconsistent"
    return None


def success_checks(errors: dict[str, list[float]], epsilon: float) -> list[Check]:
    """Criterion 8's rule: more than 2/3 of the estimates within epsilon."""
    out = []
    for name, errs in errors.items():
        frac = float(np.mean([e <= epsilon for e in errs])) if errs else 0.0
        out.append(Check(f"success.{name}", frac > 2.0 / 3.0, f"{frac:.3f} of {len(errs)} within {epsilon}"))
    return out


# ---------------------------------------------------------------------------
# shadow-d4: mixed_state_shadow at the criterion-8 point
# ---------------------------------------------------------------------------


class ShadowD4:
    name = "shadow-d4"

    def __init__(self, seed: int, cfg: dict, workdir: str):
        self.seed = seed
        self.cfg = cfg

    def setup(self) -> None:
        cfg = self.cfg
        root = qudit.RngStream(self.seed)
        self.root = root
        self.basis = basis_mod.build_basis(cfg["d"], cfg["segment"])
        # The spectrum is fixed (criterion 8's state has 0.703, 0.297) because
        # it sets the lambda mix and so the work per estimate; the seed draws
        # the eigenbasis and every measurement outcome.
        spectrum = np.asarray(cfg["spectrum"], dtype=np.float64)
        self.chi = protocol.MixedState(
            cfg["d"], spectrum, qudit.haar_unitary(cfg["d"], root.child(-2)), int(np.count_nonzero(spectrum))
        )
        self.observables = shadow_observables(cfg["d"], root.child(-3))
        self.t_segments = protocol.segment_count(cfg["epsilon"] / 2.0)
        self.n_copies = self.t_segments * cfg["segment"]

    def prepare_checks(self) -> None:
        rho = self.chi.density()
        self.truth = {k: float(np.trace(o.matrix @ rho).real) for k, o in self.observables.items()}
        self.errors = {k: [] for k in self.observables}
        self.lambda_counts: Counter = Counter()
        self.p_lambda = exact_lambda_distribution(self.basis, self.chi.eigenvalues)

    def warmup(self) -> None:
        for k in range(self.cfg["warmup"]):
            self.run_op(-10 - k)

    def run_op(self, i: int, lap=no_lap):
        return protocol.mixed_state_shadow(
            self.chi, self.n_copies, self.cfg["epsilon"], self.root.child(i), basis=self.basis
        )

    def check_op(self, i, est, error, tally: Tally) -> None:
        if error is not None:
            tally.item("estimate", error, self.t_segments)
            return
        problem = estimate_problem(est, self.cfg["d"], self.t_segments, self.cfg["segment"])
        tally.item("estimate", problem, self.t_segments, wrong=True)
        if problem is None:
            for key, obs in self.observables.items():
                self.errors[key].append(abs(protocol.predict(est, obs) - self.truth[key]))
            self.lambda_counts.update(tuple(p) for p in est.segment_partitions)

    def check_run(self) -> list[Check]:
        return success_checks(self.errors, self.cfg["epsilon"]) + [
            lambda_gate(self.lambda_counts, self.p_lambda)
        ]

    def report(self) -> dict:
        total = sum(self.lambda_counts.values())
        return {
            "t_segments": self.t_segments,
            "lambda_histogram": {
                "-".join(map(str, lam)): {"observed": self.lambda_counts.get(lam, 0), "expected": total * p}
                for lam, p in self.p_lambda.items()
            },
        }


def exact_lambda_distribution(basis, spectrum) -> dict[tuple[int, ...], float]:
    """P(lambda) = sum_w prod_i p_i^{w_i} f^lambda K_{lambda,w} for i.i.d. symbols.

    f^lambda is the block's ``dim_p``; K_{lambda,w} counts the block's
    weight-w vectors.
    """
    p = np.asarray(spectrum, dtype=np.float64)
    out = {}
    for lam, block in basis.blocks.items():
        kostka = Counter(tuple(w) for w in block.weight_of_i)
        out[tuple(lam.parts)] = block.dim_p * sum(
            k * float(np.prod(p ** np.asarray(w, dtype=np.float64))) for w, k in kostka.items()
        )
    return out


def lambda_gate(counts: Counter, probs: dict) -> Check:
    """Chi-square test of the observed lambda histogram, p >= CHI2_MIN_P.

    Partitions of zero probability must never be observed; bins expecting
    fewer than five counts are pooled.
    """
    total = sum(counts.values())
    impossible = sum(counts.get(lam, 0) for lam, p in probs.items() if p < 1e-15)
    unknown = sum(c for lam, c in counts.items() if lam not in probs)
    if total == 0 or impossible or unknown:
        return Check("lambda-chi2", False, f"{total} segments, {impossible + unknown} impossible")
    bins, pooled_obs, pooled_exp = [], 0, 0.0
    for lam, p in probs.items():
        if p < 1e-15:
            continue
        exp = total * p
        if exp < 5:
            pooled_obs += counts.get(lam, 0)
            pooled_exp += exp
        else:
            bins.append((counts.get(lam, 0), exp))
    if pooled_exp > 0:
        bins.append((pooled_obs, pooled_exp))
    stat = sum((o - e) ** 2 / e for o, e in bins)
    df = len(bins) - 1
    pval = chi2_sf(stat, df) if df > 0 else 1.0
    return Check("lambda-chi2", pval >= CHI2_MIN_P, f"chi2 {stat:.2f}, df {df}, p {pval:.3g}, {total} segments")


# ---------------------------------------------------------------------------
# shadow-joint: population_shadow on one Haar-random entangled state
# ---------------------------------------------------------------------------


class ShadowJoint:
    name = "shadow-joint"

    def __init__(self, seed: int, cfg: dict, workdir: str):
        self.seed = seed
        self.cfg = cfg

    def setup(self) -> None:
        cfg = self.cfg
        d, n = cfg["d"], cfg["qudits"]
        root = qudit.RngStream(self.seed)
        self.root = root
        self.t_segments = protocol.segment_count(cfg["epsilon"])
        self.seg_size = n // self.t_segments
        self.basis = basis_mod.build_basis(d, self.seg_size)
        gen = root.child(-5).gen
        amps = gen.standard_normal(d**n) + 1j * gen.standard_normal(d**n)
        amps /= np.linalg.norm(amps)
        self.state = qudit.PureState(d, n, amps)
        self.observables = shadow_observables(d, root.child(-3))

    def prepare_checks(self) -> None:
        d, n = self.cfg["d"], self.cfg["qudits"]
        used = self.t_segments * self.seg_size
        amps = self.state.amplitudes
        marginal = np.zeros((d, d), dtype=np.complex128)
        for q in range(used):
            t = amps.reshape(d**q, d, d ** (n - q - 1))
            marginal += np.einsum("aib,ajb->ij", t, t.conj())
        self.marginal = marginal / used
        self.truth = {k: float(np.trace(o.matrix @ self.marginal).real) for k, o in self.observables.items()}
        self.errors = {k: [] for k in self.observables}
        self.estimates: list[np.ndarray] = []

    def warmup(self) -> None:
        for k in range(self.cfg["warmup"]):
            self.run_op(-10 - k)

    def run_op(self, i: int, lap=no_lap):
        return protocol.population_shadow(self.basis, self.state, self.cfg["epsilon"], self.root.child(i))

    def check_op(self, i, est, error, tally: Tally) -> None:
        if error is not None:
            tally.item("estimate", error, self.t_segments)
            return
        problem = estimate_problem(est, self.cfg["d"], self.t_segments, self.seg_size)
        tally.item("estimate", problem, self.t_segments, wrong=True)
        if problem is None:
            for key, obs in self.observables.items():
                self.errors[key].append(abs(protocol.predict(est, obs) - self.truth[key]))
            self.estimates.append(np.array(est.matrix))

    def check_run(self) -> list[Check]:
        checks = success_checks(self.errors, self.cfg["epsilon"])
        if len(self.estimates) < 2:
            return checks + [Check("marginal-z", False, f"{len(self.estimates)} estimates")]
        z = entrywise_z(np.array(self.estimates), self.marginal)
        bound = family_z(z.size)
        checks.append(Check("marginal-z", float(np.max(z)) <= bound, f"max |z| {np.max(z):.2f} <= {bound:.2f}"))
        return checks

    def report(self) -> dict:
        return {"t_segments": self.t_segments, "segment_size": self.seg_size}


# ---------------------------------------------------------------------------
# basis-cold: build, save, load and verify over a fixed (d, n') grid
# ---------------------------------------------------------------------------


class BasisCold:
    name = "basis-cold"

    def __init__(self, seed: int, cfg: dict, workdir: str):
        self.seed = seed
        self.cfg = cfg
        self.workdir = workdir

    def setup(self) -> None:
        self.grid = [tuple(point) for point in self.cfg["grid"]]

    def prepare_checks(self) -> None:
        self.point_seconds: dict[str, list[float]] = {}

    def run_op(self, i: int, lap=no_lap):
        outdir = tempfile.mkdtemp(prefix="basis-cold-", dir=self.workdir)
        out = []
        try:
            for k, (d, n) in enumerate(self.grid):
                start = perf_counter()
                try:
                    built = basis_mod.build_basis(d, n)
                    path = os.path.join(outdir, basis_mod.cache_file_name(d, n))
                    basis_mod.save_basis(built, path)
                    loaded = basis_mod.load_basis(path)
                    # A fresh stream per pass, so that every pass does the same work.
                    stream = qudit.RngStream(self.seed).child(k)
                    verdict = basis_mod.verify_nice_basis(loaded, stream, trials=self.cfg["trials"])
                    out.append(((d, n), built, loaded, verdict, None, perf_counter() - start))
                except Exception as exc:  # a failing point must not end the pass
                    # Only the name is kept: the traceback would hold this pass's
                    # arrays in a reference cycle until the next cyclic collection.
                    out.append(((d, n), None, None, None, type(exc).__name__, perf_counter() - start))
                lap()
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        return out

    def check_op(self, i, out, error, tally: Tally) -> None:
        if error is not None:
            for d, n in self.grid:
                tally.item(f"d{d}n{n}", error)
            return
        for (d, n), built, loaded, verdict, exc, seconds in out:
            self.point_seconds.setdefault(f"d{d}n{n}", []).append(seconds)
            if exc is not None:
                tally.item(f"d{d}n{n}", exc)
            else:
                problem = verify_problem(verdict) or round_trip_problem(built, loaded)
                tally.item(f"d{d}n{n}", problem, wrong=True)

    def check_run(self) -> list[Check]:
        return []

    def report(self) -> dict:
        return {"point_seconds_median": {k: float(np.median(v)) for k, v in self.point_seconds.items()}}


def verify_problem(verdict: dict) -> str | None:
    if not verdict["vector_count_ok"]:
        return "vector count"
    for key, limit in VERIFY_LIMITS.items():
        if not verdict[key] < limit:
            return f"{key} {verdict[key]:.2e} >= {limit:.0e}"
    return None


def round_trip_problem(built, loaded) -> str | None:
    """None when the loaded basis equals the built one bit for bit."""
    if (built.d, built.n) != (loaded.d, loaded.n) or list(built.blocks) != list(loaded.blocks):
        return "round trip changed the block list"
    for lam, a in built.blocks.items():
        b = loaded.blocks[lam]
        if (a.dim_q, a.dim_p, list(map(tuple, a.weight_of_i))) != (b.dim_q, b.dim_p, list(map(tuple, b.weight_of_i))):
            return f"round trip changed block {lam}"
        if list(a.vectors) != list(b.vectors):
            return f"round trip changed the vector keys of {lam}"
        for key, va in a.vectors.items():
            vb = b.vectors[key]
            if va.indices.tobytes() != vb.indices.tobytes() or va.amplitudes.tobytes() != vb.amplitudes.tobytes():
                return f"round trip changed vector {key} of {lam}"
    return None


# ---------------------------------------------------------------------------
# oracle: exact moments, batched POVM sampling and cap refusals
# ---------------------------------------------------------------------------


def protocol_state(basis, lam, gen: np.random.Generator):
    """Random weight-pure state in the j = 0 block of ``lam``; returns (state, weight)."""
    d, n = basis.d, basis.n
    block = basis.blocks[lam]
    weight = block.weight_of_i[gen.choice(block.dim_q)]
    idx = [i for i, w in enumerate(block.weight_of_i) if w == weight]
    coeff = gen.standard_normal(len(idx)) + 1j * gen.standard_normal(len(idx))
    coeff /= np.linalg.norm(coeff)
    dense = np.zeros(d**n, dtype=np.complex128)
    for c, i in zip(coeff, idx):
        dense += c * block.vectors[(i, 0)].to_dense(d**n)
    return qudit.PureState(d, n, dense).normalized(), weight


def row_product_state(d: int, parts, gen: np.random.Generator) -> qudit.PureState:
    """psi_1^{x lam_1} x psi_2^{x lam_2} ...: row-symmetric for any lam."""
    amps = np.ones(1, dtype=np.complex128)
    for part in parts:
        psi = gen.standard_normal(d) + 1j * gen.standard_normal(d)
        psi /= np.linalg.norm(psi)
        for _ in range(part):
            amps = np.kron(amps, psi)
    return qudit.PureState(d, sum(parts), amps)


@dataclass
class OracleCase:
    d: int
    lam: young.Partition
    tau: qudit.PureState
    weight: tuple[int, ...]
    obs: np.ndarray
    stream_id: int


class Oracle:
    name = "oracle"

    def __init__(self, seed: int, cfg: dict, workdir: str):
        self.seed = seed
        self.cfg = cfg

    def setup(self) -> None:
        root = qudit.RngStream(self.seed)
        self.cases = []
        for d, n in self.cfg["points"]:
            built = basis_mod.build_basis(d, n)
            obs = np.zeros((d, d), dtype=np.complex128)
            obs[0, 0], obs[1, 1] = 1.0, -1.0
            for lam in built.blocks:
                k = len(self.cases)
                tau, weight = protocol_state(built, lam, root.child(-100 - k).gen)
                self.cases.append(OracleCase(d, lam, tau, weight, obs, k))
        self.refusals = [
            (d, young.Partition(parts), row_product_state(d, parts, root.child(-200 - k).gen))
            for k, (d, parts) in enumerate(self.cfg["refusals"])
        ]

    def prepare_checks(self) -> None:
        # Each case compares 2 d^2 first-moment entries and one variance.
        self.z_bound = family_z(sum(2 * c.d**2 + 1 for c in self.cases))
        self.worst_z = 0.0

    def run_op(self, i: int, lap=no_lap):
        cases = []
        for case in self.cases:
            # A fresh stream per pass, so that every pass does the same work.
            stream = qudit.RngStream(self.seed).child(case.stream_id)
            try:
                lam, tau = case.lam, case.tau
                first = moments.expected_shadow_exact(lam, tau)
                # Given the observable, the Monte Carlo comparison calls
                # variance_exact, which computes second_moment_exact; calling
                # either again would only repeat the pass's costliest step.
                mc = moments.mc_shadow_moments(
                    lam, tau, None, self.cfg["samples"], stream, second=False, observable=case.obs
                )
                residual = moments.povm_completeness_residual(lam, case.d)
                cases.append((case, (first, mc, residual), None))
            except Exception as exc:  # one failing case must not end the pass
                cases.append((case, None, type(exc).__name__))
            lap()
        refusals = []
        for d, lam, tau in self.refusals:
            try:
                moments.second_moment_exact(lam, tau)
                problem = "no CapExceededError"
            except qudit.CapExceededError:
                problem = None
            except Exception as exc:
                problem = type(exc).__name__
            refusals.append((f"refuse d{d}.{lam}", problem))
            lap()
        return cases, refusals

    def check_op(self, i, out, error, tally: Tally) -> None:
        if error is not None:
            for case in self.cases:
                tally.item(f"d{case.d}.{case.lam}", error)
            for d, lam, _ in self.refusals:
                tally.item(f"refuse d{d}.{lam}", error)
            return
        cases, refusals = out
        for case, result, exc in cases:
            if exc is not None:
                tally.item(f"d{case.d}.{case.lam}", exc)
            else:
                tally.item(f"d{case.d}.{case.lam}", self._moment_problem(case, result), wrong=True)
        for label, problem in refusals:
            tally.item(label, problem, wrong=True)

    def _moment_problem(self, case: OracleCase, result) -> str | None:
        first, mc, residual = result
        formula = moments.expected_shadow_formula(case.lam, case.weight, None, case.d)
        gap = float(np.max(np.abs(first - formula)))
        if not gap < 1e-9:
            return f"exact vs formula first moment gap {gap:.2e}"
        if not mc["variance_exact"] >= -1e-9:
            return f"negative exact variance {mc['variance_exact']:.2e}"
        if not residual < 1e-9:
            return f"POVM completeness residual {residual:.2e}"
        z = max(mc["first_moment_max_z"], mc["variance_z"])
        self.worst_z = max(self.worst_z, z)
        if not z <= self.z_bound:
            return f"Monte Carlo |z| {z:.2f} > {self.z_bound:.2f}"
        return None

    def check_run(self) -> list[Check]:
        return []

    def report(self) -> dict:
        return {"mc_worst_z": self.worst_z, "z_bound": self.z_bound, "samples": self.cfg["samples"]}


WORKLOADS = {cls.name: cls for cls in (ShadowD4, ShadowJoint, BasisCold, Oracle)}
