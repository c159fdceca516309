"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. All statistical checks
use pinned seeds, so outcomes are reproducible on a fixed platform.

Criterion 5c pins the closed-form variance at O = diag(1, -1), p = q = 2 to
36/7, derived inside the test from the Beta(3, 3) law of the accepted outcome.
The criterion was first stated as 60/7, a value that leaves out the closed
form's diagonal correction term; the test's name records that original value.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    dicke_amplitudes,
    permutation_symmetrizer,
    product_basis_state,
    single_row_variance_quadrature,
)
from schur_shadows.basis import schur_measure, verify_nice_basis
from schur_shadows.moments import (
    expected_shadow_exact,
    expected_shadow_formula,
    mc_povm_completeness,
    mc_shadow_moments,
    povm_completeness_residual,
    second_moment_exact,
    single_row_variance_closed_form,
    variance_exact,
)
from schur_shadows.observables import (
    off_diagonal_observable,
    pauli_z_observable,
    random_projector_observable,
)
from schur_shadows.protocol import (
    MixedState,
    mixed_state_shadow,
    predict,
    sample_population_input,
    shadow_from_population,
)
from schur_shadows.qudit import PureState, RngStream, haar_unitary
from schur_shadows.young import Partition, partitions_of, symmetric_dim
from test_moments import PAULI_X, PAULI_Z, z_threshold


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


ORACLE_LAMBDAS = [(2, lam) for lam in partitions_of(6, 2)] + [(3, lam) for lam in partitions_of(4, 3)]


def test_criterion_1_nice_basis_suite(basis_for):
    """Gram, count, weight purity, and closure residuals for seven (d, n)."""
    start = time.perf_counter()
    worst = {"gram": 0.0, "purity": 0.0, "u": 0.0, "pi": 0.0}
    for d, n in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4)]:
        basis = basis_for(d, n)
        rep = verify_nice_basis(basis)
        assert rep["vector_count_ok"], f"(d={d}, n={n}): vector count != d^n"
        worst["gram"] = max(worst["gram"], rep["gram_deviation"])
        worst["purity"] = max(worst["purity"], rep["weight_purity_violation"])
        worst["u"] = max(worst["u"], rep["u_closure_residual"])
        worst["pi"] = max(worst["pi"], rep["pi_closure_residual"])
    ok = (
        worst["gram"] < 1e-9
        and worst["purity"] < 1e-12
        and worst["u"] < 1e-8
        and worst["pi"] < 1e-8
    )
    report(
        "1 (nice basis)",
        ok,
        f"max gram {worst['gram']:.2e}, purity {worst['purity']:.2e}, "
        f"U-closure {worst['u']:.2e}, pi-closure {worst['pi']:.2e}, "
        f"{time.perf_counter() - start:.1f}s",
    )
    assert ok


def test_criterion_2_young_symmetrizer_properties():
    from oracles import young_symmetrizer_apply
    from oracles import weight_of
    from schur_shadows.young import majorizes
    from test_young import dense_symmetrizer

    start = time.perf_counter()
    # vanishing under non-majorization: 200 random cases
    gen = RngStream(2_001).gen
    checked = 0
    max_norm = 0.0
    while checked < 200:
        n = int(gen.integers(2, 6))
        d = int(gen.integers(2, 4))
        lams = partitions_of(n, d)
        lam = lams[int(gen.integers(0, len(lams)))]
        digits = tuple(int(x) for x in gen.integers(0, d, size=n))
        if majorizes(lam, weight_of(digits, d)):
            continue
        out = young_symmetrizer_apply(lam, PureState.from_digits(digits, d))
        max_norm = max(max_norm, float(np.linalg.norm(out.amplitudes)))
        checked += 1
    vanish_ok = max_norm < 1e-10

    # idempotence up to a positive scalar, full space, n <= 5, d <= 3
    max_rel = 0.0
    for d in (2, 3):
        for n in range(2, 6):
            for lam in partitions_of(n, d):
                mat = dense_symmetrizer(lam, d)
                alpha = float(np.sum((mat @ mat) * mat) / np.linalg.norm(mat) ** 2)
                assert alpha > 0
                max_rel = max(
                    max_rel, float(np.linalg.norm(mat @ mat - alpha * mat) / np.linalg.norm(mat))
                )
    proj_ok = max_rel < 1e-8

    # lexicographically largest admissible weight space has rank exactly 1
    rank_ok = True
    from oracles import digit_tuples_brute_force, weights_brute_force

    for d, n in [(2, 5), (3, 4)]:
        for lam in partitions_of(n, d):
            target = lam.padded(d)
            for w in weights_brute_force(n, d):
                cols = [
                    young_symmetrizer_apply(lam, PureState.from_digits(e, d)).amplitudes
                    for e in digit_tuples_brute_force(w)
                ]
                svals = np.linalg.svd(np.stack(cols, axis=1), compute_uv=False)
                rank = int(np.sum(svals > 1e-9 * max(svals[0], 1e-30)))
                if w == target:
                    rank_ok &= rank == 1
                    break
                rank_ok &= rank == 0
    ok = vanish_ok and proj_ok and rank_ok
    report(
        "2 (young symmetrizer)",
        ok,
        f"vanish max norm {max_norm:.2e}, projector rel residual {max_rel:.2e}, "
        f"rank-1 lex-largest {rank_ok}, {time.perf_counter() - start:.1f}s",
    )
    assert ok


def test_criterion_3_povm_completeness():
    start = time.perf_counter()
    max_residual = 0.0
    max_z = 0.0
    entries = 0
    for lam in partitions_of(4, 3):
        max_residual = max(max_residual, povm_completeness_residual(lam, 3))
        mc = mc_povm_completeness(lam, 3, 100_000, RngStream(3_000 + lam.parts[0]))
        max_z = max(max_z, mc["max_abs_z"])
        entries = mc["entries"]
    # "within 3 sigma" across 13k entry statistics: familywise threshold at
    # the 3-sigma tail mass (the plain per-entry bound is expected to be
    # exceeded by correct code at this multiplicity)
    threshold = z_threshold(entries, 3.0)
    ok = max_residual < 1e-9 and max_z <= threshold
    report(
        "3 (povm completeness)",
        ok,
        f"exact residual {max_residual:.2e}, MC max |z| {max_z:.2f} "
        f"(threshold {threshold:.2f} for {entries} stats), {time.perf_counter() - start:.1f}s",
    )
    assert ok


def test_criterion_4_unbiasedness(protocol_state_for):
    start = time.perf_counter()
    max_gap = 0.0
    max_z = 0.0
    for d, lam in ORACLE_LAMBDAS:
        for rep in range(10):
            tau, weight = protocol_state_for(lam, d, 4_000 + 97 * rep)
            unitary = haar_unitary(d, RngStream(4_500 + rep))
            exact = expected_shadow_exact(lam, tau, unitary)
            formula = expected_shadow_formula(lam, weight, unitary, d)
            max_gap = max(max_gap, float(np.max(np.abs(exact - formula))))
        tau, weight = protocol_state_for(lam, d, 4_999)
        unitary = haar_unitary(d, RngStream(4_600))
        mc = mc_shadow_moments(lam, tau, unitary, 10_000, RngStream(4_700), second=False)
        max_z = max(max_z, mc["first_moment_max_z"])
    ok = max_gap < 1e-9 and max_z <= 4.0
    report(
        "4 (unbiasedness)",
        ok,
        f"exact-vs-formula max gap {max_gap:.2e}, MC max |z| {max_z:.2f} at 1e4 runs, "
        f"{time.perf_counter() - start:.1f}s",
    )
    assert ok


def test_criterion_5a_variance_matches_monte_carlo(protocol_state_for):
    start = time.perf_counter()
    worst = 0.0
    cases = [
        (2, Partition((4,)), PAULI_Z, 100_000),
        (2, Partition((3, 1)), PAULI_X, 50_000),
        (3, Partition((2, 2)), None, 30_000),
    ]
    for d, lam, obs, samples in cases:
        if obs is None:
            obs = np.zeros((d, d), dtype=complex)
            obs[0, 0], obs[1, 1] = 1.0, -1.0
        tau, _ = protocol_state_for(lam, d, 5_100 + lam.n)
        mc = mc_shadow_moments(
            lam, tau, None, samples, RngStream(5_200 + lam.n), second=False, observable=obs
        )
        worst = max(worst, mc["variance_z"])
    ok = worst <= 4.0
    report(
        "5a (variance vs MC)",
        ok,
        f"max variance z {worst:.2f} over {len(cases)} instances, {time.perf_counter() - start:.1f}s",
    )
    assert ok


def test_criterion_5b_variance_matches_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        for p in range(n + 1):
            q = n - p
            tau = PureState(2, n, dicke_amplitudes(p, q))
            for obs in (PAULI_Z, PAULI_X):
                exact = variance_exact(Partition((n,)), tau, None, obs)
                closed = single_row_variance_closed_form(obs, p, q, 2)
                quad = single_row_variance_quadrature(obs, p, q)
                worst = max(worst, abs(exact - closed), abs(closed - quad))
    ok = worst < 1e-8
    report(
        "5b (closed form, p+q <= 6)",
        ok,
        f"max |exact - closed| and |closed - quadrature| = {worst:.2e}, "
        f"{time.perf_counter() - start:.1f}s",
    )
    assert ok


def test_criterion_5c_literal_sixty_sevenths():
    """Literal variance for O = diag(1, -1), p = q = 2, d = 2: exactly 36/7.

    On the Dicke state D(2, 2) the single-row POVM for lambda = (4) accepts
    psi with t = |<0|psi>|^2 ~ Beta(p + 1, q + 1) = Beta(3, 3), and
    tr(O Psi) = (n + d) <psi|O|psi> = 6 (2t - 1), whose mean is 0. Hence
    Var = 36 * 4 * Var(t) = 144 * 9 / (36 * 7) = 36/7. The closed form, the
    exact swap-identity oracle and the Beta-integral quadrature must each give
    this value to 1e-8, and a seeded Monte Carlo run must agree with the oracle.

    The criterion was first stated as 60/7 (the test's name records it). That
    is (6/7) * (tr O^2 + 2p (O^2)_00 + 2q (O^2)_11) = (6/7) * 10, the closed
    form with its diagonal correction -p O_00^2 - q O_11^2 left out.
    """
    start = time.perf_counter()
    p, q, d = 2, 2, 2
    n = p + q
    a, b = Fraction(p + 1), Fraction(q + 1)
    var_t = a * b / ((a + b) ** 2 * (a + b + 1))
    target = Fraction(n + d) ** 2 * 4 * var_t
    assert target == Fraction(36, 7)

    closed = single_row_variance_closed_form(PAULI_Z, p, q, d)
    tau = PureState(d, n, dicke_amplitudes(p, q))
    exact = variance_exact(Partition((n,)), tau, None, PAULI_Z)
    quad = single_row_variance_quadrature(PAULI_Z, p, q)
    mc = mc_shadow_moments(
        Partition((n,)), tau, None, 100_000, RngStream(5_300), second=False, observable=PAULI_Z
    )
    gaps = [abs(value - float(target)) for value in (closed, exact, quad)]
    ok = max(gaps) < 1e-8 and mc["variance_z"] <= 4.0
    report(
        "5c (literal 36/7)",
        ok,
        f"closed form {closed:.9f}, exact oracle {exact:.9f}, quadrature {quad:.9f}, "
        f"MC {mc['variance_mc']:.4f} (z {mc['variance_z']:.2f} at 1e5 runs) "
        f"vs 36/7 = {float(target):.9f}, {time.perf_counter() - start:.1f}s",
    )
    assert ok


def test_criterion_5d_cross_term_lower_bound():
    start = time.perf_counter()
    values = {}
    ok = True
    for n in (4, 6, 8):
        val = single_row_variance_closed_form(PAULI_X, n // 2, n // 2, 2) / n**2
        values[n] = val
        ok &= val >= 0.4
    report(
        "5d (cross-term Var/n^2 >= 0.4)",
        ok,
        ", ".join(f"n={n}: {v:.3f}" for n, v in values.items())
        + f", {time.perf_counter() - start:.1f}s",
    )
    assert ok


def test_criterion_6_variance_upper_bound(protocol_state_for):
    start = time.perf_counter()
    fitted = 0.0
    count = 0
    for d, lam in ORACLE_LAMBDAS:
        tau, _ = protocol_state_for(lam, d, 6_000 + lam.n)
        second = second_moment_exact(lam, tau, None)
        first = expected_shadow_exact(lam, tau, None, validate=False)
        observables = [
            pauli_z_observable(d).matrix,
            off_diagonal_observable(d).matrix,
            random_projector_observable(d, max(1, d // 2), RngStream(6_500)).matrix,
        ]
        n = lam.n
        for obs in observables:
            shifted = obs - np.trace(obs) / d * np.eye(d)
            var = float(
                (np.trace(np.kron(obs, obs) @ second) - np.trace(obs @ first) ** 2).real
            )
            base = 2 * lam.k * float(np.trace(shifted @ shifted).real)
            sq_norm = float(np.max(np.abs(np.linalg.eigvalsh(shifted @ shifted))))
            inf_norm = float(np.max(np.abs(np.linalg.eigvalsh(shifted))))
            denom = n * sq_norm + n**2 * inf_norm**2
            fitted = max(fitted, (var - base) / denom)
            count += 1
    fitted = max(fitted, 0.0)
    ok = fitted <= 4.0
    report(
        "6 (variance upper bound)",
        ok,
        f"fitted c1 = c2 = {fitted:.3f} over {count} instances (bound 4), "
        f"{time.perf_counter() - start:.1f}s",
    )
    assert ok


def test_criterion_7_partition_rank_guarantee(basis_for):
    start = time.perf_counter()
    d, n = 3, 4
    basis = basis_for(d, n)
    ok = True
    for r in (1, 2, 3):
        symbols = list(range(r))
        gen = RngStream(7_000 + r).gen
        runs = 1_000
        for t in range(runs):
            digits = tuple(int(gen.choice(symbols)) for _ in range(n))
            if len(set(digits)) < r:  # force exactly r symbols where possible
                digits = tuple(symbols + [int(gen.choice(symbols)) for _ in range(n - r)])
            unitary = haar_unitary(d, RngStream(7_100 + r).child(t))
            state = product_basis_state(unitary, digits, d)
            lam, _j, _tau = schur_measure(basis, state.amplitudes, RngStream(7_200 + r).child(t))
            ok &= lam.k <= r
    report("7 (partition rank)", ok, f"3000 runs, d=3, r in 1..3, {time.perf_counter() - start:.1f}s")
    assert ok


def test_criterion_8_end_to_end_shadow_task():
    start = time.perf_counter()
    d, rank, eps, seg_size, trials = 4, 2, 0.35, 3, 200
    rng = RngStream(8_000)
    chi = MixedState.random(d, rank, rng.child(-2))
    observables = {
        "pauli-z": pauli_z_observable(d),
        "off-diagonal": off_diagonal_observable(d),
        "projector": random_projector_observable(d, d // 2, rng.child(-3)),
    }
    from schur_shadows.protocol import segment_count

    t_pop = segment_count(eps / 2.0)
    n_copies = t_pop * seg_size
    estimates = [
        mixed_state_shadow(chi, n_copies, eps, rng.child(trial))
        for trial in range(trials)
    ]
    rho = chi.density()
    ok = True
    details = []
    for name, obs in observables.items():
        truth = float(np.trace(obs.matrix @ rho).real)
        errors = [abs(predict(est, obs) - truth) for est in estimates]
        fraction = float(np.mean([e <= eps for e in errors]))
        ok &= fraction > 2.0 / 3.0
        details.append(f"{name}: {fraction:.3f}")
    report(
        "8 (end-to-end, d=4, r=2, eps=0.35)",
        ok,
        f"success fractions {', '.join(details)} over {trials} trials "
        f"(n = {n_copies}, T = {t_pop}), {time.perf_counter() - start:.1f}s",
    )
    assert ok


def test_criterion_9_scaling_sanity():
    start = time.perf_counter()
    d, rank, seg_size, trials = 2, 2, 3, 250
    rng = RngStream(9_000)
    chi = MixedState.random(d, rank, rng.child(-2))
    obs = off_diagonal_observable(d)
    truth = float(np.trace(obs.matrix @ chi.density()).real)
    means = []
    for t_idx, t_segments in enumerate((4, 16, 64)):
        errors = []
        for trial in range(trials):
            sub = rng.child(1_000 * t_idx + trial)
            unitary, digits = sample_population_input(chi, t_segments * seg_size, sub.child(-1))
            est = shadow_from_population(unitary, digits, t_segments, seg_size, sub)
            errors.append(abs(predict(est, obs) - truth))
        means.append(float(np.mean(errors)))
    decreasing = means[0] > means[1] > means[2]
    # 1/sqrt(T) predicts a ratio of 2 per step; allow a factor of 2 slack
    ratios = [means[0] / means[1], means[1] / means[2]]
    ratio_ok = all(1.0 <= r <= 4.0 for r in ratios)

    # rank-1 degeneration: single-row moments equal the plain symmetric
    # subspace POVM moments computed from one global symmetrizer
    n = 4
    tau = PureState.from_digits((0,) * n, 2)
    lam = Partition((n,))
    first = expected_shadow_exact(lam, tau)
    second = second_moment_exact(lam, tau)
    big = np.kron(np.eye(4, dtype=complex), np.outer(tau.amplitudes, tau.amplitudes.conj()))
    global_sym = permutation_symmetrizer(2, n + 2, range(n + 2))
    coeff = (n + 2) ** 2 * symmetric_dim(n, 2) / symmetric_dim(n + 2, 2)
    direct_second = coeff * np.einsum(
        "arbr->ab",
        (global_sym @ big).reshape(4, 2**n, 4, 2**n),
    )
    degeneration_gap = float(np.max(np.abs(second - direct_second)))
    first_gap = float(np.max(np.abs(first - (np.eye(2) + n * np.diag([1.0, 0.0])))))
    degeneration_ok = degeneration_gap < 1e-9 and first_gap < 1e-9

    ok = decreasing and ratio_ok and degeneration_ok
    report(
        "9 (scaling sanity)",
        ok,
        f"mean |error| at T=4,16,64: {means[0]:.4f}, {means[1]:.4f}, {means[2]:.4f}; "
        f"ratios {ratios[0]:.2f}, {ratios[1]:.2f} (want within [1, 4]); "
        f"rank-1 degeneration gap {degeneration_gap:.2e}, {time.perf_counter() - start:.1f}s",
    )
    assert ok
