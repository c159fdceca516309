import numpy as np
import pytest

from oracles import (
    dicke_amplitudes,
    permutation_symmetrizer,
    second_moment_dense,
    single_row_first_moment_quadrature,
    single_row_second_moment_quadrature,
    single_row_variance_quadrature,
)
from schur_shadows.moments import (
    MomentReport,
    single_row_variance_closed_form,
    expected_shadow_exact,
    expected_shadow_formula,
    mc_povm_completeness,
    mc_shadow_moments,
    povm_completeness_residual,
    row_symmetric_projector,
    row_symmetry_residual,
    second_moment_exact,
    variance_exact,
)
from schur_shadows.qudit import CapExceededError, PureState, RngStream, digit_table, haar_unitary
from schur_shadows.young import Partition, SlotClasses, partitions_of

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def z_threshold(num_stats: int, sigma: float) -> float:
    """Familywise threshold: the per-test quantile whose union bound gives
    the same tail mass as a single sigma-level test."""
    from statistics import NormalDist

    dist = NormalDist()
    tail = 2 * (1 - dist.cdf(sigma))
    return dist.inv_cdf(1 - tail / (2 * num_stats))


class TestFirstMoment:
    def test_all_zeros_single_row(self):
        for n in (2, 3, 4):
            lam = Partition((n,))
            tau = PureState.from_digits((0,) * n, 2)
            out = expected_shadow_exact(lam, tau)
            assert np.allclose(out, np.diag([n + 1.0, 1.0]), atol=1e-10)

    def test_hook_instance(self, basis_for):
        basis = basis_for(2, 3)
        lam = Partition((2, 1))
        block = basis.blocks[lam]
        i = block.weight_of_i.index((1, 2))
        tau = PureState(2, 3, block.vectors[(i, 0)].to_dense(8))
        out = expected_shadow_exact(lam, tau)
        assert np.allclose(out, np.diag([3.0, 4.0]), atol=1e-10)

    def test_unitary_covariance(self, protocol_state_for):
        lam = Partition((2, 1))
        tau, weight = protocol_state_for(lam, 2, 41)
        u = haar_unitary(2, RngStream(42))
        at_u = expected_shadow_exact(lam, tau, u)
        at_id = expected_shadow_exact(lam, tau, None)
        assert np.max(np.abs(at_u - u.entries @ at_id @ u.entries.conj().T)) < 1e-9

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (3, 3), (3, 4), (3, 5)])
    def test_matches_closed_form_on_protocol_states(self, protocol_state_for, d, n):
        rng = RngStream(43)
        for lam in partitions_of(n, d):
            for rep in range(3):
                tau, weight = protocol_state_for(lam, d, 1000 + 17 * rep + hash(lam.parts) % 97)
                u = haar_unitary(d, rng.child(rep))
                exact = expected_shadow_exact(lam, tau, u)
                formula = expected_shadow_formula(lam, weight, u, d)
                assert np.max(np.abs(exact - formula)) < 1e-9

    def test_rejects_non_row_symmetric_state(self):
        with pytest.raises(ValueError, match="row-symmetric"):
            expected_shadow_exact(Partition((2,)), PureState.from_digits((0, 1), 2))


class TestSecondMoment:
    def test_hermitian(self, protocol_state_for):
        lam = Partition((2, 1))
        tau, _ = protocol_state_for(lam, 2, 44)
        second = second_moment_exact(lam, tau)
        assert np.max(np.abs(second - second.conj().T)) < 1e-10

    @pytest.mark.parametrize("p,q", [(2, 0), (1, 1), (2, 1), (2, 2), (3, 1)])
    def test_single_row_matches_quadrature(self, p, q):
        n = p + q
        lam = Partition((n,))
        tau = PureState(2, n, dicke_amplitudes(p, q))
        second = second_moment_exact(lam, tau)
        first = expected_shadow_exact(lam, tau)
        for obs in (PAULI_Z, PAULI_X, np.array([[0.5, 0.3 - 0.2j], [0.3 + 0.2j, -0.1]])):
            got2 = float(np.trace(np.kron(obs, obs) @ second).real)
            want2 = single_row_second_moment_quadrature(obs, p, q)
            assert got2 == pytest.approx(want2, abs=1e-9)
            got1 = float(np.trace(obs @ first).real)
            assert got1 == pytest.approx(single_row_first_moment_quadrature(obs, p, q), abs=1e-9)

    def test_pure_symmetric_scaled_variance_decreases(self):
        prev = None
        for n in range(2, 5):
            tau = PureState.from_digits((0,) * n, 2)
            var = variance_exact(Partition((n,)), tau, None, PAULI_Z)
            scaled = var / n**2
            if prev is not None:
                assert scaled < prev
            prev = scaled

    def test_register_classes_are_built_once(self, monkeypatch, protocol_state_for):
        # Every slot set's classes come from one cache, shared read-only
        # across calls.
        from schur_shadows import moments

        lam, d = Partition((2, 1)), 3
        tau, _ = protocol_state_for(lam, d, 940)
        seen = []
        real = moments.register_classes
        monkeypatch.setattr(moments, "register_classes", lambda *args: seen.append(real(*args)) or seen[-1])
        first = second_moment_exact(lam, tau)
        calls = len(seen)
        second = second_moment_exact(lam, tau)
        assert calls > 1 and len(seen) == 2 * calls
        assert all(a is b for a, b in zip(seen[:calls], seen[calls:]))
        for classes in seen:
            for arr in (classes.inverse, classes.counts, classes.order, classes.starts):
                assert not arr.flags.writeable
        np.testing.assert_array_equal(first, second)

    def test_dim_cap(self):
        tau = PureState.from_digits((0,) * 8, 3)
        with pytest.raises(CapExceededError):
            second_moment_exact(Partition((8,)), tau)

    def test_dim_cap_checked_before_row_symmetry(self):
        # an over-cap state outside the row-symmetric subspace is refused for
        # its size, before any validation work starts
        tau = PureState.from_digits((0, 1) + (0,) * 6, 3)
        with pytest.raises(CapExceededError):
            second_moment_exact(Partition((8,)), tau)

    @pytest.mark.parametrize(
        "d,n", [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)] + [(4, n) for n in range(1, 4)]
    )
    def test_matches_dense_reference(self, d, n, protocol_state_for):
        # The dense reference multiplies d^(n+2)-square symmetrizers built
        # from slot permutations. Its "all" sum is the "cross" sum plus the
        # "diagonal" sum term by term (test_row_split_sums_to_total).
        haar = haar_unitary(d, RngStream(930 + d))
        for lam in partitions_of(n, d):
            tau, _ = protocol_state_for(lam, d, 931)
            for unitary in (None, haar):
                want = second_moment_dense(lam, tau, unitary, "all")
                got = second_moment_exact(lam, tau, unitary)
                assert np.max(np.abs(got - want)) < 1e-12, (lam, unitary is None)


class TestVariance:
    def test_zero_observable(self):
        tau = PureState(2, 4, dicke_amplitudes(2, 2))
        assert variance_exact(Partition((4,)), tau, None, np.zeros((2, 2))) == 0.0

    def test_sign_invariance(self):
        tau = PureState(2, 4, dicke_amplitudes(3, 1))
        lam = Partition((4,))
        assert variance_exact(lam, tau, None, PAULI_X) == pytest.approx(
            variance_exact(lam, tau, None, -PAULI_X), abs=1e-10
        )

    def test_balanced_pauli_z_value(self):
        # three independent routes agree: swap-identity oracle, closed form,
        # and exact quadrature; the value is 36/7 at n = 4, p = q = 2
        tau = PureState(2, 4, dicke_amplitudes(2, 2))
        exact = variance_exact(Partition((4,)), tau, None, PAULI_Z)
        closed = single_row_variance_closed_form(PAULI_Z, 2, 2, 2)
        quad = single_row_variance_quadrature(PAULI_Z, 2, 2)
        assert exact == pytest.approx(36.0 / 7.0, abs=1e-9)
        assert closed == pytest.approx(36.0 / 7.0, abs=1e-12)
        assert quad == pytest.approx(36.0 / 7.0, abs=1e-12)

    def test_matches_monte_carlo(self, protocol_state_for):
        lam = Partition((3, 1))
        tau, _ = protocol_state_for(lam, 2, 45)
        report = mc_shadow_moments(lam, tau, None, 20_000, RngStream(46), second=False, observable=PAULI_Z)
        assert report["variance_z"] <= 4.0

    def test_cross_term_bound(self, protocol_state_for):
        # tr((O x O) S_cross) <= tr(O E[Psi])^2 + c n^2 ||O||_inf^2 with c <= 4
        fitted = 0.0
        for d, parts in [(2, (3, 1)), (2, (2, 2)), (3, (2, 1, 1)), (3, (2, 2))]:
            lam = Partition(parts)
            tau, _ = protocol_state_for(lam, d, 52 + lam.n)
            cross = second_moment_dense(lam, tau, None, "cross")
            first = expected_shadow_exact(lam, tau, None, validate=False)
            for obs in (PAULI_Z, PAULI_X):
                full = np.zeros((d, d), dtype=complex)
                full[:2, :2] = obs
                lhs = float(np.trace(np.kron(full, full) @ cross).real)
                base = float(np.trace(full @ first).real) ** 2
                inf_norm = float(np.max(np.abs(np.linalg.eigvalsh(full))))
                fitted = max(fitted, (lhs - base) / (lam.n**2 * inf_norm**2))
        assert fitted <= 4.0

    def test_row_split_sums_to_total(self, protocol_state_for):
        # The dense reference's cross and diagonal row pairs sum to its total
        # and to the package's.
        lam = Partition((2, 1))
        tau, _ = protocol_state_for(lam, 2, 53)
        total = second_moment_exact(lam, tau)
        split = second_moment_dense(lam, tau, None, "cross") + second_moment_dense(lam, tau, None, "diagonal")
        assert np.max(np.abs(second_moment_dense(lam, tau, None, "all") - split)) < 1e-12
        assert np.max(np.abs(total - split)) < 1e-12


class TestClosedForm:
    def test_requires_traceless(self):
        with pytest.raises(ValueError, match="traceless"):
            single_row_variance_closed_form(np.diag([1.0, 0.0]), 1, 1, 2)

    @pytest.mark.parametrize("p,q", [(1, 0), (3, 0), (0, 2)])
    def test_one_symbol_reduces_to_pure_case(self, p, q):
        n = p + q
        tau = PureState(2, n, dicke_amplitudes(p, q))
        for obs in (PAULI_Z, PAULI_X):
            closed = single_row_variance_closed_form(obs, p, q, 2)
            exact = variance_exact(Partition((n,)), tau, None, obs)
            assert closed == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    def test_matches_exact_and_quadrature(self, p, q):
        tau = PureState(2, p + q, dicke_amplitudes(p, q))
        for obs in (PAULI_Z, PAULI_X):
            closed = single_row_variance_closed_form(obs, p, q, 2)
            exact = variance_exact(Partition((p + q,)), tau, None, obs)
            quad = single_row_variance_quadrature(obs, p, q)
            assert closed == pytest.approx(exact, abs=1e-8)
            assert closed == pytest.approx(quad, abs=1e-8)

    def test_off_diagonal_cross_term_dominates(self):
        # Var / n^2 approaches 1/2 for the off-diagonal observable
        for n in (4, 6, 8):
            val = single_row_variance_closed_form(PAULI_X, n // 2, n // 2, 2)
            assert val / n**2 > 0.4
        assert single_row_variance_closed_form(PAULI_X, 20, 20, 2) / 1600 == pytest.approx(
            0.5, abs=0.06
        )

    def test_d3_embedding_matches_exact(self):
        obs = np.zeros((3, 3), dtype=complex)
        obs[0, 0], obs[1, 1] = 1.0, -1.0
        p, q = 2, 1
        amps = np.zeros(27, dtype=complex)
        from oracles import encode_basis

        for digits in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            amps[encode_basis(digits, 3)] = 1.0
        amps /= np.linalg.norm(amps)
        tau = PureState(3, 3, amps)
        closed = single_row_variance_closed_form(obs, p, q, 3)
        exact = variance_exact(Partition((3,)), tau, None, obs)
        assert closed == pytest.approx(exact, abs=1e-9)


class TestPovmCompleteness:
    @pytest.mark.parametrize(
        "parts,d",
        [((2,), 2), ((2, 1), 2), ((1, 1, 1), 3), ((3, 1), 3), ((2, 2), 2)],
    )
    def test_exact_residual(self, parts, d):
        assert povm_completeness_residual(Partition(parts), d) < 1e-12

    @pytest.mark.parametrize(
        "d,m,slots", [(2, 4, (0, 1, 2, 3)), (2, 5, (1, 3, 4)), (3, 4, (0, 2)), (3, 3, (2,)), (4, 3, (0, 1, 2))]
    )
    def test_slot_class_mean_is_permutation_average(self, d, m, slots):
        got = SlotClasses(digit_table(d, m), d, [slots]).mean(np.eye(d**m))
        assert np.max(np.abs(got - permutation_symmetrizer(d, m, slots))) < 1e-14

    def test_trivial_rows_give_identity(self):
        proj = row_symmetric_projector(Partition((1, 1, 1)), 3)
        assert np.allclose(proj, np.eye(27))

    def test_monte_carlo(self):
        lam = Partition((2, 1))
        report = mc_povm_completeness(lam, 2, 20_000, RngStream(47))
        assert report["max_abs_z"] <= z_threshold(report["entries"], 3.0)


class TestMcShadowMoments:
    def test_first_and_second_consistency(self, protocol_state_for):
        lam = Partition((2, 2))
        tau, _ = protocol_state_for(lam, 2, 48)
        u = haar_unitary(2, RngStream(49))
        report = mc_shadow_moments(lam, tau, u, 20_000, RngStream(50), second=True)
        assert report["first_moment_max_z"] <= 4.0
        assert report["second_moment_max_z"] <= z_threshold(2 * 16 * 16, 4.0)

    def test_row_symmetry_residual_gate(self):
        assert row_symmetry_residual(Partition((2,)), PureState.from_digits((0, 0), 2)) < 1e-14
        bad = PureState.from_digits((0, 1), 2)
        assert row_symmetry_residual(Partition((2,)), bad) > 0.5

    @pytest.mark.parametrize("parts,d", [((2, 1), 2), ((3, 2), 2), ((2, 2), 3), ((2, 1, 1), 3)])
    def test_row_symmetry_residual_matches_projector(self, parts, d):
        lam = Partition(parts)
        gen = RngStream(932).gen
        proj = row_symmetric_projector(lam, d)
        for _ in range(3):
            amps = gen.standard_normal(d**lam.n) + 1j * gen.standard_normal(d**lam.n)
            tau = PureState(d, lam.n, amps / np.linalg.norm(amps))
            want = np.linalg.norm(proj @ tau.amplitudes - tau.amplitudes)
            assert row_symmetry_residual(lam, tau) == pytest.approx(want, abs=1e-12)
            inside = PureState(d, lam.n, proj @ tau.amplitudes).normalized()
            assert row_symmetry_residual(lam, inside) < 1e-12

    def test_row_symmetry_residual_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            row_symmetry_residual(Partition((2, 1)), PureState.from_digits((0, 0), 2))


class TestMomentReport:
    def test_jsonable(self, protocol_state_for):
        lam = Partition((2, 1))
        tau, _ = protocol_state_for(lam, 2, 51)
        first = expected_shadow_exact(lam, tau)
        second = second_moment_exact(lam, tau)
        var = variance_exact(lam, tau, None, PAULI_Z)
        report = MomentReport(lam, 2, first, second, var, {"samples": 0})
        payload = report.to_jsonable()
        assert payload["schema_version"] == 1
        assert payload["partition"] == [2, 1]
        assert report.hermiticity_deviation() < 1e-10
