import itertools
import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    block_probabilities,
    chi2_sf,
    chi_square,
    dense_basis_matrix,
    dense_stage1,
    dicke_map_brute_force,
    encode_basis,
    lambda_given_weight,
    population_shadow_dense,
    product_basis_state,
    random_basis_shadow,
    rotated,
    schur_weyl_distribution,
    semistandard_tableaux_count,
    standard_tableaux_count,
    weight_of,
    weights_brute_force,
)
from schur_shadows.basis import (
    ImageBlock,
    SchurBasis,
    SpanExtractionError,
    build_q_bases,
    schur_basis_completion,
    schur_measure,
    verify_nice_basis,
)
from schur_shadows.moments import (
    _EntrywiseStats,
    expected_shadow_exact,
    mc_povm_completeness,
    mc_shadow_moments,
    random_protocol_state,
    second_moment_exact,
)
from schur_shadows import basis as basis_module
from schur_shadows.observables import off_diagonal_observable
from schur_shadows import protocol, young
from schur_shadows.protocol import (
    _CHUNK_ENTRIES,
    MixedState,
    Observable,
    RejectionBudgetError,
    _dicke_map,
    _dicke_tensor,
    _product_table,
    _product_table_bytes,
    _povm_sample,
    _RowLaw,
    _segment_factor,
    baseline_single_copy_shadow,
    median_of_means,
    mixed_state_shadow,
    population_shadow,
    predict,
    row_symmetric_sample_batch,
    sample_population_input,
    segment_count,
    shadow_from_population,
    shadow_matrix,
    ShadowEstimate,
)
from schur_shadows.qudit import (
    MAX_DENSE_DIM,
    CapExceededError,
    OperatorGrid,
    PureState,
    RngStream,
    apply_local_unitary,
    haar_unitary,
)
from schur_shadows.young import (
    Partition,
    kappa_product,
    partitions_of,
    register_classes,
    symmetric_dim,
    weight_classes,
)
from test_moments import z_threshold

#: The sampler's moment-oracle gate: every lam of n <= 5 with at most d rows
#: at d = 2 and 3, and every lam of 3 at d = 4.
SAMPLER_GATE = [(d, lam) for d in (2, 3) for n in range(1, 6) for lam in partitions_of(n, d)] + [
    (4, lam) for lam in partitions_of(3, 4)
]


def make_observable(matrix, bound=None):
    mat = np.asarray(matrix, dtype=complex)
    if bound is None:
        bound = float(np.trace(mat @ mat).real)
    return Observable(mat, bound)


def weight_vector(lam, d, i):
    """The (lam, i, 0) vector of the nice basis: a weight vector."""
    _, vectors = dense_stage1(build_q_bases(d, lam.n)[lam], d**lam.n)
    return PureState(d, lam.n, vectors[i])


def rank_one_row(m, rng):
    """(U|0>)^{x m} at d = 2 for a Haar U: a row of rank 1 with all Dicke weights nonzero."""
    psi = haar_unitary(2, rng).entries[:, 0]
    amps = np.ones(1, dtype=complex)
    for _ in range(m):
        amps = np.kron(amps, psi)
    return PureState(2, m, amps)


def first_row_bound(lam, tau):
    """The proposal bound M of the sampler's first row on tau."""
    return _RowLaw.row_one(lam, tau.d, tau.amplitudes.reshape(1, -1, 1)).bound[0]


def traced_peak(call):
    """Peak bytes that ``call()`` allocates through numpy and Python."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMixedState:
    def test_random_is_valid(self):
        chi = MixedState.random(4, 2, RngStream(60))
        assert chi.rank == 2
        assert np.all(chi.eigenvalues[2:] == 0)
        assert chi.eigenvalues.sum() == pytest.approx(1.0, abs=1e-12)
        rho = chi.density()
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            MixedState(2, np.array([0.4, 0.6]), OperatorGrid(np.eye(2)), 2)  # not sorted
        with pytest.raises(ValueError):
            MixedState(2, np.array([0.9, 0.2]), OperatorGrid(np.eye(2)), 2)  # sum != 1
        with pytest.raises(ValueError):
            MixedState(2, np.array([0.6, 0.4]), OperatorGrid(np.eye(2)), 1)  # rank lie

    def test_refuses_non_finite_or_non_unitary_input(self):
        # Each of these used to be accepted and to fail only later, in
        # sampling or in the product shadow.
        with pytest.raises(ValueError, match="finite"):
            MixedState(2, np.array([np.nan, 0.0]), OperatorGrid(np.eye(2)), 1)
        with pytest.raises(ValueError, match="unitary"):
            MixedState(2, np.array([1.0, 0.0]), OperatorGrid(np.array([[1.0, 1.0], [0.0, 1.0]])), 1)
        with pytest.raises(ValueError, match="unitary"):
            MixedState(2, np.array([1.0, 0.0]), OperatorGrid(np.full((2, 2), np.nan)), 1)
        with pytest.raises(ValueError, match="unitary"):
            MixedState(2, np.array([1.0, 0.0]), OperatorGrid((1 + 1e-8) * np.eye(2)), 1)
        MixedState(2, np.array([1.0, 0.0]), OperatorGrid((1 + 1e-12) * np.eye(2)), 1)


class TestObservable:
    def test_rejects_large_spectral_norm(self):
        with pytest.raises(ValueError, match="spectral"):
            Observable(np.diag([2.0, 0.0]).astype(complex), 10.0)

    def test_rejects_frobenius_violation(self):
        with pytest.raises(ValueError, match="exceeds declared bound"):
            Observable(np.diag([1.0, -1.0]).astype(complex), 1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Observable(np.array([[0.0, 1.0], [0.0, 0.0]]), 2.0)

    def test_rejects_non_finite_entries_and_bound(self):
        with pytest.raises(ValueError, match="entries must be finite"):
            Observable(np.diag([np.nan, -1.0]), 2.0)
        with pytest.raises(ValueError, match="entries must be finite"):
            Observable(np.diag([np.inf, -1.0]), 2.0)
        for bound in (np.nan, np.inf):
            with pytest.raises(ValueError, match="bound on tr"):
                Observable(np.diag([1.0, -1.0]), bound)


class TestPopulationInput:
    def test_pure_state_gives_all_zeros(self):
        chi = MixedState(2, np.array([1.0, 0.0]), haar_unitary(2, RngStream(61)), 1)
        _, digits = sample_population_input(chi, 20, RngStream(62))
        assert digits.tolist() == [0] * 20

    def test_symbol_frequencies(self):
        chi = MixedState(2, np.array([0.5, 0.5]), OperatorGrid(np.eye(2)), 2)
        _, digits = sample_population_input(chi, 100_000, RngStream(63))
        freq = sum(digits) / len(digits)
        assert abs(freq - 0.5) <= 4 * np.sqrt(0.25 / 100_000)

    def test_at_most_r_symbols(self):
        chi = MixedState.random(4, 2, RngStream(64))
        for trial in range(20):
            _, digits = sample_population_input(chi, 30, RngStream(65).child(trial))
            assert len(set(digits)) <= 2

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_draws_are_generator_choice(self, d):
        # The symbols are the array Generator.choice(d, size=n, p=spectrum)
        # returns, bit for bit, on spectra with zero tails and a full one;
        # an upstream change to choice's sampling fails here.
        spectra = [np.eye(d)[0], np.full(d, 1.0 / d)]
        for rank in range(2, d):
            head = np.sort(RngStream(66).child(100 * d + rank).gen.dirichlet(np.ones(rank)))[::-1]
            spectra.append(np.concatenate([head, np.zeros(d - rank)]))
        for k, spectrum in enumerate(spectra):
            chi = MixedState(d, spectrum, haar_unitary(d, RngStream(67)), int(np.count_nonzero(spectrum)))
            for seed in range(20):
                _, digits = sample_population_input(chi, 500, RngStream(68).child(1000 * k + seed))
                want = RngStream(68).child(1000 * k + seed).gen.choice(d, size=500, p=chi.eigenvalues)
                assert digits.dtype == want.dtype and np.array_equal(digits, want), (spectrum, seed)


class TestPreprocess:
    def test_all_zeros_input(self, basis_for):
        basis = basis_for(2, 4)
        lam, _j, tau = schur_measure(basis, PureState.from_digits((0,) * 4, 2).amplitudes, RngStream(66))
        assert lam.parts == (4,)
        assert np.allclose(tau, PureState.from_digits((0,) * 4, 2).amplitudes)

    def test_two_symbol_input_gives_at_most_two_parts(self, basis_for):
        basis = basis_for(2, 4)
        u = haar_unitary(2, RngStream(67))
        state = product_basis_state(u, (0, 1, 0, 0), 2)
        for trial in range(200):
            lam, _j, _tau = schur_measure(basis, state.amplitudes, RngStream(68).child(trial))
            assert lam.k <= 2

    def test_weight_preserved_at_identity(self, basis_for):
        basis = basis_for(2, 4)
        digits = (0, 1, 1, 0)
        state = PureState.from_digits(digits, 2)
        w = weight_of(digits, 2)
        for trial in range(10):
            lam, _j, tau = schur_measure(basis, state.amplitudes, RngStream(69).child(trial))
            support = np.nonzero(np.abs(tau) > 1e-12)[0]
            for idx in support:
                bits = tuple(int(b) for b in np.binary_repr(int(idx), width=4))
                assert weight_of(bits, 2) == w

    def test_output_is_row_symmetric(self, basis_for):
        from schur_shadows.moments import row_symmetry_residual

        basis = basis_for(2, 4)
        u = haar_unitary(2, RngStream(70))
        state = product_basis_state(u, (1, 0, 1, 1), 2)
        for trial in range(10):
            lam, _j, tau = schur_measure(basis, state.amplitudes, RngStream(71).child(trial))
            assert row_symmetry_residual(lam, PureState(2, 4, tau)) < 1e-8


class TestRowSymmetricSampling:
    def test_single_row_overlap_mean(self):
        # density (n+1)|<0|psi>|^{2n}: E|<0|psi>|^2 = (n+1)/(n+2)
        n = 3
        tau = PureState.from_digits((0,) * n, 2)
        psis, _ = row_symmetric_sample_batch(Partition((n,)), tau, 10_000, RngStream(72))
        overlap = np.abs(psis[:, 0, 0]) ** 2
        want = (n + 1) / (n + 2)
        se = overlap.std() / np.sqrt(overlap.size)
        assert abs(overlap.mean() - want) <= 4 * se

    def test_acceptance_rate(self):
        # On a weight vector the first row's reduced state is diagonal in Dicke
        # coordinates (M = 1), and a one-box row is drawn exactly from the
        # columns of its state (M = 1), so every row draw is accepted.
        lam = Partition((2, 1))
        tau = weight_vector(lam, 2, 0)
        count = 2_000
        psis, proposals = row_symmetric_sample_batch(lam, tau, count, RngStream(73))
        assert psis.shape == (count, lam.k, 2)
        assert proposals == lam.k * count

    def test_rejects_non_symmetric_state(self):
        with pytest.raises(ValueError, match="row-symmetric"):
            row_symmetric_sample_batch(Partition((2,)), PureState.from_digits((0, 1), 2), 1, RngStream(74))

    def test_budget_error(self, monkeypatch):
        # Every sample takes at least one draw per row, so a budget below k
        # draws per sample runs out whatever the outcomes: here 1 < 2.
        lam = Partition((2, 1))
        tau = weight_vector(lam, 2, 0)
        monkeypatch.setattr("schur_shadows.protocol.MAX_ROW_DRAWS", 1)
        with pytest.raises(RejectionBudgetError):
            row_symmetric_sample_batch(lam, tau, 5, RngStream(75))
        with pytest.raises(RejectionBudgetError):
            row_symmetric_sample_batch(lam, tau, 1, RngStream(75))
        # An M = 4 state with no budget at all.
        monkeypatch.setattr("schur_shadows.protocol.MAX_ROW_DRAWS", 0)
        with pytest.raises(RejectionBudgetError):
            row_symmetric_sample_batch(Partition((3,)), rank_one_row(3, RngStream(311)), 1, RngStream(75))

    def test_exact_row_checks_the_budget(self, monkeypatch):
        # A weight vector's first row is exact, so one round fills all its
        # slots; the draws are still counted against the budget before any
        # slot is returned.
        lam, d, count = Partition((3,)), 2, 5
        tau = weight_vector(lam, d, 1)
        first = _RowLaw.row_one(lam, d, tau.amplitudes.reshape(1, -1, 1))
        assert first.bound[0] == 1.0
        gen = RngStream(76).gen
        with pytest.raises(RejectionBudgetError):
            protocol._sample_row(first, np.array([count]), d, gen, 0, count - 1)
        assert protocol._sample_row(first, np.array([count]), d, gen, 0, count)[2] == count
        monkeypatch.setattr("schur_shadows.protocol.MAX_ROW_DRAWS", 0)
        with pytest.raises(RejectionBudgetError):
            row_symmetric_sample_batch(lam, tau, count, RngStream(77))

    @pytest.mark.parametrize("want_rests", [True, False])
    def test_draws_only_what_it_reads(self, want_rests):
        # An exact row draws its picks, gammas and phases, and no accept
        # uniform; one whose state is a single Dicke state, the only pick,
        # draws no pick uniform either. A one-box row of one column, whose
        # pick is that column, draws one complex Gaussian of d entries and
        # one exponential per outcome, and no pick uniform. The draws are the
        # same with or without rests.
        class Recording:
            def __init__(self, gen):
                self.gen, self.calls = gen, []

            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    out = getattr(self.gen, name)(*args, **kwargs)
                    self.calls.append((name, np.shape(out)))
                    return out

                return draw

        d, count = 3, 7
        lam, mixed = Partition((2,)), Partition((2, 1))
        single = _RowLaw.row_one(lam, d, weight_vector(lam, d, 1).amplitudes.reshape(1, -1, 1))
        exact = _RowLaw.row_one(mixed, d, weight_vector(mixed, d, 1).amplitudes.reshape(1, -1, 1))
        one_box = _RowLaw.row_one(Partition((1,)), d, haar_unitary(d, RngStream(78)).entries[:, :1].reshape(1, d, 1))
        assert single.exact and single.cum is None and exact.exact and exact.cum is not None and one_box.cum is None
        expect = [
            (single, [("standard_gamma", (count, d)), ("random", (count, d))]),
            (exact, [("random", (count,)), ("standard_gamma", (count, d)), ("random", (count, d))]),
            (one_box, [("standard_normal", (count, 2 * d)), ("standard_exponential", (count,))]),
        ]
        for law, calls in expect:
            gen = Recording(RngStream(79).gen)
            psis, rests, spent = protocol._sample_row(law, np.array([count]), d, gen, 0, count, want_rests)
            assert gen.calls == calls and spent == count
            assert psis.shape == (count, d) and (rests is not None) == want_rests

    def test_proposals_count_the_sampler(self):
        # On tau = (U|0>)^{x3} the row state has rank 1 and all 4 Dicke weights
        # are nonzero, so M = N = kappa = 4: one accept takes a geometric number
        # of row draws with mean 4 and variance kappa (kappa - 1).
        lam = Partition((3,))
        tau = rank_one_row(3, RngStream(311))
        kappa, calls = kappa_product(lam, 2), 2000
        assert first_row_bound(lam, tau) == pytest.approx(kappa, abs=1e-9)
        root = RngStream(310)
        counts = np.array([row_symmetric_sample_batch(lam, tau, 1, root.child(r))[1] for r in range(calls)])
        z = abs(counts.mean() - kappa) / np.sqrt(kappa * (kappa - 1) / calls)
        assert z <= z_threshold(1, 4.0), (counts.mean(), z)
        # |000> is a weight vector: exactly one draw.
        assert row_symmetric_sample_batch(lam, PureState.from_digits((0,) * 3, 2), 1, RngStream(312))[1] == 1

    def test_batch_owns_its_data(self):
        # accepted rows are copied out, so no proposal batch stays alive
        tau = PureState.from_digits((0,) * 3, 2)
        psis, _ = row_symmetric_sample_batch(Partition((3,)), tau, 50, RngStream(300))
        assert psis.shape == (50, 1, 2)
        assert psis.base is None

    def test_sampled_states_are_unit(self):
        tau = PureState.from_digits((0,) * 3, 2)
        psis, _ = row_symmetric_sample_batch(Partition((3,)), tau, 1, RngStream(76))
        assert psis.shape == (1, 1, 2)
        assert np.linalg.norm(psis[0, 0]) == pytest.approx(1.0, abs=1e-12)


class TestDickeMap:
    @pytest.mark.parametrize("d,m", [(d, m) for d in range(1, 5) for m in range(1, 5)])
    def test_matches_brute_force(self, d, m):
        _, comps, sqrt_multinom = _dicke_map(d, m)
        want_comps, want_sqrt, want_proj = dicke_map_brute_force(d, m)
        assert np.array_equal(comps, want_comps)
        np.testing.assert_allclose(sqrt_multinom, want_sqrt, rtol=1e-15, atol=0)
        # Class sums give the coordinates of the brute-force map on symmetric
        # states, here two of them with three columns each.
        gen = RngStream(315 + 4 * d + m).gen
        coeffs = gen.standard_normal((2, len(comps), 3)) + 1j * gen.standard_normal((2, len(comps), 3))
        taus = want_proj.T @ coeffs
        got = _dicke_tensor(Partition((m,)), d, taus)
        np.testing.assert_allclose(got, want_proj @ taus, rtol=0, atol=1e-13)
        np.testing.assert_allclose(got, coeffs, rtol=0, atol=1e-13)
        if m == 1:
            # The unit composition e_a sits at index a, so row coordinates are the state's.
            assert np.array_equal(comps, np.eye(d, dtype=np.int64))
            assert np.array_equal(got, taus)


class TestDickeSampler:
    """The row sampler's bound M, its laws and its memory, against closed
    forms and the moment oracle."""

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (4, 3)])
    def test_bound_is_one_on_weight_pure_rows(self, d, n):
        # Row-1 Dicke states of different weight pair with complements of
        # different weight, so rho is diagonal and D = rho.
        gen = RngStream(313).gen
        for lam, images in build_q_bases(d, n).items():
            for vec in dense_stage1(images, d**n)[1]:
                assert abs(first_row_bound(lam, PureState(d, n, vec)) - 1.0) < 1e-9
            tau, _ = random_protocol_state(lam, images, d, gen)
            assert abs(first_row_bound(lam, tau) - 1.0) < 1e-9

    def test_bound_is_one_on_one_box_rows(self):
        # A one-box row draws a column of its state, then psi exactly: M = 1,
        # with column weights that add up to tr rho.
        gen = RngStream(314).gen
        states = gen.standard_normal((6, 3, 5)) + 1j * gen.standard_normal((6, 3, 5))
        law = _RowLaw.of(states, 1)
        assert np.all(law.bound == 1.0)
        assert np.allclose(law.weights.sum(axis=1), np.sum(np.abs(states) ** 2, axis=(1, 2)))

    @pytest.mark.parametrize("d,m,support", [(2, 3, 4), (3, 2, 4), (3, 3, 10), (4, 3, 7)])
    def test_bound_on_rank_one_rows_is_support_size(self, d, m, support):
        # rho = a a^dag gives D^{-1/2} rho D^{-1/2} = u u^dag with |u_v| = 1 on
        # the N = |support| nonzero entries of a; its top eigenvalue is N.
        gen = RngStream(315 + 10 * d + m).gen
        kappa = symmetric_dim(m, d)
        values = gen.standard_normal(support) + 1j * gen.standard_normal(support)
        a = np.zeros(kappa, dtype=complex)
        a[gen.choice(kappa, size=support, replace=False)] = values
        assert _RowLaw.of(a.reshape(1, kappa, 1), m).bound[0] == pytest.approx(support, abs=1e-9)

    def test_one_box_rows_average_to_reduced_state(self):
        # psi_r has density d <psi|rho_r|psi> relative to Haar, so
        # E|psi_r><psi_r| = (rho_r + I) / (d + 1) with rho_r the reduced state of
        # qudit r. Every state is row-symmetric for lam = (1, 1, 1).
        d, samples = 3, 20_000
        lam = Partition((1, 1, 1))
        gen = RngStream(316).gen
        amps = gen.standard_normal(d**3) + 1j * gen.standard_normal(d**3)
        tau = PureState(d, 3, amps / np.linalg.norm(amps))
        psis, proposals = row_symmetric_sample_batch(lam, tau, samples, RngStream(317))
        assert proposals == lam.k * samples
        tensor = tau.amplitudes.reshape(d, d, d)
        z_max = z_threshold(lam.k * 2 * d * d, 4.0)
        for r in range(lam.k):
            rows = np.moveaxis(tensor, r, 0).reshape(d, -1)
            stats = _EntrywiseStats((d, d))
            stats.add_batch(np.einsum("sa,sb->sab", psis[:, r], psis[:, r].conj()))
            assert stats.max_z((rows @ rows.conj().T + np.eye(d)) / (d + 1)) <= z_max, r

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_one_box_law_is_its_closed_form(self, d):
        # On a column a, psi has density d |<c|psi>|^2 relative to Haar, c =
        # a / ||a||: x = |<c|psi>|^2 ~ Beta(2, d - 1), so E[x] = 2 / (d + 1)
        # and E[x^2] = 6 / ((d + 1)(d + 2)), and E|psi><psi| = (cc^dag + I) / (d + 1).
        # Gated familywise over the two moments of x and the 2 d^2 Re/Im entries.
        samples = 20_000
        col = haar_unitary(d, RngStream(325 + d)).entries[:, 0]
        psis = protocol._one_box(np.tile(0.5 * col, (samples, 1)), RngStream(326 + d).gen)
        assert psis.shape == (samples, d)
        assert np.max(np.abs(np.linalg.norm(psis, axis=1) - 1.0)) < 1e-12
        z_max = z_threshold(2 + 2 * d * d, 4.0)
        x = np.abs(psis @ col.conj()) ** 2
        for values, want in ((x, 2 / (d + 1)), (x**2, 6 / ((d + 1) * (d + 2)))):
            z = abs(values.mean() - want) / (values.std() / np.sqrt(samples))
            assert z <= z_max, (d, want, z)
        stats = _EntrywiseStats((d, d))
        stats.add_outer(psis)
        assert stats.max_z((np.outer(col, col.conj()) + np.eye(d)) / (d + 1)) <= z_max

    @pytest.mark.parametrize("parts,digits", [((2, 1), (0, 1, 0)), ((2, 2), (0, 0, 0, 1))])
    def test_non_symmetric_input_refused_before_any_draw(self, parts, digits):
        # The second case is symmetric on row 1 and not on row 2.
        rng = RngStream(318)
        before = rng.gen.bit_generator.state
        with pytest.raises(ValueError, match="row-symmetric"):
            row_symmetric_sample_batch(Partition(parts), PureState.from_digits(digits, 2), 10, rng)
        assert rng.gen.bit_generator.state == before

    def test_each_state_is_checked_on_its_own(self):
        # The middle state is not symmetric on row 1. Next to two good states
        # 1e5 times heavier it loses under 1e-10 of the stack's mass, so only a
        # per-state check refuses it.
        lam, d = Partition((2, 1)), 2
        _, vectors = dense_stage1(build_q_bases(d, lam.n)[lam], d**lam.n)
        good = [1e5 * vec for vec in vectors[:2]]
        bad = PureState.from_digits((0, 1, 0), d).amplitudes
        assert np.isfinite(_RowLaw.row_one(lam, d, np.stack(good)[:, :, None]).bound).all()
        with pytest.raises(ValueError, match="state 1 is outside the row-symmetric"):
            _RowLaw.row_one(lam, d, np.stack([good[0], bad, good[1]])[:, :, None])

    @pytest.mark.parametrize("d", [3, 4])
    def test_several_states_in_one_pass(self, protocol_state_for, d):
        # One call draws 20000, 5000 and 1 outcomes of three weight-pure states
        # of (2, 1), as they are (row 1 exact) and rotated by a Haar U^{x 3}
        # (M > 1, a different M per state). Each state's slots hold its own
        # outcomes: the post-measurement scalar <psi_1^{x 2} psi_2|tau_l> of
        # every slot is recomputed from its outcome and must match state l's.
        # The first moment of Psi on the two larger ranges is gated on the
        # exact E[Psi]; a single outcome has no spread, so the third is
        # checked by its slot alone.
        lam, counts = Partition((2, 1)), np.array([20_000, 5_000, 1])
        taus = [protocol_state_for(lam, d, 1000 + 10 * d + l)[0] for l in range(3)]
        unitary = haar_unitary(d, RngStream(1100 + d))
        ends = np.cumsum(counts)
        coeffs = d + np.array(lam.parts)
        z_max = z_threshold(2 * 2 * 2 * d * d, 4.0)  # 2 rotations x 2 states x 2 d^2 real entries
        for rotation, seed in ((None, 1200 + d), (unitary, 1300 + d)):
            states = [t if rotation is None else apply_local_unitary(rotation, t) for t in taus]
            amps = np.stack([s.amplitudes for s in states])
            first = _RowLaw.row_one(lam, d, amps[:, :, None])
            assert (np.max(first.bound) > 1.0 + 1e-9) == (rotation is not None)
            psis, rests, proposals = _povm_sample(lam, d, first, counts, RngStream(seed).gen)
            assert psis.shape == (ends[-1], lam.k, d) and rests.shape == (ends[-1], 1)
            assert proposals >= lam.k * ends[-1]
            products = np.einsum("sa,sb,sc->sabc", psis[:, 0], psis[:, 0], psis[:, 1]).reshape(ends[-1], -1)
            scalars = products.conj() @ amps.T
            for l, (start, stop) in enumerate(zip(ends - counts, ends)):
                assert np.max(np.abs(rests[start:stop, 0] - scalars[start:stop, l])) < 1e-12, (l, rotation)
                others = np.delete(scalars[start:stop], l, axis=1) - rests[start:stop]
                assert np.min(np.abs(others)) > 1e-9, (l, rotation)
                if counts[l] > 1:
                    stats = _EntrywiseStats((d, d))
                    block = psis[start:stop]
                    stats.add_batch(np.einsum("r,sra,srb->sab", coeffs, block, block.conj()))
                    exact = expected_shadow_exact(lam, rotated(taus[l], rotation))
                    assert stats.max_z(exact) <= z_max, (l, rotation)

    @pytest.mark.parametrize(
        "parts,d,rotate,rejects",
        [
            ((3,), 4, False, False),  # an exact single row
            ((2, 1), 3, False, False),  # an exact first row, then a one-box last row
            ((3, 3), 2, False, True),  # a rejection last row
            ((2, 2), 3, True, True),  # rejection on both rows
        ],
    )
    @pytest.mark.parametrize("counts", [[300], [120, 1, 60]])
    def test_skipped_work_moves_no_draw(self, protocol_state_for, parts, d, rotate, rejects, counts):
        # Without rests the last row forms less (neither phi nor a contraction
        # on an exact row, no contraction on a one-box row) but draws every
        # uniform, so outcomes, draw count and the generator's state after the
        # call are bit for bit those with rests.
        lam = Partition(parts)
        taus = [protocol_state_for(lam, d, 1400 + l)[0] for l in range(len(counts))]
        if rotate:
            unitary = haar_unitary(d, RngStream(1410 + d))
            taus = [apply_local_unitary(unitary, tau) for tau in taus]
        first = _RowLaw.row_one(lam, d, np.stack([tau.amplitudes for tau in taus])[:, :, None])
        assert (first.bound.max() > 1.0 + 1e-12) == rotate
        gens = RngStream(1420).gen, RngStream(1420).gen
        psis, rests, proposals = _povm_sample(lam, d, first, counts, gens[0], True)
        lean = _povm_sample(lam, d, first, counts, gens[1], False)
        assert rests.shape == (sum(counts), 1) and lean[1] is None
        assert psis.tobytes() == lean[0].tobytes()
        assert proposals == lean[2]
        assert gens[0].bit_generator.state == gens[1].bit_generator.state
        assert (proposals > lam.k * sum(counts)) == rejects

    def test_dicke_coordinates_are_class_sums(self):
        # lam = (6) at d = 6 on (V|0>)^{x 6}, a 0.75 MB state. A dense
        # (kappa, d^6) map onto the Dicke states would alone hold 172 MB.
        # Class sums hold a copy of the state and the weight-class table,
        # built here from a cold cache (9 MB measured).
        lam, d = Partition((6,)), 6
        psi = haar_unitary(d, RngStream(324)).entries[:, 0]
        amps = np.ones(1, dtype=complex)
        for _ in range(6):
            amps = np.kron(amps, psi)
        register_classes.cache_clear()
        weight_classes.cache_clear()
        _dicke_map.cache_clear()
        laws = []
        peak = traced_peak(lambda: laws.append(_RowLaw.row_one(lam, d, amps.reshape(1, -1, 1))))
        assert peak < 20e6, peak
        # <D_v|psi^{x 6}> = sqrt(multinom(6; v)) prod_a psi_a^{v_a}, from the oracle's compositions.
        comps, sqrt_multinom, _ = dicke_map_brute_force(d, 6)
        want = sqrt_multinom * np.prod(psi ** comps, axis=1)
        np.testing.assert_allclose(laws[0].states[0, :, 0], want, rtol=0, atol=1e-14)
        assert laws[0].bound[0] == pytest.approx(symmetric_dim(6, d))

    def test_chunks_use_the_largest_bound(self):
        # |000> has M = 1 and (V|0>)^{x 3} has M = kappa = 20 at d = 4. Chunks
        # sized by the first state's bound would hold 20 times the proposals
        # (about 26 MB here); the sampler holds its outcomes and the
        # intermediates of one chunk (1.7 MB).
        lam, d, count = Partition((3,)), 4, 4000
        psi = haar_unitary(d, RngStream(322)).entries[:, 0]
        taus = np.stack([PureState.from_digits((0, 0, 0), d).amplitudes, np.einsum("a,b,c->abc", psi, psi, psi).ravel()])
        first = _RowLaw.row_one(lam, d, taus[:, :, None])
        assert first.bound[0] == pytest.approx(1.0) and first.bound[1] == pytest.approx(20.0)
        peak = traced_peak(lambda: _povm_sample(lam, d, first, np.array([1, count]), RngStream(323).gen))
        assert peak < 2 * (count + 1) * lam.k * d * 16 + 4 * _CHUNK_ENTRIES * 16, peak

    def test_chunks_sized_by_what_rows_hold(self, monkeypatch):
        # lam = (2, 2) at d = 3: row 2's state has one column, so it forms no
        # reduced state and is charged kappa (kappa X + (lam_2 + 1) d + 2 kappa)
        # = 162 entries per sample, not kappa^2 (kappa + d) = 324. 4000 samples
        # take 11 chunks of two rows (21 when charged as reduced states), and
        # the call peaks at a few times its outcomes (3.4x measured).
        lam, d, count = Partition((2, 2)), 3, 4000
        tau, _ = random_protocol_state(lam, build_q_bases(d, lam.n)[lam], d, RngStream(340).gen)
        row_symmetric_sample_batch(lam, tau, 10, RngStream(341))  # warm caches
        calls = []
        real = protocol._sample_row
        monkeypatch.setattr(protocol, "_sample_row", lambda *args: calls.append(1) or real(*args))
        peak = traced_peak(lambda: row_symmetric_sample_batch(lam, tau, count, RngStream(342)))
        assert len(calls) <= 22, len(calls)
        assert peak < 4 * count * lam.k * d * 16, peak

    def test_one_box_row_charged_what_it_holds(self, monkeypatch):
        # lam = (2, 1) at d = 3 on a weight-pure state at U = I: row 2 is one
        # box on one column, drawn by _one_box, and is charged its 4d = 12
        # entries, so row 1's M kappa_1 d = 18 sets the chunk at
        # 65536 // (3 + 18) = 3120 samples. Charged as a law's proposals,
        # 5 d^2 = 45, it would take 1365, and 4000 samples three chunks.
        lam, d, count = Partition((2, 1)), 3, 4000
        tau, _ = random_protocol_state(lam, build_q_bases(d, lam.n)[lam], d, RngStream(343).gen)
        row_symmetric_sample_batch(lam, tau, 10, RngStream(344))  # warm caches
        firsts = []
        real = protocol._sample_row
        monkeypatch.setattr(protocol, "_sample_row", lambda law, *args: firsts.append(law.m == 2) or real(law, *args))
        psis, _ = row_symmetric_sample_batch(lam, tau, count, RngStream(345))
        assert psis.shape == (count, 2, d)
        assert firsts == [True, True]

    def test_memory_stays_within_state_size(self, basis_for):
        # Nothing of shape proposals x rest is formed. A joint run measures
        # each segment on a factor of at most d^n' columns; what it holds of
        # the state's size is one chunk of the Gram's conjugate, at most the
        # state itself, then the later segments' state. A Monte Carlo batch
        # holds its outcomes and the intermediates of one chunk of samples, a
        # few hundred of 4000.
        n, epsilon = 14, 1.2  # T = 7 segments of 2 qubits
        basis = basis_for(2, n // segment_count(epsilon))
        gen = RngStream(319).gen
        amps = gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n)
        state = PureState(2, n, amps / np.linalg.norm(amps))
        peak = traced_peak(lambda: population_shadow(basis, state, epsilon, RngStream(320)))
        assert peak < 1.5 * state.amplitudes.nbytes, peak

        lam, d, count = Partition((1, 1, 1)), 4, 4000
        amps = gen.standard_normal(d**3) + 1j * gen.standard_normal(d**3)
        tau = PureState(d, 3, amps / np.linalg.norm(amps))
        outcome_bytes = count * lam.k * d * 16
        peak = traced_peak(lambda: row_symmetric_sample_batch(lam, tau, count, RngStream(321)))
        assert peak < 3 * outcome_bytes, peak

    def test_moment_oracle_gate(self, protocol_state_for):
        # At U = I the first row of a weight-pure state is drawn exactly
        # (M = 1); a Haar U makes every row's reduced state non-diagonal (M > 1).
        cases = []
        for k, (d, lam) in enumerate(SAMPLER_GATE):
            tau, _ = protocol_state_for(lam, d, 330 + k)
            cases.append((d, lam, tau, None, 100_000, 400 + k))
            cases.append((d, lam, tau, haar_unitary(d, RngStream(396 + d)), 20_000, 500 + k))
        z_max = z_threshold(sum(2 * d**2 + 2 * d**4 + 1 for d, *_ in cases), 4.0)
        for d, lam, tau, unitary, samples, seed in cases:
            obs = np.zeros((d, d), dtype=complex)
            obs[0, 0], obs[1, 1] = 1.0, -1.0
            mc = mc_shadow_moments(lam, tau, unitary, samples, RngStream(seed), observable=obs)
            z = max(mc["first_moment_max_z"], mc["second_moment_max_z"], mc["variance_z"])
            assert z <= z_max, (d, lam.parts, unitary is None, z)
        completeness = [mc_povm_completeness(lam, d, 10_000, RngStream(600 + k)) for k, (d, lam) in enumerate(SAMPLER_GATE)]
        z_complete = z_threshold(sum(c["entries"] for c in completeness), 4.0)
        assert max(c["max_abs_z"] for c in completeness) <= z_complete


class TestWeightClassIdentities:
    """The two facts the product sampler relies on, checked on the dense basis
    for every computational-basis state; f^lam and K_{lam,w} come from
    tableau counts, not from the basis."""

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (3, 3), (3, 4), (4, 3)])
    def test_lambda_law_and_averaged_state(self, basis_for, d, n):
        basis = basis_for(d, n)
        dense, slices = dense_basis_matrix(basis)
        f = {lam: standard_tableaux_count(lam.parts) for lam in basis.blocks}
        for e in itertools.product(range(d), repeat=n):
            w = weight_of(e, d)
            multinom = math.factorial(n) // math.prod(math.factorial(x) for x in w)
            state = PureState.from_digits(e, d)
            probs = block_probabilities(state)
            coeffs = dense.conj().T @ state.amplitudes
            for lam, block in basis.blocks.items():
                kostka = semistandard_tableaux_count(lam.parts, w)
                assert block.dim_p == f[lam]
                assert sum(wi == w for wi in block.weight_of_i) == kostka
                got = sum(probs[(lam, j)] for j in range(block.dim_p))
                assert abs(got - f[lam] * kostka / multinom) < 1e-12
                averaged = np.zeros((block.dim_q, block.dim_q), dtype=complex)
                for j in range(block.dim_p):
                    c = coeffs[slices[(lam, j)]]
                    averaged += np.outer(c, c.conj())
                slice_w = np.diag([1.0 if wi == w else 0.0 for wi in block.weight_of_i])
                assert np.max(np.abs(averaged - f[lam] / multinom * slice_w)) < 1e-12


class TestWeightTable:
    """The product path's draw table, built from stage 1 and the basis
    layout, against tableau counts and the law of lam given a weight, both
    computed by the oracles, not by the package."""

    @pytest.fixture(autouse=True)
    def cold_table(self):
        _product_table.cache_clear()
        yield
        _product_table.cache_clear()

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (4, 3), (2, 7)])
    def test_groups_are_exact(self, d, n):
        table = _product_table(d, n)
        assert _product_table(d, n) is table
        # Every (lam, i) of stage 1 is one entry, in partition order, then by i.
        owner = [
            (lam, image.weight)
            for lam, images in build_q_bases(d, n).items()
            for image in images
            for _ in range(image.columns.shape[1])
        ]
        assert [table.lams[b] for b in table.block_of.tolist()] == [lam for lam, _ in owner]
        assert len(table.entry) == d**n and set(table.entry.tolist()) == set(range(len(owner)))
        classes = table.classes
        for w in weights_brute_force(n, d):
            multinom = math.factorial(n) // math.prod(math.factorial(x) for x in w)
            # The class of the reversed sorted tuple: its largest member.
            c = classes.inverse[encode_basis([s for s in reversed(range(d)) for _ in range(w[s])], d)]
            assert classes.counts[c] == multinom, w
            held = table.entry[classes.starts[c] : classes.starts[c] + multinom].tolist()
            # Each (lam, i) of weight w holds f^lam consecutive positions, (lam, i) increasing.
            assert held == sorted(held), w
            mass = Counter()
            for e, spans in Counter(held).items():
                lam, weight = owner[e]
                assert weight == w
                assert spans == standard_tableaux_count(lam.parts)
                mass[lam.parts] += spans
            law = lambda_given_weight(w)
            assert set(mass) == set(law), w
            assert all(abs(mass[parts] / multinom - p) < 1e-12 for parts, p in law.items()), w

    def test_only_wide_laws_keep_rho(self):
        # A law keeps its reduced state only where the accept test reads it:
        # on a wide law (X > kappa) that can reject. The product table's
        # row-1 laws are weight vectors', exact (M = 1), so none keeps one;
        # (4, 5) has wide and narrow laws.
        d, n = 4, 5
        table = _product_table(d, n)
        kinds = set()
        for lam, law in zip(table.lams, table.first_rows):
            kappa = symmetric_dim(lam.parts[0], d)
            width = math.prod(symmetric_dim(m, d) for m in lam.parts[1:])
            assert law.states.shape[1:] == (kappa, width)
            assert law.every and law.rho is None, lam
            kinds.add(width > kappa)
        assert kinds == {True, False}
        # Random states of one row of 2 boxes at d = 3 (kappa = 6): a wide
        # law rejects and keeps rho, a narrow one contracts instead.
        gen = RngStream(680).gen
        for width in (9, 4):
            states = gen.standard_normal((2, 6, width)) + 1j * gen.standard_normal((2, 6, width))
            law = _RowLaw.of(states, 2)
            assert not law.exact
            if width > 6:
                assert np.allclose(law.rho, states @ states.conj().swapaxes(1, 2))
            else:
                assert law.rho is None

    @pytest.mark.parametrize("d,n", [(3, 5), (4, 4), (2, 10), (4, 5)])
    def test_entry_count_is_what_the_table_holds(self, d, n):
        # Every array the row-1 laws hold, complex states and 8-byte tables.
        table = _product_table(d, n)
        held = 0
        for law in table.first_rows:
            arrays = (law.states, law.weights, law.cum, law.sole, law.bound, law.rho)
            held += sum(a.nbytes for a in arrays if a is not None)
        assert held == _product_table_bytes(d, n)

    def test_refuses_a_table_it_cannot_hold(self, monkeypatch):
        # Counted from dim_q and the kappas alone: (8, 6) would hold about
        # 12.9 GB and (8, 5) 0.76 GB; (4, 8) would hold 56 MB, under the cap.
        def no_stage1(d, n):
            raise AssertionError("stage 1 ran before the refusal")

        monkeypatch.setattr(protocol, "build_q_bases", no_stage1)
        for d, n in ((8, 6), (8, 5)):
            assert _product_table_bytes(d, n) > protocol._TABLE_BYTES
            with pytest.raises(CapExceededError, match="product table"):
                shadow_from_population(OperatorGrid(np.eye(d)), (0,) * n, 1, n, RngStream(0))
        assert _product_table_bytes(4, 8) <= protocol._TABLE_BYTES

    def test_refuses_d_power_n_before_any_table(self, monkeypatch):
        # (2, 25) has 357 KB of row-1 laws, under their cap, but 2^25 digit
        # tuples: a (2^25, 25) int64 digit table would take 6.7 GB.
        def refuse(*args):
            raise AssertionError("a d^n'-sized table was built before the refusal")

        monkeypatch.setattr(young, "digit_table", refuse)
        monkeypatch.setattr(protocol, "build_q_bases", refuse)
        assert _product_table_bytes(2, 25) <= protocol._TABLE_BYTES and MAX_DENSE_DIM < 2**25
        with pytest.raises(CapExceededError, match="2\\*\\*25"):
            shadow_from_population(OperatorGrid(np.eye(2)), (0,) * 25, 1, 25, RngStream(0))

    @pytest.mark.parametrize("d,n", [(2, 24), (3, 15), (2, 21)])
    def test_refuses_d_power_n_tables_by_their_bytes(self, monkeypatch, d, n):
        # Both caps above pass here, yet the int64 tables over the d^n digit
        # tuples would take 8 d^n (n + 5) bytes: 3.6 GiB at (2, 24), of which
        # the digit table is 3.0 GiB, 2.1 GiB at (3, 15) and 0.4 GiB at (2, 21).
        def refuse(*args):
            raise AssertionError("a d^n'-sized table was built before the refusal")

        monkeypatch.setattr(young, "digit_table", refuse)
        monkeypatch.setattr(protocol, "build_q_bases", refuse)
        assert _product_table_bytes(d, n) <= protocol._TABLE_BYTES and d**n <= MAX_DENSE_DIM
        with pytest.raises(CapExceededError, match=f"n'={n} would take {8 * d**n * (n + 5)} bytes"):
            shadow_from_population(OperatorGrid(np.eye(d)), (0,) * n, 1, n, RngStream(0))

    @pytest.mark.parametrize("fault", ["lost vector", "altered weight", "swapped images"])
    def test_refuses_inconsistent_basis(self, basis_for, monkeypatch, fault):
        lam = Partition((2, 1))
        real = build_q_bases(3, 3)

        def broken_stage1(d, n):
            images = list(real[lam])
            if fault == "lost vector":
                del images[0]  # the one vector of the largest weight
            elif fault == "altered weight":
                images[0] = ImageBlock(images[1].weight, images[0].indices, images[0].columns)
            else:
                images[0], images[1] = images[1], images[0]  # the counts are right, the order is not
            return {**real, lam: images}

        class NoDraws:
            def child(self, _stream):
                raise AssertionError("a random stream was opened before the refusal")

            @property
            def gen(self):
                raise AssertionError("a draw was made before the refusal")

        def no_layers(*args):
            raise AssertionError("stage 2 formed a layer before the refusal")

        if fault == "swapped images":
            message = r"stage 1's weights of partition \(2,1\) are not its weights in order"
        else:
            message = r"stage 1 has 0 vectors of partition \(2,1\) and weight \(2, 1, 0\), but K = 1"
        monkeypatch.setattr(protocol, "build_q_bases", broken_stage1)
        for _ in range(2):
            with pytest.raises(SpanExtractionError, match=message):
                shadow_from_population(OperatorGrid(np.eye(3)), (0, 1, 2) * 4, 4, 3, NoDraws())
        # Stage 2 refuses the same stage 1 with the same check.
        with monkeypatch.context() as patch, pytest.raises(SpanExtractionError, match=message):
            patch.setattr(basis_module, "orthogonal_form", no_layers)
            schur_basis_completion(3, 3, broken_stage1(3, 3))
        if fault != "lost vector":
            # The labels of a whole basis come from (d, n), so these faults
            # cannot be built into one.
            return
        # The same fault in a whole basis: schur_measure refuses it, and
        # verify reports it as failing without raising.
        basis = basis_for(3, 3)
        w = basis.blocks[lam].weight_of_i[0]
        # Drop the column of (lam, 0, 1) from its slice.
        piece = basis.slices[w]
        keep = ~np.all(piece.keys == (list(basis.blocks).index(lam), 0, 1), axis=1)
        broken = SchurBasis(3, 3, {**basis.matrices, w: piece.matrix[:, keep]})
        with pytest.raises(ValueError, match="weight"):
            schur_measure(broken, PureState.from_digits((0, 1, 2), 3).amplitudes, NoDraws())
        report = verify_nice_basis(broken)
        assert report["u_closure_residual"] == report["pi_closure_residual"] == np.inf
        assert not report["vector_count_ok"]


class TestShadowMatrix:
    def test_diagonal_example(self):
        lam = Partition((2, 1))
        psis = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        out = shadow_matrix(lam, psis, 2)
        assert np.allclose(out, np.diag([4.0, 3.0]))

    def test_single_row_example(self):
        n = 5
        out = shadow_matrix(Partition((n,)), np.array([[[1.0, 0.0]]]), 2)
        assert np.allclose(out, np.diag([n + 2.0, 0.0]))

    def test_trace_identity(self):
        gen = RngStream(77).gen
        lam = Partition((3, 2, 1))
        psis = [v / np.linalg.norm(v) for v in (gen.standard_normal((3,)) + 1j * gen.standard_normal((3,)) for _ in range(3))]
        out = shadow_matrix(lam, np.array([psis]), 3)
        assert np.trace(out).real == pytest.approx(sum(3 + p for p in lam.parts), abs=1e-10)
        # the record of several samples is the sum of their records
        twice = shadow_matrix(lam, np.array([psis, psis[::-1]]), 3)
        assert np.max(np.abs(twice - out - shadow_matrix(lam, np.array([psis[::-1]]), 3))) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            shadow_matrix(Partition((2, 1)), np.array([[[1.0, 0.0]]]), 2)
        with pytest.raises(ValueError):
            shadow_matrix(Partition((2, 1)), np.array([[1.0, 0.0], [0.0, 1.0]]), 2)


class TestPopulationShadow:
    def test_segment_count(self):
        assert segment_count(1.0) == 10
        assert segment_count(0.35) == 82
        # epsilon^2 would overflow here; T never falls below 1.
        assert segment_count(1e200) == 1
        assert segment_count(1e155) == 1
        for bad in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="finite and positive"):
                segment_count(bad)

    def test_needs_enough_qudits(self, basis_for):
        basis = basis_for(2, 2)
        with pytest.raises(ValueError, match="n >= T"):
            population_shadow(basis, PureState.from_digits((0,) * 5, 2), 1.0, RngStream(78))

    def test_basis_must_match_segment_size(self, basis_for):
        basis = basis_for(2, 3)
        state = PureState.from_digits((0,) * 8, 2)
        with pytest.raises(ValueError, match="basis is for"):
            population_shadow(basis, state, 1.7, RngStream(79))  # T = 4, n' = 2

    def test_pure_input_runs_symmetric(self, basis_for):
        basis = basis_for(2, 2)
        state = PureState.from_digits((0,) * 8, 2)
        est = population_shadow(basis, state, 1.7, RngStream(80))
        assert est.t_segments == 4 and est.segment_size == 2
        assert all(parts == (2,) for parts in est.segment_partitions)
        assert np.trace(est.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_pure_input_mean_converges(self, basis_for):
        basis = basis_for(2, 2)
        state = PureState.from_digits((0,) * 8, 2)
        acc = np.zeros((2, 2), dtype=complex)
        runs = 400
        for t in range(runs):
            acc += population_shadow(basis, state, 1.7, RngStream(81).child(t)).matrix
        acc /= runs
        # per-run variance is O(1); 400 runs give ~0.1 standard error
        assert np.max(np.abs(acc - np.diag([1.0, 0.0]))) < 0.12

    def test_matches_streamed_product_run(self, basis_for):
        # The dense joint path and the weight-class product sampler agree in
        # law, not draw for draw. Each is gated on its own against the exact
        # P(lam | w) of every segment and against the population average state.
        d, seg, t_segments, runs = 2, 3, 4, 1000
        basis = basis_for(d, seg)
        u = haar_unitary(d, RngStream(82))
        digits = (0, 1, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1)
        state = product_basis_state(u, digits, d)
        laws = [lambda_given_weight(weight_of(digits[t * seg : (t + 1) * seg], d)) for t in range(t_segments)]
        cols = u.entries[:, list(digits)]
        truth = cols @ cols.conj().T / len(digits)
        root = RngStream(83)
        fronts = {
            "population_shadow": lambda r: population_shadow(basis, state, 1.7, root.child(r)),
            "shadow_from_population": lambda r: shadow_from_population(
                u, digits, t_segments, seg, root.child(runs + r)
            ),
        }
        z_max = z_threshold(len(fronts) * 2 * d * d, 4.0)
        for name, run in fronts.items():
            tallies = [Counter() for _ in range(t_segments)]
            stats = _EntrywiseStats((d, d))
            for r in range(runs):
                est = run(r)
                assert est.t_segments == t_segments and est.segment_size == seg
                stats.add_batch(est.matrix[None])
                for tally, parts in zip(tallies, est.segment_partitions):
                    tally[parts] += 1
            stat = df = 0
            for tally, law in zip(tallies, laws):
                assert set(tally) <= set(law), f"{name}: impossible partition in {dict(tally)}"
                seg_stat, seg_df = chi_square(tally, law)
                stat += seg_stat
                df += seg_df
            assert chi2_sf(stat, df) >= 1e-4, f"{name}: chi2 {stat:.2f} on {df} df"
            assert stats.max_z(truth) <= z_max, name

    def test_product_sampler_is_u_covariant(self):
        u = haar_unitary(3, RngStream(301))
        digits = (0, 1, 2, 2, 2, 1, 0, 0, 1, 1, 1, 1, 2, 0, 2)
        a = shadow_from_population(u, digits, 5, 3, RngStream(302))
        b = shadow_from_population(OperatorGrid(np.eye(3)), digits, 5, 3, RngStream(302))
        assert np.max(np.abs(a.matrix - u.entries @ b.matrix @ u.entries.conj().T)) < 1e-12
        assert a.segment_partitions == b.segment_partitions

    def test_product_sampler_deterministic(self):
        u = haar_unitary(3, RngStream(303))
        digits = (0, 1, 2, 2, 2, 1, 0, 0, 1, 1, 1, 1, 2, 0, 2)
        a = shadow_from_population(u, digits, 5, 3, RngStream(304))
        b = shadow_from_population(u, digits, 5, 3, RngStream(304))
        assert np.array_equal(a.matrix, b.matrix)
        assert a.segment_partitions == b.segment_partitions
        assert a.povm_proposals == b.povm_proposals

    def test_product_sampler_second_moment(self, basis_for):
        # The i draw leaves the lam law and the mean unchanged, so gate
        # E[X (x) X], X = (Psi - k I) / n', of one-segment runs at U = I against
        # the moment oracle averaged over the dense path's (lam, j) outcomes.
        d, digits, runs = 3, (0, 1, 2), 1500
        n = len(digits)
        basis = basis_for(d, n)
        dense, slices = dense_basis_matrix(basis)
        coeffs = dense.conj().T @ PureState.from_digits(digits, d).amplitudes
        eye = np.eye(d)
        want = np.zeros((d * d, d * d), dtype=complex)
        for lam, block in basis.blocks.items():
            for j in range(block.dim_p):
                c = coeffs[slices[(lam, j)]]
                p = float(np.vdot(c, c).real)
                if p < 1e-12:
                    continue
                tau = PureState(d, n, dense[:, slices[(lam, 0)]] @ c / np.sqrt(p))
                first = expected_shadow_exact(lam, tau)
                second = second_moment_exact(lam, tau)
                k = lam.k
                want += p * (second - k * np.kron(first, eye) - k * np.kron(eye, first) + k * k * np.eye(d * d)) / n**2
        root = RngStream(309)
        ident = OperatorGrid(np.eye(d))
        xs = np.array([shadow_from_population(ident, digits, 1, n, root.child(r)).matrix for r in range(runs)])
        stats = _EntrywiseStats((d * d, d * d))
        stats.add_batch(np.einsum("rab,rce->racbe", xs, xs).reshape(runs, d * d, d * d))
        assert stats.max_z(want) <= z_threshold(2 * d**4, 4.0)

    def test_one_pass_per_partition(self, monkeypatch):
        # A flat spectrum at (4, 3) with T = 500 reaches all 44 (lam, i)
        # groups, and each partition's groups fit one chunk. So row 1 takes
        # one _sample_row call per partition over all its groups, each later
        # row one more, a _sample_row call or, for a last row of one box,
        # one _one_box call: sum of k(lam) over the partitions that occur.
        table = _product_table(4, 3)
        real_row, real_box = protocol._sample_row, protocol._one_box
        rows, groups, inside = [], [], []

        def counting_row(law, need, *args):
            rows.append(law.m)
            if any(law is first for first in table.first_rows):
                groups.append(np.count_nonzero(need))
            inside.append(1)
            try:
                return real_row(law, need, *args)
            finally:
                inside.pop()

        def counting_box(cols, gen):
            if not inside:
                rows.append(1)
            return real_box(cols, gen)

        monkeypatch.setattr(protocol, "_sample_row", counting_row)
        monkeypatch.setattr(protocol, "_one_box", counting_box)
        chi = MixedState(4, np.full(4, 0.25), haar_unitary(4, RngStream(330)), 4)
        est = mixed_state_shadow(chi, 1500, 0.2829, RngStream(331))
        assert est.t_segments == 500
        occurring = set(est.segment_partitions)
        assert len(rows) == sum(len(parts) for parts in occurring)
        assert len(groups) == len(occurring)
        assert sum(groups) == sum(len(first.states) for first in table.first_rows) == 44

    def test_product_memory_is_chunked(self):
        # T = 20000 segments at (4, 3): the run holds one partition's outcomes,
        # the segments' partitions, one chunk of intermediates, and in
        # shadow_matrix one row's conjugate at a time: under 2 times the bytes
        # of all outcomes (1.53 measured; 1.97 with the per-segment digits and
        # draws kept through the POVM passes). A scaled copy of all outcomes
        # with its conjugate reads 2.73, and no chunks about 10.
        _product_table(4, 3)  # built once per (d, n'), outside the trace
        t_segments = 20_000
        digits = tuple(RngStream(332).gen.choice(4, size=3 * t_segments, p=[0.4, 0.3, 0.2, 0.1]).tolist())
        u = haar_unitary(4, RngStream(333))
        runs = []
        peak = traced_peak(lambda: runs.append(shadow_from_population(u, digits, t_segments, 3, RngStream(334))))
        outcome_bytes = sum(len(parts) for parts in runs[0].segment_partitions) * 4 * 16
        assert peak < 2.0 * outcome_bytes, (peak, outcome_bytes)

    def test_product_sampler_rejects_bad_input(self, monkeypatch):
        # The public entry holds every input check: a refusal reaches neither
        # the product table nor the random stream.
        def no_table(*_args):
            raise AssertionError("the product table was read before the refusal")

        class NoStream:
            def child(self, _stream_id):
                raise AssertionError("a stream was read before the refusal")

        monkeypatch.setattr(protocol, "_product_table", no_table)
        u = haar_unitary(2, RngStream(305))
        cases = [
            (OperatorGrid(2 * u.entries), (0, 1, 0, 1), 2, 2, "unitary"),
            (u, (0, 2, 0, 1), 2, 2, "symbols"),
            (u, (0, -1, 0, 1), 2, 2, "symbols"),
            (u, (0, 1, 0, 1), 3, 2, "need 6 symbols"),
            (u, (0, 1, 0, 1), 0, 2, ">= 1"),
            (u, (0, 1, 0, 1), 2, 0, ">= 1"),
        ]
        for unitary, digits, t_segments, segment_size, match in cases:
            with pytest.raises(ValueError, match=match):
                shadow_from_population(unitary, digits, t_segments, segment_size, NoStream())

    def test_deterministic(self, basis_for):
        basis = basis_for(2, 2)
        state = PureState.from_digits((0, 1, 0, 1, 1, 0), 2)
        a = population_shadow(basis, state, 2.0, RngStream(84))
        b = population_shadow(basis, state, 2.0, RngStream(84))
        assert np.array_equal(a.matrix, b.matrix)


class TestSegmentFactor:
    """The joint path measures a segment on a factor F of its Gram and maps
    the POVM's contraction back through F^+, against the dense segment step."""

    @pytest.mark.parametrize("rank", [8, 1, 3])
    def test_wide_matrix_is_factored(self, rank):
        gen = RngStream(700 + rank).gen
        left = gen.standard_normal((8, rank)) + 1j * gen.standard_normal((8, rank))
        a = left @ (gen.standard_normal((rank, 512)) + 1j * gen.standard_normal((rank, 512)))
        factor, pinv = _segment_factor(a)
        gram = a @ a.conj().T
        assert factor.shape == (8, rank)
        assert np.max(np.abs(factor @ factor.conj().T - gram)) <= 1e-12 * np.max(np.abs(gram))
        assert np.max(np.abs(factor @ (pinv @ a) - a)) <= 1e-12 * np.max(np.abs(a))

    @pytest.mark.parametrize("width", [8, 3])
    def test_narrow_matrix_is_passed_through(self, width):
        gen = RngStream(710 + width).gen
        a = gen.standard_normal((8, width)) + 1j * gen.standard_normal((8, width))
        factor, pinv = _segment_factor(a)
        assert factor is a and pinv is None

    @pytest.mark.parametrize("seg", [2, 3])
    def test_draw_for_draw_on_one_row_outcomes(self, basis_for, seg):
        # U^{x n} of (|0...0> + |1...1>) / sqrt 2 keeps every segment in the
        # symmetric subspace, so every row has n' > 1 boxes and its draws
        # do not depend on the columns of the state, only on its Gram.
        d, t_segments = 2, 3
        n = seg * t_segments
        basis = basis_for(d, seg)
        amps = np.zeros(d**n, dtype=complex)
        amps[0] = amps[-1] = 1 / np.sqrt(2)
        for r in range(20):
            state = apply_local_unitary(haar_unitary(d, RngStream(720 + r)), PureState(d, n, amps))
            a = population_shadow(basis, state, 2.0, RngStream(740).child(r))
            b = population_shadow_dense(basis, state, 2.0, RngStream(740).child(r))
            assert a.segment_partitions == b.segment_partitions == [(seg,)] * t_segments
            assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12, r

    def test_back_map_is_normalised_through_the_factor(self, basis_for, monkeypatch):
        # ||(r_F F^+) A|| = ||r_F||, so normalising r_F leaves each later
        # segment a unit state without a pass over it. 7 segments of 2 qubits.
        n, epsilon = 14, 1.2
        basis = basis_for(2, n // segment_count(epsilon))
        gen = RngStream(344).gen
        amps = gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n)
        state = PureState(2, n, amps / np.linalg.norm(amps))
        norms = []
        real = protocol._segment_factor
        monkeypatch.setattr(protocol, "_segment_factor", lambda a: norms.append(np.linalg.norm(a)) or real(a))
        population_shadow(basis, state, epsilon, RngStream(345))
        assert len(norms) == 7
        assert np.max(np.abs(np.array(norms) - 1.0)) < 1e-12, norms

    def test_law_on_entangled_input(self, basis_for):
        # A Haar state has one-box rows, whose draws pick columns of the
        # state, so only the law is shared with the dense step. The partitions
        # of the first w segments have the law
        # ||(Pi_lam1 (x) ... (x) Pi_lamw (x) I) s||^2, gated at w = 2 and 3, and
        # the mean estimate is the average one-qudit marginal.
        d, seg, t_segments, runs = 2, 3, 3, 2000
        n = seg * t_segments
        basis = basis_for(d, seg)
        gen = RngStream(750).gen
        amps = gen.standard_normal(d**n) + 1j * gen.standard_normal(d**n)
        state = PureState(d, n, amps / np.linalg.norm(amps))
        dense, slices = dense_basis_matrix(basis)
        projectors = {}
        for lam, block in basis.blocks.items():
            cols = np.concatenate([dense[:, slices[(lam, j)]] for j in range(block.dim_p)], axis=1)
            projectors[lam.parts] = cols @ cols.conj().T
        laws = {}
        for width in (2, 3):
            for key in itertools.product(projectors, repeat=width):
                t = state.amplitudes.reshape((d**seg,) * t_segments)
                for axis, parts in enumerate(key):
                    t = np.moveaxis(np.tensordot(projectors[parts], t, axes=(1, axis)), 0, axis)
                laws.setdefault(width, {})[key] = float(np.vdot(t, t).real)
        marginal = np.zeros((d, d), dtype=complex)
        for q in range(n):
            t = state.amplitudes.reshape(d**q, d, -1)
            marginal += np.einsum("aib,ajb->ij", t, t.conj()) / n
        tallies = {width: Counter() for width in laws}
        stats = _EntrywiseStats((d, d))
        root = RngStream(751)
        for r in range(runs):
            est = population_shadow(basis, state, 2.0, root.child(r))
            for width, tally in tallies.items():
                tally[tuple(est.segment_partitions[:width])] += 1
            stats.add_batch(est.matrix[None])
        for width, tally in tallies.items():
            assert set(tally) <= set(laws[width])
            stat, df = chi_square(tally, laws[width])
            assert chi2_sf(stat, df) >= 1e-4, (width, stat, df)
        assert stats.max_z(marginal) <= z_threshold(2 * d * d, 4.0)


class TestMixedStateShadow:
    def test_trace_is_one_exactly(self):
        chi = MixedState.random(2, 2, RngStream(85))
        est = mixed_state_shadow(chi, 40, 2.1, RngStream(86))
        assert np.trace(est.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_unbiased(self):
        chi = MixedState.random(2, 2, RngStream(87))
        runs = 500
        acc = np.zeros((2, 2), dtype=complex)
        for t in range(runs):
            acc += mixed_state_shadow(chi, 40, 2.1, RngStream(88).child(t)).matrix
        acc /= runs
        assert np.max(np.abs(acc - chi.density())) < 0.1

    def test_builds_no_basis(self, monkeypatch):
        # The product path needs stage 1 only: stage 2 and the full build refuse here.
        def refuse(*_args, **_kwargs):
            raise AssertionError("the product path built the whole basis")

        for name in ("schur_basis_completion", "build_basis"):
            monkeypatch.setattr(basis_module, name, refuse)
        _product_table.cache_clear()
        chi = MixedState.random(3, 3, RngStream(340))
        est = mixed_state_shadow(chi, 60, 2.1, RngStream(341))
        assert est.segment_size == 6 and len(est.segment_partitions) == 10

    def test_basis_is_only_checked(self, basis_for):
        chi = MixedState.random(2, 2, RngStream(342))
        with pytest.raises(ValueError, match="basis is for"):
            mixed_state_shadow(chi, 40, 2.1, RngStream(343), basis=basis_for(2, 3))
        given = mixed_state_shadow(chi, 40, 2.1, RngStream(343), basis=basis_for(2, 4))
        plain = mixed_state_shadow(chi, 40, 2.1, RngStream(343))
        assert np.array_equal(given.matrix, plain.matrix)
        assert given.segment_partitions == plain.segment_partitions

    @pytest.mark.parametrize(
        "d,seg,spectrum,epsilon,runs",
        [(4, 3, (0.7, 0.3, 0.0, 0.0), 0.35, 15), (3, 4, (0.5, 0.3, 0.2), 0.5, 30)],
    )
    def test_lambda_marginal_is_schur_weyl(self, d, seg, spectrum, epsilon, runs):
        # lam over i.i.d. symbols is weak Schur sampling: f^lam s_lam(spectrum)
        law = schur_weyl_distribution(seg, spectrum)
        rank = sum(p > 0 for p in spectrum)
        chi = MixedState(d, np.array(spectrum), haar_unitary(d, RngStream(307)), rank)
        n = segment_count(epsilon / 2.0) * seg
        root = RngStream(308)
        counts = Counter()
        for r in range(runs):
            counts.update(mixed_state_shadow(chi, n, epsilon, root.child(r)).segment_partitions)
        assert all(law.get(parts, 0.0) > 0 for parts in counts), dict(counts)
        stat, df = chi_square(counts, {parts: p for parts, p in law.items() if p > 0})
        assert chi2_sf(stat, df) >= 1e-4, f"chi2 {stat:.2f} on {df} df, counts {dict(counts)}"

    def test_lambda_marginal_past_the_basis_build(self):
        # n' = 14 at d = 2: the product path builds stage 1 only. The lam law
        # over i.i.d. symbols is f^lam s_lam(spectrum), from the oracle.
        d, seg, t_segments, spectrum = 2, 14, 3000, (0.6, 0.4)
        law = schur_weyl_distribution(seg, spectrum)
        gen = RngStream(344).gen
        digits = tuple(gen.choice(d, size=seg * t_segments, p=spectrum).tolist())
        est = shadow_from_population(haar_unitary(d, RngStream(345)), digits, t_segments, seg, RngStream(346))
        counts = Counter(est.segment_partitions)
        assert set(counts) <= set(law), dict(counts)
        stat, df = chi_square(counts, law)
        assert df >= 4 and chi2_sf(stat, df) >= 1e-4, f"chi2 {stat:.2f} on {df} df, counts {dict(counts)}"

    @pytest.mark.parametrize("d,chunk_entries", [(2, _CHUNK_ENTRIES), (3, _CHUNK_ENTRIES), (4, _CHUNK_ENTRIES), (4, 1 << 9)])
    def test_equals_the_public_route(self, monkeypatch, d, chunk_entries):
        # mixed_state_shadow hands its drawn symbols to the product path as an
        # array; the public route passes sample_population_input's tuple. Both
        # draw the same estimate bit for bit. With 2^9 entries a chunk holds at
        # most 6 samples at d = 4, so _povm_sample runs each partition in
        # several chunks.
        monkeypatch.setattr(protocol, "_CHUNK_ENTRIES", chunk_entries)
        calls = []
        real = protocol._sample_row
        monkeypatch.setattr(protocol, "_sample_row", lambda *args: calls.append(1) or real(*args))
        chi = MixedState.random(d, 2, RngStream(350 + d))
        epsilon, seg = 0.6, 3
        t_segments = segment_count(epsilon / 2.0)
        n = t_segments * seg
        rng = RngStream(360 + d)
        est = mixed_state_shadow(chi, n, epsilon, rng)
        one_chunk_calls = sum(len(parts) for parts in set(est.segment_partitions))
        assert (len(calls) > one_chunk_calls) == (chunk_entries < _CHUNK_ENTRIES)
        public = shadow_from_population(*sample_population_input(chi, n, rng.child(-1)), t_segments, seg, rng)
        assert est.matrix.tobytes() == public.matrix.tobytes()
        assert est.segment_partitions == public.segment_partitions
        assert est.povm_proposals == public.povm_proposals

    def test_needs_enough_copies(self):
        chi = MixedState.random(2, 1, RngStream(89))
        with pytest.raises(ValueError, match="copies"):
            mixed_state_shadow(chi, 5, 1.0, RngStream(90))

    def test_pure_state_short_circuit(self):
        # rank-1 spectrum makes the symbol string deterministic
        chi = MixedState(2, np.array([1.0, 0.0]), haar_unitary(2, RngStream(91)), 1)
        est = mixed_state_shadow(chi, 40, 2.1, RngStream(92))
        assert all(parts == (4,) for parts in est.segment_partitions)


class TestPredictAndMedian:
    def test_predict_example(self):
        est = ShadowEstimate(np.diag([0.7, 0.3]).astype(complex), 1, 1)
        obs = make_observable(np.diag([1.0, -1.0]))
        assert predict(est, obs) == pytest.approx(0.4, abs=1e-12)

    def test_predict_antisymmetry(self):
        est = ShadowEstimate(np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex), 1, 1)
        obs = make_observable(np.array([[0.0, 1.0], [1.0, 0.0]]))
        neg = make_observable(-obs.matrix)
        assert predict(est, neg) == pytest.approx(-predict(est, obs), abs=1e-12)

    def test_predict_dimension_mismatch(self):
        est = ShadowEstimate(np.eye(3, dtype=complex) / 3, 1, 1)
        with pytest.raises(ValueError):
            predict(est, make_observable(np.diag([1.0, -1.0])))

    def test_median_examples(self):
        obs = make_observable(np.diag([1.0, -1.0]))

        def shadow(value):
            return ShadowEstimate(np.diag([(1 + value) / 2, (1 - value) / 2]).astype(complex), 1, 1)

        assert median_of_means([shadow(0.3)], obs) == pytest.approx(0.3)
        assert median_of_means([shadow(v) for v in (0.1, 0.5, 0.9)], obs) == pytest.approx(0.5)
        assert median_of_means([shadow(v) for v in (0.4, 0.5, 0.6, 0.45, 99.0)], obs) == pytest.approx(0.5)
        # even length: lower median
        assert median_of_means([shadow(v) for v in (0.1, 0.2, 0.3, 0.4)], obs) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            median_of_means([], obs)


class TestBaseline:
    def test_per_copy_trace(self):
        chi = MixedState.random(3, 2, RngStream(93))
        est = baseline_single_copy_shadow(chi, 500, RngStream(94))
        assert np.trace(est.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_unbiased_for_pure_state(self):
        chi = MixedState(2, np.array([1.0, 0.0]), OperatorGrid(np.eye(2)), 1)
        est = baseline_single_copy_shadow(chi, 100_000, RngStream(95))
        # each entry has O(1/sqrt(N)) fluctuation with constant < 3
        assert np.max(np.abs(est.matrix - np.diag([1.0, 0.0]))) < 4 * 3 / np.sqrt(100_000)

    def test_maximally_mixed(self):
        chi = MixedState(2, np.array([0.5, 0.5]), OperatorGrid(np.eye(2)), 2)
        est = baseline_single_copy_shadow(chi, 100_000, RngStream(96))
        assert np.max(np.abs(est.matrix - np.eye(2) / 2)) < 4 * 3 / np.sqrt(100_000)

    def test_is_the_product_path_at_segment_size_one(self):
        chi = MixedState.random(3, 2, RngStream(97))
        rng = RngStream(98)
        est = baseline_single_copy_shadow(chi, 40, rng)
        want = shadow_from_population(*sample_population_input(chi, 40, rng.child(-1)), 40, 1, rng)
        assert est.matrix.tobytes() == want.matrix.tobytes()
        assert (est.t_segments, est.segment_size) == (40, 1)
        assert est.segment_partitions == [(1,)] * 40 and est.povm_proposals == 40

    def test_refused_before_any_draw(self):
        # The (d, 1) row-1 laws take 16 d^2 + 24 d bytes: d = 4096 is the
        # first over the cap. A draw would read the stream, here None.
        assert _product_table_bytes(4095, 1) <= protocol._TABLE_BYTES < _product_table_bytes(4096, 1)
        with pytest.raises(CapExceededError, match="row-1 laws"):
            baseline_single_copy_shadow(SimpleNamespace(d=4096), 5, None)

    @pytest.mark.parametrize("d", [3, 8])
    def test_law_matches_random_basis_measurement(self, d):
        # 2000 estimates of 5 copies of a rank-2 state from each side, and
        # two-sample z statistics: one per Re/Im entry of the mean estimate,
        # gated familywise, and one for the variance of tr(O chi_hat).
        chi = MixedState.random(d, 2, RngStream(99 + d))
        obs = off_diagonal_observable(d).matrix
        trials, n = 2000, 5
        sides = [
            np.array([baseline_single_copy_shadow(chi, n, RngStream(100).child(k)).matrix for k in range(trials)]),
            np.array([random_basis_shadow(chi, n, RngStream(101).child(k)) for k in range(trials)]),
        ]
        for part in (np.real, np.imag):
            got, want = (part(side) for side in sides)
            se = np.sqrt((got.var(axis=0) + want.var(axis=0)) / trials)
            z = np.abs(got.mean(axis=0) - want.mean(axis=0)) / np.maximum(se, 1e-300)
            assert np.max(np.where(se > 1e-12, z, 0.0)) <= z_threshold(2 * d * d, 4.0)
        variances, errors = [], []
        for side in sides:
            values = np.einsum("ab,kba->k", obs, side).real
            centred = values - values.mean()
            m2, m4 = np.mean(centred**2), np.mean(centred**4)
            variances.append(m2)
            errors.append((m4 - m2**2) / trials)
        assert abs(variances[0] - variances[1]) / np.sqrt(sum(errors)) <= 4.0
