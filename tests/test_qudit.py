import numpy as np
import pytest

from schur_shadows.qudit import (
    OperatorGrid,
    Permutation,
    PureState,
    RngStream,
    apply_local_unitary,
    apply_permutation,
    decode_basis,
    digit_table,
    encode_basis,
    haar_pure_state,
    haar_unitary,
    haar_unitary_batch,
    partial_trace_keep,
    permuted_indices,
)


class TestBasisIndex:
    @pytest.mark.parametrize(
        "digits,d,value",
        [((0, 1), 2, 1), ((1, 1, 0), 2, 6), ((2, 0), 3, 6)],
    )
    def test_encode_examples(self, digits, d, value):
        assert encode_basis(digits, d) == value

    def test_roundtrip(self):
        gen = RngStream(1).gen
        for _ in range(200):
            d = int(gen.integers(2, 5))
            n = int(gen.integers(1, 7))
            digits = tuple(int(x) for x in gen.integers(0, d, size=n))
            assert decode_basis(encode_basis(digits, d), d, n) == digits

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError):
            encode_basis((0, 2), 2)


class TestCodec:
    @pytest.mark.parametrize("d,n", [(2, 5), (3, 3), (4, 2)])
    def test_digit_table_matches_decode_basis(self, d, n):
        table = digit_table(d, n)
        assert table.shape == (d**n, n)
        assert [tuple(row) for row in table.tolist()] == [decode_basis(v, d, n) for v in range(d**n)]

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3)])
    def test_permuted_indices_match_tensor_transpose(self, d, n):
        gen = RngStream(12 + d).gen
        perms = [Permutation.identity(n)] + [Permutation(tuple(gen.permutation(n).tolist())) for _ in range(6)]
        images = permuted_indices(digit_table(d, n), d, np.array([perm.mapping for perm in perms]))
        amps = gen.standard_normal(d**n) + 1j * gen.standard_normal(d**n)
        for perm, image in zip(perms, images):
            moved = np.empty_like(amps)
            moved[image] = amps
            assert np.array_equal(moved, apply_permutation(perm, PureState(d, n, amps)).amplitudes)
        assert np.array_equal(images[0], np.arange(d**n))


class TestPermutation:
    def test_transposition_on_basis_state(self):
        swap = Permutation.transposition(2, 0, 1)
        out = apply_permutation(swap, PureState.from_digits((0, 1), 2))
        assert np.allclose(out.amplitudes, PureState.from_digits((1, 0), 2).amplitudes)

    def test_identity(self):
        gen = RngStream(2).gen
        amps = gen.standard_normal(8) + 1j * gen.standard_normal(8)
        state = PureState(2, 3, amps / np.linalg.norm(amps))
        out = apply_permutation(Permutation.identity(3), state)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_three_cycle_on_qutrits(self):
        # cycle moving position 0 -> 1 -> 2 -> 0; |012> must become |201>
        cyc = Permutation((1, 2, 0))
        out = apply_permutation(cyc, PureState.from_digits((0, 1, 2), 3))
        assert np.allclose(out.amplitudes, PureState.from_digits((2, 0, 1), 3).amplitudes)

    def test_composition_matches_operator_product(self):
        gen = RngStream(3).gen
        for _ in range(25):
            n = int(gen.integers(2, 6))
            pi = Permutation(tuple(gen.permutation(n).tolist()))
            sigma = Permutation(tuple(gen.permutation(n).tolist()))
            amps = gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n)
            state = PureState(2, n, amps / np.linalg.norm(amps))
            via_compose = apply_permutation(pi.compose(sigma), state)
            via_sequence = apply_permutation(pi, apply_permutation(sigma, state))
            assert np.max(np.abs(via_compose.amplitudes - via_sequence.amplitudes)) < 1e-12

    def test_sign(self):
        assert Permutation.identity(4).sign == 1
        assert Permutation.transposition(4, 1, 3).sign == -1
        assert Permutation((1, 2, 0)).sign == 1

    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_permutation(Permutation.identity(2), PureState.from_digits((0, 0, 0), 2))


class TestLocalUnitary:
    def test_identity_and_flip(self):
        state = PureState.from_digits((0, 0), 2)
        eye = OperatorGrid.identity(2)
        assert np.allclose(apply_local_unitary(eye, state).amplitudes, state.amplitudes)
        flip = OperatorGrid(np.array([[0, 1], [1, 0]], dtype=complex))
        out = apply_local_unitary(flip, state)
        assert np.allclose(out.amplitudes, PureState.from_digits((1, 1), 2).amplitudes)

    def test_hadamard_single_qudit(self):
        had = OperatorGrid(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
        out = apply_local_unitary(had, PureState.from_digits((0,), 2))
        assert np.allclose(out.amplitudes, np.array([1, 1]) / np.sqrt(2))

    def test_rejects_non_unitary(self):
        bad = OperatorGrid(np.array([[1, 0], [0, 2]], dtype=complex))
        with pytest.raises(ValueError):
            apply_local_unitary(bad, PureState.from_digits((0,), 2))

    def test_commutes_with_permutations(self):
        # the two group actions commute on the tensor space
        rng = RngStream(4)
        gen = rng.gen
        for trial in range(10):
            n = int(gen.integers(2, 5))
            u = haar_unitary(3, rng.child(trial))
            pi = Permutation(tuple(gen.permutation(n).tolist()))
            amps = gen.standard_normal(3**n) + 1j * gen.standard_normal(3**n)
            state = PureState(3, n, amps / np.linalg.norm(amps))
            a = apply_permutation(pi, apply_local_unitary(u, state))
            b = apply_local_unitary(u, apply_permutation(pi, state))
            assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-10
            assert abs(a.norm - 1.0) < 1e-10


class TestPartialTrace:
    def test_keep_first_of_product(self):
        rho = PureState.from_digits((0, 0), 2).outer()
        reduced = partial_trace_keep(rho, [0], 2, 2)
        assert np.allclose(reduced.entries, np.diag([1.0, 0.0]))

    def test_bell_state_reduces_to_maximally_mixed(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / np.sqrt(2)
        rho = PureState(2, 2, amps).outer()
        reduced = partial_trace_keep(rho, [0], 2, 2)
        assert np.allclose(reduced.entries, np.eye(2) / 2)

    def test_swap_identity(self):
        # tracing the swap of (I tensor |0><0|) leaves |0><0| on the kept qudit
        swap = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                swap[encode_basis((j, i), 2), encode_basis((i, j), 2)] = 1.0
        op = swap @ np.kron(np.eye(2), np.diag([1.0, 0.0]))
        reduced = partial_trace_keep(OperatorGrid(op), [0], 2, 2)
        assert np.allclose(reduced.entries, np.diag([1.0, 0.0]))

    def test_trace_and_hermiticity_preserved(self):
        gen = RngStream(5).gen
        raw = gen.standard_normal((27, 27)) + 1j * gen.standard_normal((27, 27))
        herm = (raw + raw.conj().T) / 2
        reduced = partial_trace_keep(OperatorGrid(herm), [1, 2], 3, 3)
        assert abs(np.trace(reduced.entries) - np.trace(herm)) < 1e-12
        assert np.max(np.abs(reduced.entries - reduced.entries.conj().T)) < 1e-10

    def test_empty_keep_rejected(self):
        rho = PureState.from_digits((0, 0), 2).outer()
        with pytest.raises(ValueError):
            partial_trace_keep(rho, [], 2, 2)
        with pytest.raises(ValueError):
            partial_trace_keep(rho, [2], 2, 2)


class TestHaarSampling:
    def test_one_dimensional_state(self):
        state = haar_pure_state(1, RngStream(6))
        assert abs(abs(state.amplitudes[0]) - 1.0) < 1e-12

    def test_unitary_is_unitary(self):
        rng = RngStream(7)
        for trial in range(100):
            u = haar_unitary(3, rng.child(trial)).entries
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-10

    def test_one_dimensional_unitary_is_phase(self):
        u = haar_unitary(1, RngStream(8)).entries
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_first_moment_is_maximally_mixed(self):
        # E[|psi><psi|] = I/d; 1e5 draws, 3 sigma on each entry
        gen = RngStream(9).gen
        vecs = gen.standard_normal((100_000, 2)) + 1j * gen.standard_normal((100_000, 2))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        mean = vecs.T @ vecs.conj() / vecs.shape[0]
        # per-entry std of |psi_i|^2 terms is <= 1/sqrt(12 N) ~ 9e-4
        assert np.max(np.abs(mean - np.eye(2) / 2)) < 3 * 1.2e-3

    def test_second_moment_is_symmetric_projector(self):
        # kappa_2 E[psi^{x2}] should match (I + SWAP)/2 within 3 sigma
        gen = RngStream(10).gen
        count = 100_000
        vecs = gen.standard_normal((count, 2)) + 1j * gen.standard_normal((count, 2))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        prod = (vecs[:, :, None] * vecs[:, None, :]).reshape(count, 4)
        mean = 3 * (prod.T @ prod.conj()) / count
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[encode_basis((j, i), 2), encode_basis((i, j), 2)] = 1.0
        target = (np.eye(4) + swap) / 2
        assert np.max(np.abs(mean - target)) < 3 * 3e-3

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_unitary_is_the_one_draw_batch(self, d):
        for seed in range(10):
            one = haar_unitary(d, RngStream(seed)).entries
            batch = haar_unitary_batch(d, 1, RngStream(seed).gen)
            assert batch.shape == (1, d, d)
            assert one.tobytes() == batch[0].tobytes()

    def test_unitary_first_moment(self):
        # E[U |0><0| U^dag] = I/3 over 1e5 draws
        gen = RngStream(11).gen
        count = 100_000
        ginibre = gen.standard_normal((count, 3, 3)) + 1j * gen.standard_normal((count, 3, 3))
        q, r = np.linalg.qr(ginibre)
        phases = np.einsum("cii->ci", r)
        cols = (q * (phases / np.abs(phases))[:, None, :])[:, :, 0]
        mean = np.einsum("ca,cb->ab", cols, cols.conj()) / count
        assert np.max(np.abs(mean - np.eye(3) / 3)) < 3 * 1.5e-3


class TestRngStream:
    def test_determinism(self):
        a = RngStream(123, 5).gen.standard_normal(16)
        b = RngStream(123, 5).gen.standard_normal(16)
        assert np.array_equal(a, b)

    def test_children_are_independent_and_reproducible(self):
        root = RngStream(7)
        c1 = root.child(0).gen.standard_normal(8)
        c2 = root.child(1).gen.standard_normal(8)
        assert not np.allclose(c1, c2)
        again = RngStream(7).child(0).gen.standard_normal(8)
        assert np.array_equal(c1, again)

    def test_negative_ids_allowed(self):
        a = RngStream(3).child(-1).gen.standard_normal(4)
        b = RngStream(3).child(-1).gen.standard_normal(4)
        assert np.array_equal(a, b)


class TestCaps:
    def test_dense_cap_enforced(self):
        from schur_shadows.qudit import CapExceededError

        with pytest.raises(CapExceededError):
            PureState(2, 25, np.zeros(2**25))
