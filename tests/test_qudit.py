import numpy as np
import pytest

from oracles import apply_permutation, decode_basis, encode_basis
from schur_shadows.qudit import (
    OperatorGrid,
    PureState,
    RngStream,
    apply_local_unitary,
    digit_table,
    haar_pure_state_batch,
    haar_unitary,
    permuted_indices,
    place_values,
)


def permuted(mapping, state: PureState) -> np.ndarray:
    """The amplitudes of ``state`` with qudit k moved to position ``mapping[k]``, by :func:`permuted_indices`."""
    image = permuted_indices(digit_table(state.d, state.n), state.d, np.array([mapping]))[0]
    out = np.empty_like(state.amplitudes)
    out[image] = state.amplitudes
    return out


class TestBasisIndex:
    @pytest.mark.parametrize(
        "digits,d,value",
        [((0, 1), 2, 1), ((1, 1, 0), 2, 6), ((2, 0), 3, 6)],
    )
    def test_encode_examples(self, digits, d, value):
        assert np.array(digits) @ place_values(d, len(digits)) == value
        assert np.flatnonzero(PureState.from_digits(digits, d).amplitudes).tolist() == [value]

    def test_roundtrip(self):
        gen = RngStream(1).gen
        for _ in range(200):
            d = int(gen.integers(2, 5))
            n = int(gen.integers(1, 7))
            digits = gen.integers(0, d, size=n)
            assert np.array_equal(digit_table(d, n)[digits @ place_values(d, n)], digits)

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            PureState.from_digits((0, 2), 2)
        with pytest.raises(ValueError, match="out of range"):
            PureState.from_digits((-1, 0), 2)


class TestCodec:
    @pytest.mark.parametrize("d,n", [(2, 5), (3, 3), (4, 2)])
    def test_digit_table_matches_decode_basis(self, d, n):
        table = digit_table(d, n)
        assert table.shape == (d**n, n)
        assert [tuple(row) for row in table.tolist()] == [decode_basis(v, d, n) for v in range(d**n)]

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3)])
    def test_permuted_indices_match_tensor_transpose(self, d, n):
        gen = RngStream(12 + d).gen
        perms = [tuple(range(n))] + [tuple(gen.permutation(n).tolist()) for _ in range(6)]
        images = permuted_indices(digit_table(d, n), d, np.array(perms))
        amps = gen.standard_normal(d**n) + 1j * gen.standard_normal(d**n)
        for perm, image in zip(perms, images):
            moved = np.empty_like(amps)
            moved[image] = amps
            assert np.array_equal(moved, apply_permutation(perm, PureState(d, n, amps)).amplitudes)
        assert np.array_equal(images[0], np.arange(d**n))


class TestPermutation:
    """The position convention of :func:`permuted_indices`: qudit k moves to position mapping[k]."""

    def test_transposition_on_basis_state(self):
        out = permuted((1, 0), PureState.from_digits((0, 1), 2))
        assert np.array_equal(out, PureState.from_digits((1, 0), 2).amplitudes)

    def test_identity(self):
        gen = RngStream(2).gen
        amps = gen.standard_normal(8) + 1j * gen.standard_normal(8)
        state = PureState(2, 3, amps / np.linalg.norm(amps))
        assert np.array_equal(permuted((0, 1, 2), state), state.amplitudes)

    def test_three_cycle_on_qutrits(self):
        # cycle moving position 0 -> 1 -> 2 -> 0; |012> must become |201>
        out = permuted((1, 2, 0), PureState.from_digits((0, 1, 2), 3))
        assert np.array_equal(out, PureState.from_digits((2, 0, 1), 3).amplitudes)

    def test_composition_matches_operator_product(self):
        gen = RngStream(3).gen
        for _ in range(25):
            n = int(gen.integers(2, 6))
            pi, sigma = gen.permutation(n), gen.permutation(n)
            amps = gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n)
            state = PureState(2, n, amps / np.linalg.norm(amps))
            # pi o sigma: sigma acts first.
            via_compose = permuted(pi[sigma], state)
            via_sequence = permuted(pi, PureState(2, n, permuted(sigma, state)))
            assert np.array_equal(via_compose, via_sequence)


class TestLocalUnitary:
    def test_identity_and_flip(self):
        state = PureState.from_digits((0, 0), 2)
        eye = OperatorGrid(np.eye(2))
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
            pi = gen.permutation(n)
            amps = gen.standard_normal(3**n) + 1j * gen.standard_normal(3**n)
            state = PureState(3, n, amps / np.linalg.norm(amps))
            a = permuted(pi, apply_local_unitary(u, state))
            b = apply_local_unitary(u, PureState(3, n, permuted(pi, state))).amplitudes
            assert np.max(np.abs(a - b)) < 1e-10
            assert abs(np.linalg.norm(a) - 1.0) < 1e-10


class TestHaarSampling:
    def test_one_dimensional_state(self):
        vecs = haar_pure_state_batch(1, 1, RngStream(6).gen)
        assert vecs.shape == (1, 1)
        assert abs(abs(vecs[0, 0]) - 1.0) < 1e-12

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

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_unitary_is_the_one_draw_batch(self, d):
        # Bit for bit the phase-corrected QR of a stack of one Ginibre matrix,
        # the formula that seeded states were drawn with.
        for seed in range(10):
            gen = RngStream(seed).gen
            ginibre = gen.standard_normal((1, d, d)) + 1j * gen.standard_normal((1, d, d))
            q, r = np.linalg.qr(ginibre)
            diag = np.diagonal(r, axis1=1, axis2=2)
            batch = q * (diag / np.abs(diag))[:, None, :]
            assert haar_unitary(d, RngStream(seed)).entries.tobytes() == batch[0].tobytes()

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

    @pytest.mark.parametrize("seed,a,b", [(0, 0, 0), (11, 4, -3), (2**40, -1, 7)])
    def test_stream_is_the_seed_sequence_of_its_path(self, seed, a, b):
        # The contract, stated without the class: the root has stream id 0,
        # and each id k of the path enters the spawn key as 2k, or -2k - 1
        # when negative.
        def zigzag(path):
            return tuple(2 * k if k >= 0 else -2 * k - 1 for k in path)

        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=zigzag((0, a, b)))))
        got = RngStream(seed).child(a).child(b).gen
        assert np.array_equal(got.standard_normal(8), want.standard_normal(8))
        assert np.array_equal(got.integers(1 << 62, size=4), want.integers(1 << 62, size=4))

    def test_generator_is_built_on_first_read(self, monkeypatch):
        built = []
        real = np.random.SeedSequence

        def counting(*args, **kwargs):
            built.append(kwargs.get("spawn_key"))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        root = RngStream(5)
        leaf = root.child(2).child(-1).child(3)
        assert built == []
        gen = leaf.gen
        assert leaf.gen is gen and built == [(0, 4, 1, 6)]

    def test_negative_master_seed_refused_at_construction(self):
        with pytest.raises(ValueError, match="master seed must be a non-negative integer"):
            RngStream(-1)


class TestCaps:
    def test_dense_cap_enforced(self):
        from schur_shadows.qudit import CapExceededError

        with pytest.raises(CapExceededError):
            PureState(2, 25, np.zeros(2**25))
