import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from oracles import (
    block_probabilities,
    chi2_sf,
    chi_square,
    dense_basis_matrix,
    save_basis_records,
    semistandard_tableaux_count,
    standard_tableaux_count,
)
from schur_shadows.basis import (
    BasisCacheError,
    SchurBasis,
    build_basis,
    build_q_bases,
    load_basis,
    save_basis,
    schur_measure,
    verify_nice_basis,
)
from schur_shadows.qudit import (
    PureState,
    RngStream,
    apply_local_unitary,
    encode_basis,
    haar_unitary,
)
from schur_shadows.young import Partition, partitions_of, weights_reverse_lex
from test_young import dense_symmetrizer


class TestQBases:
    def test_symmetric_block_d2_n2(self):
        weights, vectors = build_q_bases(2, 2)[Partition((2,))]
        assert weights == [(2, 0), (1, 1), (0, 2)]
        dense = [v.to_dense(4) for v in vectors]
        assert np.allclose(dense[0], [1, 0, 0, 0])
        assert np.allclose(dense[1], [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])
        assert np.allclose(dense[2], [0, 0, 0, 1])

    def test_singlet_block_d2_n2(self):
        weights, vectors = build_q_bases(2, 2)[Partition((1, 1))]
        assert weights == [(1, 1)]
        dense = vectors[0].to_dense(4)
        assert np.allclose(dense, [0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0])

    def test_hook_block_d2_n3(self):
        weights, vectors = build_q_bases(2, 3)[Partition((2, 1))]
        assert len(vectors) == 2
        first = vectors[0].to_dense(8)
        expect = np.zeros(8)
        expect[encode_basis((0, 0, 1), 2)] = 2
        expect[encode_basis((0, 1, 0), 2)] = -1
        expect[encode_basis((1, 0, 0), 2)] = -1
        assert np.allclose(first, expect / np.sqrt(6))

    @pytest.mark.parametrize("d,n", [(2, 3), (2, 4), (3, 3), (3, 4), (4, 3)])
    def test_dim_q_matches_symmetrizer_rank(self, d, n):
        seeds = build_q_bases(d, n)
        for lam in partitions_of(n, d):
            mat = dense_symmetrizer(lam, d)
            svals = np.linalg.svd(mat, compute_uv=False)
            rank = int(np.sum(svals > 1e-9 * svals[0]))
            assert len(seeds[lam][1]) == rank

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 4), (4, 3)])
    def test_vectors_lie_in_symmetrizer_image(self, d, n):
        seeds = build_q_bases(d, n)
        for lam in partitions_of(n, d):
            mat = dense_symmetrizer(lam, d)
            proj = mat @ np.linalg.pinv(mat)  # projector onto the column space
            for vec in seeds[lam][1]:
                dense = vec.to_dense(d**n)
                assert np.linalg.norm(proj @ dense - dense) < 1e-9


class TestCompletion:
    @pytest.mark.parametrize(
        "d,n,expect",
        [
            (2, 2, {(2,): (3, 1), (1, 1): (1, 1)}),
            (2, 3, {(3,): (4, 1), (2, 1): (2, 2)}),
            (3, 3, {(3,): (10, 1), (2, 1): (8, 2), (1, 1, 1): (1, 1)}),
        ],
    )
    def test_dimensions(self, basis_for, d, n, expect):
        basis = basis_for(d, n)
        got = {lam.parts: (b.dim_q, b.dim_p) for lam, b in basis.blocks.items()}
        assert got == expect
        assert sum(q * p for q, p in got.values()) == d**n

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (3, 4), (2, 7), (2, 8), (4, 5)])
    def test_dim_p_matches_tableau_count(self, basis_for, d, n):
        basis = basis_for(d, n)
        for lam, block in basis.blocks.items():
            assert block.dim_p == standard_tableaux_count(lam.parts)

    @pytest.mark.parametrize("d,n", [(2, 7), (4, 5)])
    def test_dim_q_per_weight_is_kostka_number(self, basis_for, d, n):
        basis = basis_for(d, n)
        for lam, block in basis.blocks.items():
            for w in weights_reverse_lex(n, d):
                assert block.weight_of_i.count(w) == semistandard_tableaux_count(lam.parts, w)

    @pytest.mark.parametrize("d,n", [(2, 3), (2, 4), (3, 3), (3, 4)])
    def test_orthonormal_and_weight_pure(self, basis_for, d, n):
        basis = basis_for(d, n)
        assert basis.gram_deviation() < 1e-9
        from schur_shadows.young import weight_of

        for lam, block in basis.blocks.items():
            for (i, _j), vec in block.vectors.items():
                want = block.weight_of_i[i]
                for idx in vec.indices:
                    digits = []
                    v = int(idx)
                    for _ in range(n):
                        digits.append(v % d)
                        v //= d
                    assert weight_of(tuple(digits[::-1]), d) == want

    def test_base_case_weights_differ(self, basis_for):
        # vector (0, 0) owns its weight: no other i shares it
        for d, n in [(2, 4), (3, 3), (3, 4)]:
            basis = basis_for(d, n)
            for block in basis.blocks.values():
                w0 = block.weight_of_i[0]
                assert all(w != w0 for w in block.weight_of_i[1:])

    @pytest.mark.parametrize("d,n", [(2, 3), (2, 7), (4, 5), (4, 6), (6, 5)])
    def test_verify_report_clean(self, basis_for, d, n):
        report = verify_nice_basis(basis_for(d, n))
        assert report["gram_deviation"] < 1e-9
        assert report["vector_count_ok"]
        assert report["weight_purity_violation"] == 0.0
        assert report["u_closure_residual"] < 1e-12
        assert report["pi_closure_residual"] < 1e-12

    def test_build_and_verify_memory_is_blockwise(self):
        # Build and verify hold a few (d^n, largest block) arrays at a time. The
        # d^n x d^n matrix alone would take d^n / largest = 5.95 such units here.
        d, n = 5, 4
        # Lazy imports and first-call set-up stay outside the measurement.
        verify_nice_basis(build_basis(2, 3))
        tracemalloc.start()
        try:
            basis = build_basis(d, n)
            verify_nice_basis(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = max(max(b.dim_q, b.dim_p) for b in basis.blocks.values())
        assert peak < 5 * d**n * largest * 16

    def test_identity_maps_give_zero_residual(self, basis_for):
        # The weight slices put every basis vector, bit for bit, where the
        # dense oracle matrix has it, and the identity map leaves each
        # (lam, j) block's columns in the span of that block.
        for d, n in [(2, 3), (3, 3), (2, 5)]:
            basis = basis_for(d, n)
            mat, slices = dense_basis_matrix(basis)
            lams = list(basis.blocks)
            rebuilt = np.zeros_like(mat)
            for piece in basis.weight_slices().values():
                cols = [slices[(lams[b], j)].start + i for b, i, j in piece.keys.tolist()]
                rebuilt[np.ix_(piece.indices, cols)] = piece.matrix
            assert np.array_equal(rebuilt, mat), (d, n)
            for cols in slices.values():
                block = mat[:, cols]
                assert np.max(np.abs(block - block @ (block.conj().T @ block))) < 1e-12


def write_out_of_range_file(path) -> None:
    """A d = 2, n = 1 basis file whose second vector's index is 7, re-checksummed."""
    save_basis(build_basis(2, 1), path)
    raw = bytearray(path.read_bytes())
    # The last record is the second vector's only amplitude: index, re, im.
    raw[-24:-16] = struct.pack("<Q", 7)
    raw[20:24] = struct.pack("<I", zlib.crc32(bytes(raw[24:])))
    path.write_bytes(bytes(raw))


def _random_state(d: int, n: int, seed: int) -> PureState:
    gen = RngStream(seed).gen
    amps = gen.standard_normal(d**n) + 1j * gen.standard_normal(d**n)
    return PureState(d, n, amps / np.linalg.norm(amps))


class TestSchurMeasurement:
    def test_all_zeros_is_symmetric(self, basis_for):
        basis = basis_for(2, 2)
        state = PureState.from_digits((0, 0), 2)
        probs = block_probabilities(basis, state)
        assert probs[(Partition((2,)), 0)] == pytest.approx(1.0, abs=1e-12)
        lam, j, tau = schur_measure(basis, state.amplitudes, RngStream(1))
        assert lam.parts == (2,) and j == 0
        assert np.allclose(tau, state.amplitudes)

    def test_singlet(self, basis_for):
        basis = basis_for(2, 2)
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1 / np.sqrt(2)
        amps[2] = -1 / np.sqrt(2)
        probs = block_probabilities(basis, PureState(2, 2, amps))
        assert probs[(Partition((1, 1)), 0)] == pytest.approx(1.0, abs=1e-12)
        lam, j, tau = schur_measure(basis, amps, RngStream(2))
        assert lam.parts == (1, 1) and j == 0
        assert np.allclose(tau, amps)

    def test_01_splits_evenly(self, basis_for):
        basis = basis_for(2, 2)
        probs = block_probabilities(basis, PureState.from_digits((0, 1), 2))
        assert probs[(Partition((2,)), 0)] == pytest.approx(0.5, abs=1e-12)
        assert probs[(Partition((1, 1)), 0)] == pytest.approx(0.5, abs=1e-12)

    def test_probabilities_sum_to_one(self, basis_for):
        basis = basis_for(3, 3)
        state = _random_state(3, 3, 32)
        probs = block_probabilities(basis, state)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
        # schur_measure refuses a state whose probabilities do not sum to 1
        lam, j, tau = schur_measure(basis, state.amplitudes, RngStream(31))
        assert probs[(lam, j)] > 0
        assert np.linalg.norm(tau) == pytest.approx(1.0, abs=1e-12)

    def test_measurement_statistics(self, basis_for):
        # empirical (lam, j) frequencies over 1e5 repeats within 4 sigma
        basis = basis_for(2, 3)
        state = _random_state(2, 3, 33)
        probs = block_probabilities(basis, state)
        rng = RngStream(34)
        counts = {key: 0 for key in probs}
        repeats = 100_000
        for _ in range(repeats):
            lam, j, _tau = schur_measure(basis, state.amplitudes, rng)
            counts[(lam, j)] += 1
        for key, p in probs.items():
            se = np.sqrt(p * (1 - p) / repeats)
            assert abs(counts[key] / repeats - p) <= 4 * se + 1e-12

    def test_post_state_in_block(self, basis_for):
        # tau lies in the (lam, 0) block and carries the state's (lam, j)
        # coefficients, renormalized
        basis = basis_for(2, 3)
        state = _random_state(2, 3, 35)
        lam, j, tau = schur_measure(basis, state.amplitudes, RngStream(36))
        mat, slices = dense_basis_matrix(basis)
        cols_0 = mat[:, slices[(lam, 0)]]
        assert np.linalg.norm(tau - cols_0 @ (cols_0.conj().T @ tau)) < 1e-10
        assert abs(np.linalg.norm(tau) - 1) < 1e-10
        block = basis.blocks[lam]
        want = np.array([np.vdot(block.vectors[(i, j)].to_dense(8), state.amplitudes) for i in range(block.dim_q)])
        got = np.array([np.vdot(block.vectors[(i, 0)].to_dense(8), tau) for i in range(block.dim_q)])
        assert np.max(np.abs(got - want / np.linalg.norm(want))) < 1e-10

    def test_beyond_the_dense_size(self, basis_for):
        # d^n = 7776: a d^n x d^n matrix would take 0.97 GB. On a random
        # (d^n, 2) state the lam counts of 300 draws match the sparse-sum
        # probabilities, and each tau is the drawn (lam, j) coefficients,
        # renormalized, on the (lam, 0) vectors.
        d, n, draws = 6, 5, 300
        basis = basis_for(d, n)
        gen = RngStream(901).gen
        amps = gen.standard_normal((d**n, 2)) + 1j * gen.standard_normal((d**n, 2))
        amps /= np.linalg.norm(amps)
        want = {}
        for col in amps.T:
            weight = np.linalg.norm(col) ** 2
            for (lam, _j), p in block_probabilities(basis, PureState(d, n, col / np.sqrt(weight))).items():
                want[lam.parts] = want.get(lam.parts, 0.0) + weight * p
        counts = {}
        rng = RngStream(902)
        for _ in range(draws):
            lam, j, tau = schur_measure(basis, amps, rng)
            counts[lam.parts] = counts.get(lam.parts, 0) + 1
            block = basis.blocks[lam]
            coeffs = _SparseColumns([block.vectors[(i, j)] for i in range(block.dim_q)]).adjoint(amps)
            base = _SparseColumns([block.vectors[(i, 0)] for i in range(block.dim_q)])
            got = base.adjoint(tau)
            assert np.max(np.abs(got - coeffs / np.linalg.norm(coeffs))) < 1e-10
            assert np.linalg.norm(tau - base.combine(got, d**n)) < 1e-10
        assert set(counts) <= set(want)
        stat, df = chi_square(counts, want)
        assert chi2_sf(stat, df) >= 1e-4, (stat, df)


class _SparseColumns:
    """Sparse vectors as stored entries, each tagged with its vector's position."""

    def __init__(self, vectors):
        self.count = len(vectors)
        self.indices = np.concatenate([vec.indices for vec in vectors])
        self.amplitudes = np.concatenate([vec.amplitudes for vec in vectors])
        self.owner = np.repeat(np.arange(len(vectors)), [vec.indices.size for vec in vectors])

    def adjoint(self, amps: np.ndarray) -> np.ndarray:
        """Row k is <vectors[k]| amps."""
        out = np.zeros((self.count, amps.shape[1]), dtype=np.complex128)
        np.add.at(out, self.owner, self.amplitudes.conj()[:, None] * amps[self.indices])
        return out

    def combine(self, coeffs: np.ndarray, dim: int) -> np.ndarray:
        """sum_k vectors[k] coeffs[k], as a (dim, columns) array."""
        out = np.zeros((dim, coeffs.shape[1]), dtype=np.complex128)
        np.add.at(out, self.indices, self.amplitudes[:, None] * coeffs[self.owner])
        return out


class TestChangeOfBasis:
    def test_j_zero_is_identity(self, basis_for):
        basis = basis_for(2, 3)
        lam = Partition((2, 1))
        vec = basis.vector(lam, 1, 0).to_dense(8)
        got_lam, j, tau = schur_measure(basis, vec, RngStream(40))
        assert (got_lam, j) == (lam, 0)
        assert np.allclose(tau, vec)

    def test_maps_j_block_to_base_block(self, basis_for):
        basis = basis_for(2, 3)
        lam = Partition((2, 1))
        vec = basis.vector(lam, 0, 1).to_dense(8)
        got_lam, j, tau = schur_measure(basis, vec, RngStream(41))
        assert (got_lam, j) == (lam, 1)
        assert np.allclose(tau, basis.vector(lam, 0, 0).to_dense(8))

    def test_preserves_coefficients(self, basis_for):
        basis = basis_for(2, 3)
        lam = Partition((2, 1))
        gen = RngStream(37).gen
        coeff = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        coeff /= np.linalg.norm(coeff)
        state = coeff[0] * basis.vector(lam, 0, 1).to_dense(8) + coeff[1] * basis.vector(
            lam, 1, 1
        ).to_dense(8)
        got_lam, j, tau = schur_measure(basis, state, RngStream(42))
        assert (got_lam, j) == (lam, 1)
        expect = coeff[0] * basis.vector(lam, 0, 0).to_dense(8) + coeff[1] * basis.vector(
            lam, 1, 0
        ).to_dense(8)
        assert np.max(np.abs(tau - expect)) < 1e-10
        assert abs(np.linalg.norm(tau) - 1) < 1e-10

    def test_rejects_state_outside_block(self, basis_for):
        # the measurement refuses a state of the wrong shape or norm
        basis = basis_for(2, 3)
        with pytest.raises(ValueError, match="rows"):
            schur_measure(basis, PureState.from_digits((0, 0), 2).amplitudes, RngStream(43))
        with pytest.raises(ValueError, match="rows"):
            schur_measure(basis, PureState.from_digits((0, 0, 0), 2).amplitudes.reshape(1, 8), RngStream(43))
        with pytest.raises(ValueError, match="sum to"):
            schur_measure(basis, 2 * PureState.from_digits((0, 0, 0), 2).amplitudes, RngStream(43))

    def test_commutes_with_collective_unitaries(self, basis_for):
        # measuring U^{x n} s gives U^{x n} times the outcome for s, seed for seed
        basis = basis_for(2, 3)
        gen = RngStream(38).gen
        rng = RngStream(39)
        for trial in range(20):
            amps = gen.standard_normal(8) + 1j * gen.standard_normal(8)
            state = PureState(2, 3, amps / np.linalg.norm(amps))
            u = haar_unitary(2, rng.child(trial))
            lam_a, j_a, a = schur_measure(basis, apply_local_unitary(u, state).amplitudes, RngStream(44).child(trial))
            lam_b, j_b, b = schur_measure(basis, state.amplitudes, RngStream(44).child(trial))
            assert (lam_a, j_a) == (lam_b, j_b)
            moved = apply_local_unitary(u, PureState(2, 3, b)).amplitudes
            assert np.max(np.abs(a - moved)) < 1e-8


class TestPersistence:
    def test_roundtrip_bit_exact(self, basis_for, tmp_path):
        basis = basis_for(2, 3)
        path = tmp_path / "b.schb"
        save_basis(basis, path)
        loaded = load_basis(path)
        assert loaded.d == 2 and loaded.n == 3
        for lam, block in basis.blocks.items():
            other = loaded.blocks[lam]
            assert other.dim_q == block.dim_q and other.dim_p == block.dim_p
            assert other.weight_of_i == block.weight_of_i
            for key, vec in block.vectors.items():
                assert np.array_equal(other.vectors[key].indices, vec.indices)
                assert np.array_equal(other.vectors[key].amplitudes, vec.amplitudes)

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (4, 3)])
    def test_bytes_match_per_amplitude_records(self, basis_for, tmp_path, d, n):
        basis = basis_for(d, n)
        save_basis(basis, tmp_path / "a.schb")
        save_basis_records(basis, tmp_path / "b.schb")
        assert (tmp_path / "a.schb").read_bytes() == (tmp_path / "b.schb").read_bytes()

    def test_index_beyond_dimension(self, tmp_path):
        path = tmp_path / "bad.schb"
        write_out_of_range_file(path)
        with pytest.raises(BasisCacheError, match="malformed file: amplitude index 7"):
            load_basis(path)

    def test_truncated_file_fails_checksum(self, basis_for, tmp_path):
        path = tmp_path / "b.schb"
        save_basis(basis_for(2, 3), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(BasisCacheError, match="checksum|truncated"):
            load_basis(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.schb"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(BasisCacheError, match="magic"):
            load_basis(path)

    def test_version_mismatch(self, basis_for, tmp_path):
        path = tmp_path / "b.schb"
        save_basis(basis_for(2, 2), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(BasisCacheError, match="version"):
            load_basis(path)

    def test_vector_count_mismatch(self, tmp_path):
        # d=2, n=2 header, but the single block claims 5 basis vectors
        body = bytearray()
        body += struct.pack("<I", 1)  # partition (2)
        body += struct.pack("<I", 2)
        body += struct.pack("<II", 5, 1)  # dim_q = 5, dim_p = 1
        for _ in range(5):
            body += struct.pack("<II", 1, 1)  # weights (1, 1)
        for i in range(5):
            body += struct.pack("<Q", 1)
            body += struct.pack("<Qdd", i % 4, 1.0, 0.0)
        header = b"SCHB" + struct.pack("<IIIII", 1, 2, 2, 1, zlib.crc32(bytes(body)))
        path = tmp_path / "bad.schb"
        path.write_bytes(header + bytes(body))
        with pytest.raises(BasisCacheError, match="count mismatch"):
            load_basis(path)

    def test_perturbed_amplitude_detected_by_verify(self, basis_for, tmp_path):
        # a re-checksummed perturbation loads fine but fails verification
        basis = basis_for(2, 2)
        lam = Partition((2,))
        block = basis.blocks[lam]
        vec = block.vectors[(1, 0)]
        tampered = type(vec)(vec.indices, vec.amplitudes + np.array([1e-3, 0]))
        block_vectors = dict(block.vectors)
        block_vectors[(1, 0)] = tampered
        blocks = dict(basis.blocks)
        blocks[lam] = type(block)(lam, block.dim_q, block.dim_p, block.weight_of_i, block_vectors)
        hacked = SchurBasis(2, 2, blocks)
        path = tmp_path / "tampered.schb"
        save_basis(hacked, path)
        report = verify_nice_basis(load_basis(path))
        assert report["gram_deviation"] > 1e-4
