import itertools
import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from oracles import (
    apply_permutation,
    block_frames,
    block_probabilities,
    chi2_sf,
    chi_square,
    decode_basis,
    dense_basis_matrix,
    dense_stage1,
    edited_basis,
    encode_basis,
    isotypic_probabilities,
    rotate,
    save_basis_records,
    semistandard_tableaux_count,
    standard_tableaux_brute_force,
    standard_tableaux_count,
    tableau_content,
    verify_per_slice,
    weight_of,
    weights_brute_force,
    write_old_format_file,
)
from schur_shadows import basis as basis_mod
from schur_shadows import young
from schur_shadows.basis import (
    BasisCacheError,
    build_basis,
    build_q_bases,
    load_basis,
    save_basis,
    schur_measure,
    verify_nice_basis,
)
from schur_shadows.cli import main
from schur_shadows.qudit import (
    CapExceededError,
    PureState,
    RngStream,
    apply_local_unitary,
    haar_unitary,
)
from schur_shadows.young import Partition, partitions_of
from test_young import dense_symmetrizer


class TestQBases:
    def test_symmetric_block_d2_n2(self):
        weights, dense = dense_stage1(build_q_bases(2, 2)[Partition((2,))], 4)
        assert weights == [(2, 0), (1, 1), (0, 2)]
        assert np.allclose(dense[0], [1, 0, 0, 0])
        assert np.allclose(dense[1], [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])
        assert np.allclose(dense[2], [0, 0, 0, 1])

    def test_singlet_block_d2_n2(self):
        weights, dense = dense_stage1(build_q_bases(2, 2)[Partition((1, 1))], 4)
        assert weights == [(1, 1)]
        assert np.allclose(dense[0], [0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0])

    def test_hook_block_d2_n3(self):
        _, vectors = dense_stage1(build_q_bases(2, 3)[Partition((2, 1))], 8)
        assert len(vectors) == 2
        first = vectors[0]
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
            assert sum(image.columns.shape[1] for image in seeds[lam]) == rank
            assert all(image.columns.dtype == np.float64 for image in seeds[lam])

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 4), (4, 3)])
    def test_vectors_lie_in_symmetrizer_image(self, d, n):
        seeds = build_q_bases(d, n)
        for lam in partitions_of(n, d):
            mat = dense_symmetrizer(lam, d)
            proj = mat @ np.linalg.pinv(mat)  # projector onto the column space
            for dense in dense_stage1(seeds[lam], d**n)[1]:
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
            for w in weights_brute_force(n, d):
                assert block.weight_of_i.count(w) == semistandard_tableaux_count(lam.parts, w)

    @pytest.mark.parametrize("d,n", [(2, 3), (2, 4), (3, 3), (3, 4)])
    def test_orthonormal_and_weight_pure(self, basis_for, d, n):
        basis = basis_for(d, n)
        assert basis.gram_deviation() < 1e-9
        blocks = list(basis.blocks.values())
        assert list(basis.slices) == weights_brute_force(n, d)
        for w, piece in basis.slices.items():
            assert piece.matrix.dtype == np.float64
            # The slice's rows are the indices of weight w, and each column
            # is a vector (lam, i, j) whose i has weight w.
            assert [weight_of(decode_basis(int(x), d, n), d) for x in piece.indices] == [w] * len(piece.indices)
            assert all(blocks[b].weight_of_i[i] == w for b, i, _j in piece.keys.tolist())

    @pytest.mark.parametrize("d,n", [(3, 4), (4, 3), (2, 5)])
    def test_j_zero_layer_is_stage_one(self, basis_for, d, n):
        # Stage 2 forms the layers of decreasing weights and relabels them for
        # the other weights, flipping column signs as stage 1 flipped them: its
        # (lam, i, 0) vectors are stage 1's, bit for bit, and no entry is -0.0.
        basis = basis_for(d, n)
        for b, images in enumerate(build_q_bases(d, n).values()):
            first = 0
            for image in images:
                piece, count = basis.slices[image.weight], image.columns.shape[1]
                cols = [np.flatnonzero(np.all(piece.keys == (b, i, 0), axis=1))[0] for i in range(first, first + count)]
                assert piece.matrix[:, cols].tobytes() == image.columns.tobytes(), (image.weight, b)
                assert not np.signbit(image.columns[image.columns == 0.0]).any()
                first += count
        for piece in basis.slices.values():
            assert not np.signbit(piece.matrix[piece.matrix == 0.0]).any()

    def test_stage_one_is_checked_against_the_layout(self):
        # One check serves stage 2 and the product path: a stage 1 whose
        # partitions, weights or counts are not the layout's is refused.
        real = build_q_bases(3, 3)
        lam = Partition((2, 1))
        basis_mod.check_stage1(3, 3, real)
        with pytest.raises(basis_mod.SpanExtractionError, match="partitions are not those of 3"):
            basis_mod.check_stage1(3, 3, dict(reversed(real.items())))
        # K_{(2,1),(1,1,1)} = 2: its two columns as two images of one weight.
        images = list(real[lam])
        k = next(k for k, image in enumerate(images) if image.weight == (1, 1, 1))
        split = [basis_mod.ImageBlock(images[k].weight, images[k].indices, images[k].columns[:, [c]]) for c in (0, 1)]
        with pytest.raises(basis_mod.SpanExtractionError, match=r"partition \(2,1\) are not its weights in order"):
            basis_mod.check_stage1(3, 3, {**real, lam: images[:k] + split + images[k + 1 :]})
        message = r"4 vectors of partition \(2,1\) and weight \(1, 1, 1\), but K = 2"
        with pytest.raises(basis_mod.SpanExtractionError, match=message):
            basis_mod.check_stage1(3, 3, {**real, lam: images[:k] + split + images[k:]})

    def test_base_case_weights_differ(self, basis_for):
        # vector (0, 0) owns its weight: no other i shares it
        for d, n in [(2, 4), (3, 3), (3, 4)]:
            basis = basis_for(d, n)
            for block in basis.blocks.values():
                w0 = block.weight_of_i[0]
                assert all(w != w0 for w in block.weight_of_i[1:])

    # (1, 3) has no generator pair, (3, 1) and (2, 1) no transposition.
    @pytest.mark.parametrize("d,n", [(2, 3), (2, 7), (4, 5), (4, 6), (6, 5), (1, 3), (3, 1), (2, 1)])
    def test_verify_report_clean(self, basis_for, d, n):
        report = verify_nice_basis(basis_for(d, n))
        assert report["gram_deviation"] < 1e-9
        assert report["vector_count_ok"]
        assert report["weight_purity_violation"] == 0.0
        assert report["u_closure_residual"] < 1e-12
        assert report["pi_closure_residual"] < 1e-12
        # The closures that any nice Schur basis has hold too.
        want = verify_per_slice(basis_for(d, n))
        assert want["u_block_closure"] < 1e-12
        assert want["pi_block_closure"] < 1e-12

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

    def test_verify_memory_is_bounded_by_the_largest_slice(self, basis_for):
        # Batches stack slices only up to a fixed size, and a larger slice is
        # read in place: verify at (2, 10) peaks below 2.9 times its largest
        # slice (252 x 252), the pi check's two arrays of one slice's size
        # (2.5 times); a third, such as a squared copy for the column norms,
        # reads 3.3 times.
        basis = basis_for(2, 10)
        verify_nice_basis(basis_for(2, 3))
        tracemalloc.start()
        try:
            verify_nice_basis(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.9 * max(p.matrix.nbytes for p in basis.slices.values())

    def test_gram_check_memory_is_one_slice(self, basis_for):
        # The Gram check takes 1 off the Gram's diagonal in place: at (2, 10)
        # it peaks below 1.5 times its largest slice (252 x 252), where an
        # identity and a difference of the Gram's size took 2.0 times.
        basis = basis_for(2, 10)
        basis_for(2, 3).gram_deviation()
        tracemalloc.start()
        try:
            assert basis.gram_deviation() < 1e-9
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * max(p.matrix.nbytes for p in basis.slices.values())

    @pytest.mark.parametrize("d,n", [(3, 7), (4, 6)])
    def test_completion_memory_is_below_twice_the_basis(self, d, n):
        # Stage 2 writes every layer straight into its preallocated V_w, so
        # with the caches warm it peaks below twice the finished basis.
        q_bases = build_q_bases(d, n)
        build_basis(d, n)
        tracemalloc.start()
        try:
            basis = basis_mod.schur_basis_completion(d, n, q_bases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * sum(matrix.nbytes for matrix in basis.matrices.values())

    def test_identity_maps_give_zero_residual(self, basis_for):
        # Against references that read no basis: the slices, laid out as one
        # d^n x d^n matrix, form an orthogonal matrix, and each (lam, j)
        # block spans the oracle's frame of it, so the (lam, i, 0) columns
        # span the oracle's Young symmetrizer image. At (3, 4) and (4, 3)
        # stage 2 relabels layers and flips column signs.
        for d, n in [(2, 3), (3, 3), (2, 5), (3, 4), (4, 3)]:
            basis = basis_for(d, n)
            mat, slices = dense_basis_matrix(basis)
            assert np.max(np.abs(mat.T @ mat - np.eye(d**n))) < 1e-12, (d, n)
            frames = block_frames(d, n)
            assert set(frames) == set(slices)
            for key, cols in slices.items():
                block, frame = mat[:, cols], frames[key]
                assert np.max(np.abs(block @ block.T - frame @ frame.conj().T)) < 1e-12, (d, n, key)


def basis_bytes(d: int, n: int) -> int:
    """8 sum_w multinom(n; w)^2, summed over every weight w."""
    weights = [w for w in itertools.product(range(n + 1), repeat=d) if sum(w) == n]
    return 8 * sum((math.factorial(n) // math.prod(map(math.factorial, w))) ** 2 for w in weights)


class TestBasisCap:
    """A basis too large to hold is refused by its bytes before stage 1."""

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 12)])
    def test_refused_before_any_table(self, monkeypatch, d, n):
        # (2, 16) would take 4.5 GiB and (3, 12) 71 GiB; no table is built.
        def refuse(*args):
            raise AssertionError("a table was built before the refusal")

        monkeypatch.setattr(basis_mod, "build_q_bases", refuse)
        monkeypatch.setattr(young, "digit_table", refuse)
        message = f"d={d}, n={n}: 8 sum_w multinom\\(n; w\\)\\^2 = {basis_bytes(d, n)} bytes"
        with pytest.raises(CapExceededError, match=message):
            build_basis(d, n)
        with pytest.raises(CapExceededError, match=message):
            basis_mod.schur_basis_completion(d, n, {})

    def test_admits_every_point_built(self):
        # The largest points that tests, workloads and the ROADMAP build fit.
        for d, n in [(2, 14), (3, 9), (4, 8), (6, 5), (4, 7), (8, 3), (1, 64)]:
            assert basis_bytes(d, n) <= basis_mod._BASIS_BYTES
            basis_mod._check_basis_bytes(d, n)
        for d, n in [(3, 10), (5, 8), (2, 18)]:
            assert basis_bytes(d, n) > basis_mod._BASIS_BYTES
            with pytest.raises(CapExceededError):
                basis_mod._check_basis_bytes(d, n)


BASIS_COLD_GRID = [(2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5), (5, 4)]


def rotated_bases():
    """A (2, 4) basis with vectors ((3,1), 1, 0) and ((3,1), 1, 1) rotated into
    each other, which breaks U-closure, and a (3, 3) basis with its two
    ((2,1), i, 0) of weight (1,1,1) rotated into each other, which breaks
    pi-closure; each with the residual it breaks."""
    lam = Partition((2, 1))
    base = build_basis(3, 3)
    first, second = [i for i, w in enumerate(base.blocks[lam].weight_of_i) if tuple(w) == (1, 1, 1)]
    return [
        (edited_basis(build_basis(2, 4), Partition((3, 1)), 1, rotate((1, 0), (1, 1))), "u_closure_residual"),
        (edited_basis(base, lam, first, rotate((first, 0), (second, 0))), "pi_closure_residual"),
    ]


class TestVerifyBatches:
    """The batched products of ``verify_nice_basis`` against the per-slice
    loops of ``oracles.verify_per_slice``."""

    @staticmethod
    def assert_matches_reference(basis):
        report, want = verify_nice_basis(basis), verify_per_slice(basis)
        for key in basis_mod.VERIFY_LIMITS:
            assert abs(report[key] - want[key]) <= 1e-15, (basis.d, basis.n, key, report[key], want[key])
        return want

    @pytest.mark.parametrize("d,n", BASIS_COLD_GRID)
    def test_matches_per_slice_reference(self, basis_for, d, n):
        want = self.assert_matches_reference(basis_for(d, n))
        assert want["u_block_closure"] < 1e-12
        assert want["pi_block_closure"] < 1e-12

    def test_edited_bases_match_and_fail(self):
        for basis, broken in rotated_bases():
            self.assert_matches_reference(basis)
            assert verify_nice_basis(basis)[broken] > 1e-8

    @pytest.mark.parametrize("cap", [1, 1 << 10, 1 << 30])
    def test_any_batch_cap_gives_the_same_report(self, basis_for, monkeypatch, cap):
        # 1: every product alone; 2^10: slices up to 32 x 32 batched; 2^30:
        # every group in one batch.
        monkeypatch.setattr(basis_mod, "_BATCH_ENTRIES", cap)
        for d, n in [(2, 6), (3, 4), (4, 4)]:
            self.assert_matches_reference(basis_for(d, n))
        for basis, _ in rotated_bases():
            self.assert_matches_reference(basis)


def negate_column(i: int, j: int):
    """An edit for :func:`edited_basis` that negates the column of (i, j)."""

    def edit(matrix, column):
        matrix[:, column[(i, j)]] *= -1.0

    return edit


def negate_layer(j: int):
    """An edit for :func:`edited_basis` that negates every (i, j) column."""

    def edit(matrix, column):
        for (_, layer), c in column.items():
            if layer == j:
                matrix[:, c] *= -1.0

    return edit


def swap_layers(first: int, second: int):
    """An edit for :func:`edited_basis` that swaps the (i, first) and
    (i, second) columns of every i."""

    def edit(matrix, column):
        for (i, layer), c in column.items():
            if layer == first:
                matrix[:, [c, column[(i, second)]]] = matrix[:, [column[(i, second)], c]]

    return edit


class TestOrthogonalForm:
    """Stage 2's layers are Young's orthogonal form, and verify reads it."""

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (4, 4)])
    def test_columns_are_jucys_murphy_eigenvectors(self, basis_for, d, n):
        # X_k = sum_{e<k} (e k) acts on |lam, i, T> as c_T(k), and
        # <lam, i, s_k T| P_k |lam, i, T> = +sqrt(1 - 1/r^2), r = c_T(k+1) - c_T(k):
        # transpositions by tensor transposes, tableaux by brute force.
        basis = basis_for(d, n)

        def transposition(a, b):
            mapping = list(range(n))
            mapping[a], mapping[b] = b, a
            return mapping

        def act(mapping, vector):
            return apply_permutation(mapping, PureState(d, n, vector)).amplitudes.real

        checked = 0
        for lam, block in basis.blocks.items():
            tableaux = standard_tableaux_brute_force(lam.parts)
            dense = {key: vector.to_dense(d**n) for key, vector in block.vectors.items()}
            for (i, j), v in dense.items():
                tableau = tableaux[j]
                for k in range(1, n):
                    x_k = sum(act(transposition(e, k), v) for e in range(k))
                    assert np.max(np.abs(x_k - tableau_content(lam.parts, tableau, k) * v)) < 1e-12, (lam, i, j, k)
                for k in range(n - 1):
                    swapped = tuple({k: k + 1, k + 1: k}.get(e, e) for e in tableau)
                    if swapped in tableaux:
                        r = tableau_content(lam.parts, tableau, k + 1) - tableau_content(lam.parts, tableau, k)
                        overlap = dense[(i, tableaux.index(swapped))] @ act(transposition(k, k + 1), v)
                        assert abs(overlap - math.sqrt(1 - 1 / r**2)) < 1e-12, (lam, i, j, k)
                        checked += 1
        assert checked > 0

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 4)])
    @pytest.mark.parametrize(
        "name,edit", [("column", negate_column(1, 1)), ("layer", negate_layer(1)), ("swap", swap_layers(1, 2))]
    )
    def test_edited_layers_are_refused(self, basis_for, tmp_path, d, n, name, edit):
        # (3,1) has three standard tableaux. Each edit keeps the basis
        # orthonormal and every (lam, i) and (lam, j) block closed, but breaks
        # the form that ties the i labels across j.
        edited = edited_basis(basis_for(d, n), Partition((3, 1)), 1 if name == "column" else None, edit)
        report = verify_nice_basis(edited)
        assert report["pi_closure_residual"] > 1e-8
        assert report["gram_deviation"] < 1e-9
        want = TestVerifyBatches.assert_matches_reference(edited)
        if name == "column":
            # Closure of the blocks alone does not see a negated column.
            assert want["u_block_closure"] < 1e-12 and want["pi_block_closure"] < 1e-12
        path = tmp_path / f"{name}.schb"
        save_basis(edited, path)
        assert main(["basis", "verify", "--path", str(path)]) == 1


def write_bad_shape_file(path) -> None:
    """A d = 2, n = 2 basis file with one f64 entry too many after the last
    slice, re-checksummed: 7 entries, where the slices of weights (2, 0),
    (1, 1) and (0, 2) take multinom(2; w)^2 = 1 + 4 + 1 = 6."""
    save_basis(build_basis(2, 2), path)
    raw = bytearray(path.read_bytes()) + struct.pack("<d", 0.0)
    assert len(raw) == 20 + 7 * 8
    raw[16:20] = struct.pack("<I", zlib.crc32(bytes(raw[20:])))
    path.write_bytes(bytes(raw))


def write_header(path, d: int, n: int, body: bytes = b"", version: int = 3) -> None:
    """A basis file of ``body`` under a header for (d, n), checksum right."""
    path.write_bytes(b"SCHB" + struct.pack("<IIII", version, d, n, zlib.crc32(body)) + body)


def _random_state(d: int, n: int, seed: int) -> PureState:
    gen = RngStream(seed).gen
    amps = gen.standard_normal(d**n) + 1j * gen.standard_normal(d**n)
    return PureState(d, n, amps / np.linalg.norm(amps))


class TestSchurMeasurement:
    def test_all_zeros_is_symmetric(self, basis_for):
        basis = basis_for(2, 2)
        state = PureState.from_digits((0, 0), 2)
        probs = block_probabilities(state)
        assert probs[(Partition((2,)), 0)] == pytest.approx(1.0, abs=1e-12)
        lam, j, tau = schur_measure(basis, state.amplitudes, RngStream(1))
        assert lam.parts == (2,) and j == 0
        assert np.allclose(tau, state.amplitudes)

    def test_singlet(self, basis_for):
        basis = basis_for(2, 2)
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1 / np.sqrt(2)
        amps[2] = -1 / np.sqrt(2)
        probs = block_probabilities(PureState(2, 2, amps))
        assert probs[(Partition((1, 1)), 0)] == pytest.approx(1.0, abs=1e-12)
        lam, j, tau = schur_measure(basis, amps, RngStream(2))
        assert lam.parts == (1, 1) and j == 0
        assert np.allclose(tau, amps)

    def test_01_splits_evenly(self, basis_for):
        probs = block_probabilities(PureState.from_digits((0, 1), 2))
        assert probs[(Partition((2,)), 0)] == pytest.approx(0.5, abs=1e-12)
        assert probs[(Partition((1, 1)), 0)] == pytest.approx(0.5, abs=1e-12)

    def test_probabilities_sum_to_one(self, basis_for):
        basis = basis_for(3, 3)
        state = _random_state(3, 3, 32)
        probs = block_probabilities(state)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
        # schur_measure refuses a state whose probabilities do not sum to 1
        lam, j, tau = schur_measure(basis, state.amplitudes, RngStream(31))
        assert probs[(lam, j)] > 0
        assert np.linalg.norm(tau) == pytest.approx(1.0, abs=1e-12)

    def test_measurement_statistics(self, basis_for):
        # empirical (lam, j) frequencies over 1e5 repeats within 4 sigma
        basis = basis_for(2, 3)
        state = _random_state(2, 3, 33)
        probs = block_probabilities(state)
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
        # (d^n, 2) state the lam counts of 300 draws match the isotypic
        # probabilities of the S_n characters, and each tau is the drawn
        # (lam, j) coefficients, renormalized, on the (lam, 0) vectors.
        d, n, draws = 6, 5, 300
        basis = basis_for(d, n)
        gen = RngStream(901).gen
        amps = gen.standard_normal((d**n, 2)) + 1j * gen.standard_normal((d**n, 2))
        amps /= np.linalg.norm(amps)
        want = isotypic_probabilities(amps, d, n)
        assert sum(want.values()) == pytest.approx(1.0, abs=1e-12)
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
        vec = basis.blocks[lam].vectors[(1, 0)].to_dense(8)
        got_lam, j, tau = schur_measure(basis, vec, RngStream(40))
        assert (got_lam, j) == (lam, 0)
        assert np.allclose(tau, vec)

    def test_maps_j_block_to_base_block(self, basis_for):
        basis = basis_for(2, 3)
        lam = Partition((2, 1))
        vec = basis.blocks[lam].vectors[(0, 1)].to_dense(8)
        got_lam, j, tau = schur_measure(basis, vec, RngStream(41))
        assert (got_lam, j) == (lam, 1)
        assert np.allclose(tau, basis.blocks[lam].vectors[(0, 0)].to_dense(8))

    def test_preserves_coefficients(self, basis_for):
        basis = basis_for(2, 3)
        lam = Partition((2, 1))
        vec = {key: v.to_dense(8) for key, v in basis.blocks[lam].vectors.items()}
        gen = RngStream(37).gen
        coeff = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        coeff /= np.linalg.norm(coeff)
        state = coeff[0] * vec[(0, 1)] + coeff[1] * vec[(1, 1)]
        got_lam, j, tau = schur_measure(basis, state, RngStream(42))
        assert (got_lam, j) == (lam, 1)
        expect = coeff[0] * vec[(0, 0)] + coeff[1] * vec[(1, 0)]
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
        assert list(loaded.slices) == list(basis.slices)
        for w, piece in basis.slices.items():
            other = loaded.slices[w]
            assert other.matrix.dtype == np.float64 and other.matrix.tobytes() == piece.matrix.tobytes()
            assert np.array_equal(other.indices, piece.indices)
            assert np.array_equal(other.keys, piece.keys) and np.array_equal(other.outcome, piece.outcome)
        # The read-only (i, j) view agrees too.
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

    def test_slice_shape_disagrees_with_multinom(self, tmp_path):
        # (d, n) fixes every slice's shape, so only the body's length can
        # disagree: one entry over, then one entry short, checksums fixed.
        path = tmp_path / "bad.schb"
        write_bad_shape_file(path)
        with pytest.raises(BasisCacheError, match=r"the body holds 56 bytes, but the slices of d=2, n=2 take 8 sum_w multinom\(n; w\)\^2 = 48"):
            load_basis(path)
        write_header(path, 2, 2, path.read_bytes()[20:-16])
        with pytest.raises(BasisCacheError, match=r"the body holds 40 bytes, but the slices of d=2, n=2 take"):
            load_basis(path)

    @pytest.mark.parametrize("d,n", [(0, 3), (2, 1000), (1, 10**6)])
    def test_header_sizes_are_checked_first(self, tmp_path, d, n):
        # Before any table is built: d = 0 used to end in an IndexError.
        path = tmp_path / "header.schb"
        write_header(path, d, n)
        with pytest.raises(BasisCacheError, match=f"no basis has d={d}, n={n}"):
            load_basis(path)

    @pytest.mark.parametrize("d,n", [(2, 24), (4096, 2)])
    def test_short_body_is_refused_before_any_table(self, tmp_path, d, n):
        # d^n = 2^24, the largest size accepted: its digit and weight tables
        # would take hundreds of MB or more, and a body of 8 d^n bytes 128 MB.
        path = tmp_path / "short.schb"
        write_header(path, d, n)
        tracemalloc.start()
        try:
            with pytest.raises(BasisCacheError, match=r"the body holds 0 bytes, fewer than 8 d\^n = 134217728"):
                load_basis(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_weight_table_over_the_cap_is_refused_before_it_is_built(self, tmp_path, monkeypatch):
        # (16384, 1): a body of 8 d bytes is the right length, but the (C, d)
        # weight table of its C = d weights would take 2 GiB.
        def refuse(*args):
            raise AssertionError("the weight table was built before the refusal")

        monkeypatch.setattr(basis_mod, "_weight_rows", refuse)
        path = tmp_path / "wide.schb"
        write_header(path, 16384, 1, bytes(8 * 16384))
        with pytest.raises(CapExceededError, match="weight table of 8 C d = 2147483648 bytes"):
            load_basis(path)

    def test_v1_file_is_refused(self, tmp_path):
        path = tmp_path / "old.schb"
        write_old_format_file(path, 1)
        with pytest.raises(BasisCacheError, match="format version 1"):
            load_basis(path)

    def test_v2_file_is_refused(self, tmp_path):
        path = tmp_path / "old.schb"
        write_old_format_file(path, 2)
        with pytest.raises(BasisCacheError, match="format version 2"):
            load_basis(path)

    def test_v2_file_is_at_most_half_of_v1(self, basis_for, tmp_path):
        # Version 1 stored a u64 index and a complex amplitude per nonzero
        # entry; versions 2 and 3 store each slice's real entries, zeros
        # included, and version 3 nothing else after its 20-byte header.
        basis = basis_for(4, 5)
        save_basis(basis, tmp_path / "b.schb")
        v1 = sum(8 + 24 * vec.indices.size for block in basis.blocks.values() for vec in block.vectors.values())
        v3 = (tmp_path / "b.schb").stat().st_size
        assert v3 <= v1 / 2 and v3 == 20 + 8 * sum(p.matrix.size for p in basis.slices.values())

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

    def test_perturbed_amplitude_detected_by_verify(self, basis_for, tmp_path):
        # a re-checksummed perturbation loads fine but fails verification
        basis = basis_for(2, 2)

        def nudge(matrix, column):
            matrix[0, column[(1, 0)]] += 1e-3

        hacked = edited_basis(basis, Partition((2,)), 1, nudge)
        path = tmp_path / "tampered.schb"
        save_basis(hacked, path)
        report = verify_nice_basis(load_basis(path))
        assert report["gram_deviation"] > 1e-4
