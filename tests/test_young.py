import gc
import itertools

import numpy as np
import pytest

from oracles import brute_force_partitions, young_symmetrizer_apply
from schur_shadows.qudit import PureState, RngStream, encode_basis
from schur_shadows.young import (
    BoxLayout,
    Partition,
    column_group,
    digit_tuples_of_weight,
    kappa_product,
    majorizes,
    partitions_of,
    row_group,
    symmetric_dim,
    weight_of,
    weights_reverse_lex,
    young_symmetrizer_terms,
)


def dense_symmetrizer(lam: Partition, d: int) -> np.ndarray:
    """Young symmetrizer as a dense matrix (test-side reference)."""
    dim = d**lam.n
    mat = np.zeros((dim, dim))
    for mapping, sign in young_symmetrizer_terms(lam):
        for idx in range(dim):
            digits = []
            v = idx
            for _ in range(lam.n):
                digits.append(v % d)
                v //= d
            digits = digits[::-1]
            out = [0] * lam.n
            for k, dig in enumerate(digits):
                out[mapping[k]] = dig
            mat[encode_basis(out, d), idx] += sign
    return mat


class TestPartitions:
    @pytest.mark.parametrize(
        "n,d,expect",
        [
            (2, 2, [(2,), (1, 1)]),
            (3, 2, [(3,), (2, 1)]),
            (4, 3, [(4,), (3, 1), (2, 2), (2, 1, 1)]),
        ],
    )
    def test_examples(self, n, d, expect):
        assert [p.parts for p in partitions_of(n, d)] == expect

    def test_against_brute_force(self):
        for n in range(1, 8):
            for d in range(1, 5):
                assert [p.parts for p in partitions_of(n, d)] == brute_force_partitions(n, d)

    def test_invalid_partition(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))


class TestGroups:
    def test_row_group_single_row(self):
        perms = {p.mapping for p in row_group(Partition((2,)))}
        assert perms == {(0, 1), (1, 0)}

    def test_row_group_single_column(self):
        perms = {p.mapping for p in row_group(Partition((1, 1)))}
        assert perms == {(0, 1)}

    def test_row_group_hook(self):
        perms = {p.mapping for p in row_group(Partition((2, 1)))}
        assert perms == {(0, 1, 2), (1, 0, 2)}

    def test_column_group_signs(self):
        got = {(p.mapping, s) for p, s in column_group(Partition((1, 1)))}
        assert got == {((0, 1), 1), ((1, 0), -1)}
        got = {(p.mapping, s) for p, s in column_group(Partition((2,)))}
        assert got == {((0, 1), 1)}
        # hook: column block {0, 2}, box 1 alone
        got = {(p.mapping, s) for p, s in column_group(Partition((2, 1)))}
        assert got == {((0, 1, 2), 1), ((2, 1, 0), -1)}

    def test_group_orders(self):
        lam = Partition((3, 2))
        assert len(list(row_group(lam))) == 6 * 2
        assert len(list(column_group(lam))) == 2 * 2

    def test_box_layout(self):
        layout = BoxLayout(Partition((4, 3, 1)))
        assert layout.box_position(0, 3) == 3
        assert layout.box_position(1, 0) == 4
        assert layout.box_position(2, 0) == 7
        assert layout.column_blocks()[0] == [0, 4, 7]
        with pytest.raises(ValueError):
            layout.box_position(2, 1)


class TestSymmetrizer:
    def test_antisymmetrizer_on_distinct(self):
        out = young_symmetrizer_apply(Partition((1, 1)), PureState.from_digits((0, 1), 2))
        expect = np.zeros(4, dtype=complex)
        expect[encode_basis((0, 1), 2)] = 1
        expect[encode_basis((1, 0), 2)] = -1
        assert np.allclose(out.amplitudes, expect)

    def test_antisymmetrizer_kills_repeats(self):
        out = young_symmetrizer_apply(Partition((1, 1)), PureState.from_digits((0, 0), 2))
        assert np.max(np.abs(out.amplitudes)) < 1e-14

    def test_hook_example(self):
        out = young_symmetrizer_apply(Partition((2, 1)), PureState.from_digits((0, 1, 1), 2))
        expect = np.zeros(8, dtype=complex)
        expect[encode_basis((0, 1, 1), 2)] = 1
        expect[encode_basis((1, 0, 1), 2)] = 1
        expect[encode_basis((1, 1, 0), 2)] = -2
        assert np.allclose(out.amplitudes, expect)

    def test_vanishing_under_non_majorization(self):
        # 200 random (lam, e) pairs whose weight is not majorized by lam
        gen = RngStream(21).gen
        checked = 0
        while checked < 200:
            n = int(gen.integers(2, 6))
            d = int(gen.integers(2, 4))
            lams = partitions_of(n, d)
            lam = lams[int(gen.integers(0, len(lams)))]
            digits = tuple(int(x) for x in gen.integers(0, d, size=n))
            if majorizes(lam, weight_of(digits, d)):
                continue
            out = young_symmetrizer_apply(lam, PureState.from_digits(digits, d))
            assert np.linalg.norm(out.amplitudes) < 1e-10
            checked += 1

    def test_projector_proportionality(self):
        # Y^2 = alpha Y with alpha > 0, relative residual below 1e-8
        for d in (2, 3):
            for n in range(2, 6):
                for lam in partitions_of(n, d):
                    mat = dense_symmetrizer(lam, d)
                    sq = mat @ mat
                    norm_sq = np.linalg.norm(mat) ** 2
                    alpha = float(np.sum(sq * mat) / norm_sq)
                    assert alpha > 0
                    assert np.linalg.norm(sq - alpha * mat) < 1e-8 * np.linalg.norm(mat)

    def test_lex_largest_weight_space_rank(self):
        # rank 1 exactly at the padded-partition weight, rank 0 above it
        for d, n in [(2, 4), (3, 4), (3, 5)]:
            for lam in partitions_of(n, d):
                target = lam.padded(d)
                seen_target = False
                for w in weights_reverse_lex(n, d):
                    tuples = digit_tuples_of_weight(w)
                    cols = []
                    for e in tuples:
                        out = young_symmetrizer_apply(lam, PureState.from_digits(e, d))
                        cols.append(out.amplitudes)
                    rank = np.linalg.matrix_rank(np.stack(cols, axis=1), tol=None)
                    if w == target:
                        assert rank == 1
                        seen_target = True
                        break
                    assert rank == 0
                assert seen_target

    def test_row_invariance_of_image(self):
        from schur_shadows.qudit import apply_permutation

        gen = RngStream(22).gen
        for lam in partitions_of(4, 3):
            amps = gen.standard_normal(81) + 1j * gen.standard_normal(81)
            state = PureState(3, 4, amps / np.linalg.norm(amps))
            image = young_symmetrizer_apply(lam, state)
            for perm in row_group(lam):
                moved = apply_permutation(perm, image)
                assert np.max(np.abs(moved.amplitudes - image.amplitudes)) < 1e-10

    def test_weight_preservation(self):
        lam = Partition((2, 1))
        for e in [(0, 1, 2), (1, 1, 0), (2, 2, 2)]:
            out = young_symmetrizer_apply(lam, PureState.from_digits(e, 3))
            w = weight_of(e, 3)
            for idx in np.nonzero(np.abs(out.amplitudes) > 1e-14)[0]:
                digits = []
                v = int(idx)
                for _ in range(3):
                    digits.append(v % 3)
                    v //= 3
                assert weight_of(tuple(digits[::-1]), 3) == w


class TestWeights:
    @pytest.mark.parametrize(
        "digits,d,expect",
        [((0, 0, 1), 2, (2, 1)), ((2,), 3, (0, 0, 1)), ((0, 1, 0, 1), 2, (2, 2))],
    )
    def test_weight_of(self, digits, d, expect):
        assert weight_of(digits, d) == expect

    def test_majorization_examples(self):
        assert not majorizes(Partition((2, 1)), (3, 0))
        assert majorizes(Partition((2, 1)), (1, 2))
        gen = RngStream(23).gen
        for _ in range(30):
            n = int(gen.integers(1, 8))
            d = int(gen.integers(1, 4))
            w = [0] * d
            for _ in range(n):
                w[int(gen.integers(0, d))] += 1
            assert majorizes(Partition((n,)), tuple(w))

    def test_majorization_sum_mismatch(self):
        with pytest.raises(ValueError):
            majorizes(Partition((2, 1)), (1, 1))

    @pytest.mark.parametrize(
        "n,d,expect",
        [
            (2, 2, [(2, 0), (1, 1), (0, 2)]),
            (1, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            (3, 2, [(3, 0), (2, 1), (1, 2), (0, 3)]),
        ],
    )
    def test_reverse_lex_order(self, n, d, expect):
        assert list(weights_reverse_lex(n, d)) == expect

    def test_reverse_lex_complete_and_sorted(self):
        got = list(weights_reverse_lex(4, 3))
        assert len(got) == len(set(got)) == 15
        assert got == sorted(got, reverse=True)
        assert all(sum(w) == 4 for w in got)

    @pytest.mark.parametrize("weight", [(2, 1), (1, 2, 1), (0, 3), (2, 0, 2), (1, 1, 1, 1), (0, 0)])
    def test_digit_tuples_in_index_order(self, weight):
        d, n = len(weight), sum(weight)
        want = [e for e in itertools.product(range(d), repeat=n) if weight_of(e, d) == tuple(weight)]
        assert digit_tuples_of_weight(weight) == want

    def test_enumerators_leave_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            partitions_of(6, 3)
            list(weights_reverse_lex(5, 3))
            for w in weights_reverse_lex(4, 3):
                digit_tuples_of_weight(w)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0

    def test_symmetric_dims(self):
        assert symmetric_dim(2, 2) == 3
        assert symmetric_dim(1, 2) == 2
        assert kappa_product(Partition((2, 1)), 2) == 6
