import gc
import itertools
from collections import Counter

import numpy as np
import pytest

from oracles import (
    apply_permutation,
    brute_force_partitions,
    digit_tuples_brute_force,
    encode_basis,
    orthogonal_form_dense,
    semistandard_tableaux_count,
    standard_tableaux_count,
    weight_of,
    weights_brute_force,
    young_symmetrizer_apply,
    row_group,
    young_symmetrizer_apply_digits,
)
from schur_shadows.qudit import PureState, RngStream, digit_table
from schur_shadows.young import (
    BoxLayout,
    Partition,
    column_group,
    kappa_product,
    kostka_number,
    majorizes,
    multinomial_square_sum,
    orthogonal_form,
    partitions_of,
    specht_dim,
    standard_tableaux,
    symmetric_dim,
    weight_classes,
    weyl_dim,
)


def dense_symmetrizer(lam: Partition, d: int) -> np.ndarray:
    """Young symmetrizer as a dense matrix (test-side reference)."""
    mat = np.zeros((d**lam.n, d**lam.n))
    for idx, digits in enumerate(itertools.product(range(d), repeat=lam.n)):
        for out, val in young_symmetrizer_apply_digits(lam, digits).items():
            mat[encode_basis(out, d), idx] = val
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
        perms = set(row_group(Partition((2,))))
        assert perms == {(0, 1), (1, 0)}

    def test_row_group_single_column(self):
        perms = set(row_group(Partition((1, 1))))
        assert perms == {(0, 1)}

    def test_row_group_hook(self):
        perms = set(row_group(Partition((2, 1))))
        assert perms == {(0, 1, 2), (1, 0, 2)}

    def test_column_group_signs(self):
        def elements(lam):
            mappings, signs = column_group(lam)
            return list(zip(map(tuple, mappings.tolist()), signs.tolist()))

        assert elements(Partition((1, 1))) == [((0, 1), 1), ((1, 0), -1)]
        assert elements(Partition((2,))) == [((0, 1), 1)]
        # hook: column block {0, 2}, box 1 alone
        assert elements(Partition((2, 1))) == [((0, 1, 2), 1), ((2, 1, 0), -1)]
        # Three columns: each column's orderings taken lexicographically, the
        # last column fastest, and the sign the product of their parities.
        lam = Partition((3, 3, 2))
        blocks = BoxLayout(lam).column_blocks()
        want = []
        for images in itertools.product(*(itertools.permutations(block) for block in blocks)):
            mapping = dict(zip(itertools.chain(*blocks), itertools.chain(*images)))
            inversions = sum(a > b for image in images for a, b in itertools.combinations(image, 2))
            want.append((tuple(mapping[k] for k in range(lam.n)), (-1) ** inversions))
        assert elements(lam) == want

    def test_group_orders(self):
        lam = Partition((3, 2))
        assert len(list(row_group(lam))) == 6 * 2
        mappings, signs = column_group(lam)
        assert mappings.shape == (2 * 2, 5) and signs.shape == (2 * 2,)

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
                for w in weights_brute_force(n, d):
                    tuples = digit_tuples_brute_force(w)
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
        gen = RngStream(22).gen
        for lam in partitions_of(4, 3):
            amps = gen.standard_normal(81) + 1j * gen.standard_normal(81)
            state = PureState(3, 4, amps / np.linalg.norm(amps))
            image = young_symmetrizer_apply(lam, state)
            for mapping in row_group(lam):
                moved = apply_permutation(mapping, image)
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
        # The weight of a digit tuple's class in the weight-class table.
        classes, weights = weight_classes(d, len(digits))
        assert tuple(weights[classes.inverse[encode_basis(digits, d)]].tolist()) == expect

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
        assert list(map(tuple, weight_classes(d, n)[1].tolist())) == expect

    def test_reverse_lex_complete_and_sorted(self):
        got = list(map(tuple, weight_classes(3, 4)[1].tolist()))
        assert len(got) == len(set(got)) == 15
        assert got == sorted(got, reverse=True)
        assert all(sum(w) == 4 for w in got)

    @pytest.mark.parametrize("weight", [(2, 1), (1, 2, 1), (0, 3), (2, 0, 2), (1, 1, 1, 1), (0, 0)])
    def test_digit_tuples_in_index_order(self, weight):
        # The members of a weight's class, increasing, are its digit tuples in index order.
        d, n = len(weight), sum(weight)
        classes, weights = weight_classes(d, n)
        c = list(map(tuple, weights.tolist())).index(tuple(weight))
        members = classes.order[classes.starts[c] :][: classes.counts[c]]
        assert list(map(tuple, digit_table(d, n)[members].tolist())) == digit_tuples_brute_force(weight)

    @pytest.mark.parametrize("d,n", [(1, 3), (2, 1), (2, 6), (3, 4), (4, 3), (4, 5), (6, 3)])
    def test_weight_classes_match_brute_force(self, d, n):
        # Classes in reverse lexicographic order of their weights, each holding
        # the digit tuples of its weight in index order, multinom(n; w) of them.
        classes, weights = weight_classes(d, n)
        assert list(map(tuple, weights.tolist())) == weights_brute_force(n, d)
        tuples = list(itertools.product(range(d), repeat=n))
        for c, w in enumerate(map(tuple, weights.tolist())):
            members = classes.order[classes.starts[c] :][: classes.counts[c]]
            assert [tuples[i] for i in members.tolist()] == digit_tuples_brute_force(w)
            assert np.all(classes.inverse[members] == c)

    def test_enumerators_leave_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            partitions_of(6, 3)
            weight_classes.__wrapped__(3, 5)
            weight_classes.__wrapped__(4, 4)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0

    def test_specht_dim_counts_standard_tableaux(self):
        for n in range(1, 9):
            for parts in brute_force_partitions(n, n):
                lam = Partition(parts)
                assert specht_dim(lam) == standard_tableaux_count(parts) == len(standard_tableaux(lam)), parts

    def test_orthogonal_form_matches_the_brute_force_tableaux(self):
        # r and s_k T against the dense rho(s_k) of the lattice-word tableaux
        # (s_k T is T itself exactly where r = +-1); every parent is earlier
        # and reaches its child by its s_k, and each rho(s_k) is an
        # orthogonal involution.
        for n in range(1, 8):
            for parts in brute_force_partitions(n, n):
                axial, swap, parent = orthogonal_form(Partition(parts))
                assert np.array_equal(swap == np.arange(len(swap))[:, None], np.abs(axial) == 1), parts
                for k in range(n - 1):
                    rho = np.diag(1.0 / axial[:, k])
                    rho[swap[:, k], np.arange(len(rho))] += np.sqrt(1.0 - 1.0 / axial[:, k] ** 2)
                    assert np.array_equal(rho, orthogonal_form_dense(parts, k)), (parts, k)
                    assert np.max(np.abs(rho @ rho - np.eye(len(rho)))) < 1e-14, (parts, k)
                assert len(parent) == len(swap) - 1, parts
                for t, (p, k) in enumerate(parent, 1):
                    assert p < t and swap[p, k] == t and swap[t, k] == p, (parts, t)

    def test_kostka_number_counts_semistandard_tableaux(self):
        # Every weight of at most 4 parts, as a 4-tuple with zeros; the
        # weights of d symbols then sum to the U(d) irrep's dimension.
        for n in range(1, 8):
            weights = weights_brute_force(n, 4)
            for parts in brute_force_partitions(n, 4):
                lam = Partition(parts)
                for w in weights:
                    assert kostka_number(lam, w) == semistandard_tableaux_count(parts, w), (parts, w)
                for d in range(len(parts), 5):
                    assert sum(kostka_number(lam, w) for w in weights_brute_force(n, d)) == weyl_dim(lam, d), (parts, d)

    def test_multinomial_square_sum_counts_pairs_of_one_weight(self):
        # Against the pairs of digit tuples that share a weight, counted
        # tuple by tuple; n = 1 at any d, where every weight is e_a; and
        # one symbol at any n, counted at once.
        for d in range(1, 5):
            for n in range(0, 7 - d):
                sizes = Counter(weight_of(e, d) for e in itertools.product(range(d), repeat=n))
                assert multinomial_square_sum(d, n) == sum(size**2 for size in sizes.values()), (d, n)
        assert multinomial_square_sum(1 << 24, 1) == 1 << 24
        assert multinomial_square_sum(1, 10**6) == 1

    def test_symmetric_dims(self):
        assert symmetric_dim(2, 2) == 3
        assert symmetric_dim(1, 2) == 2
        assert kappa_product(Partition((2, 1)), 2) == 6
