"""Partitions, tableau box layouts, standard tableaux and Young's orthogonal
form on them (:func:`orthogonal_form`), Kostka numbers, the sum of squared
multinomials, the column group, the slot classes through
which symmetrizers act as class means, built once per register and block
set (:func:`register_classes`), and the weight classes of digit tuples
(:func:`weight_classes`), which every grouping by weight in the package
reads.

The canonical tableau is always filled row-major: boxes are numbered left to
right within a row, rows top to bottom. Box positions are 0-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qudit import digit_table, place_values


@dataclass(frozen=True)
class Partition:
    """Non-increasing positive parts summing to n."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if not parts or any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be non-increasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        """Number of (non-zero) parts."""
        return len(self.parts)

    def padded(self, length: int) -> tuple[int, ...]:
        return self.parts + (0,) * (length - len(self.parts))

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")"


def symmetric_dim(s: int, d: int) -> int:
    """Dimension kappa_s of the symmetric subspace of s qudits."""
    return math.comb(s + d - 1, d - 1)


def kappa_product(lam: "Partition", d: int) -> int:
    """Product of per-row symmetric-subspace dimensions: the normalisation
    of the row-symmetric POVM's product of per-row Haar densities."""
    out = 1
    for part in lam.parts:
        out *= symmetric_dim(part, d)
    return out


def weyl_dim(lam: "Partition", d: int) -> int:
    """Dimension of the U(d) irrep lam: the number of semistandard tableaux of
    shape lam with entries below d, by the hook-content formula."""
    num = den = 1
    cols = [sum(1 for part in lam.parts if part > c) for c in range(lam.parts[0])]
    for r, part in enumerate(lam.parts):
        for c in range(part):
            num *= d + c - r
            den *= (part - c) + (cols[c] - r) - 1
    return num // den


def specht_dim(lam: "Partition") -> int:
    """Dimension f^lam of the S_n irrep lam: the number of standard tableaux
    of shape lam, by the hook length formula."""
    hooks = 1
    cols = [sum(1 for part in lam.parts if part > c) for c in range(lam.parts[0])]
    for r, part in enumerate(lam.parts):
        for c in range(part):
            hooks *= (part - c) + (cols[c] - r) - 1
    return math.factorial(lam.n) // hooks


def kostka_number(lam: "Partition", weight) -> int:
    """Kostka number K_{lam,w}: the number of semistandard tableaux of shape
    lam and content w. K does not change when w is rearranged, so w is sorted
    first and the cached count is shared by every rearrangement."""
    return _kostka(lam.parts, tuple(sorted((int(w) for w in weight if w), reverse=True)))


@lru_cache(maxsize=1 << 12)
def _kostka(parts: tuple[int, ...], weight: tuple[int, ...]) -> int:
    """K with the boxes of the last symbol removed, a horizontal strip of
    weight[-1] boxes: summed over the shapes mu, zeros kept, with
    parts[r + 1] <= mu[r] <= parts[r] and weight[-1] boxes fewer."""
    if not weight:
        return int(not any(parts))
    ranges = [range(low, high + 1) for high, low in zip(parts, parts[1:] + (0,))]
    return sum(_kostka(mu, weight[:-1]) for mu in itertools.product(*ranges) if sum(parts) - sum(mu) == weight[-1])


def multinomial_square_sum(d: int, n: int) -> int:
    """sum_w multinom(n; w)^2 over the weights w of n on d symbols: the
    number of pairs of n-digit tuples of one weight."""
    return _square_sums(d, n)[n]


def _square_sums(d: int, n: int) -> list[int]:
    """:func:`multinomial_square_sum` of d symbols for m = 0..n. Split the
    symbols in two sets: multinom(m; w) is C(m, k) times the two parts'
    multinomials, k the count on the first, so d comes from d - 1 or d / 2
    in at most 2 log2 d steps, each O(n^2)."""
    if d < 2:
        return [1] * (n + 1) if d == 1 else [1] + [0] * n
    a, b = (_square_sums(d - 1, n), [1] * (n + 1)) if d % 2 else (_square_sums(d // 2, n),) * 2
    return [sum(math.comb(m, k) ** 2 * a[k] * b[m - k] for k in range(m + 1)) for m in range(n + 1)]


def _bounded_partitions(remaining: int, max_part: int, slots: int):
    """Parts <= max_part, at most ``slots`` of them, summing to ``remaining``."""
    if remaining == 0:
        yield ()
        return
    if slots == 0:
        return
    for head in range(min(max_part, remaining), 0, -1):
        for tail in _bounded_partitions(remaining - head, head, slots - 1):
            yield (head,) + tail


def partitions_of(n: int, d: int) -> list[Partition]:
    """All partitions of n into at most d parts, in decreasing lex order."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    return [Partition(p) for p in _bounded_partitions(n, n, d)]


@dataclass(frozen=True)
class BoxLayout:
    """Row-major box numbering of the Young diagram of a partition."""

    partition: Partition

    def box_position(self, row: int, col: int) -> int:
        """0-based linear position of box (row, col), both 0-based."""
        parts = self.partition.parts
        if not (0 <= row < len(parts) and 0 <= col < parts[row]):
            raise ValueError(f"box ({row}, {col}) outside shape {parts}")
        return sum(parts[:row]) + col

    def row_blocks(self) -> list[list[int]]:
        blocks, offset = [], 0
        for part in self.partition.parts:
            blocks.append(list(range(offset, offset + part)))
            offset += part
        return blocks

    def column_blocks(self) -> list[list[int]]:
        parts = self.partition.parts
        blocks = []
        for col in range(parts[0]):
            block = [self.box_position(row, col) for row in range(len(parts)) if parts[row] > col]
            blocks.append(block)
        return blocks


def column_group(lam: Partition) -> tuple[np.ndarray, np.ndarray]:
    """The column-stabilizing subgroup as (mappings, signs) arrays.

    ``mappings[g, k]`` is the image of box k under element g, and
    ``signs[g]`` its parity. Built as the product of each column's orderings,
    taken lexicographically, the last column fastest.
    """
    mappings = np.arange(lam.n, dtype=np.int64)[None, :]
    signs = np.ones(1, dtype=np.int64)
    for block in BoxLayout(lam).column_blocks():
        orders = np.array(list(itertools.permutations(range(len(block)))), dtype=np.int64)
        inversions = np.zeros(len(orders), dtype=np.int64)
        for a, b in itertools.combinations(range(len(block)), 2):
            inversions += orders[:, a] > orders[:, b]
        mappings = np.repeat(mappings, len(orders), axis=0)
        mappings[:, block] = np.tile(np.asarray(block)[orders], (len(signs), 1))
        signs = np.outer(signs, 1 - 2 * (inversions % 2)).ravel()
    return mappings, signs


def standard_tableaux(lam: Partition) -> list[tuple[int, ...]]:
    """Standard Young tableaux of shape ``lam`` with entries 0..n-1.

    Each is given by its entries at the row-major boxes, so ``mapping[k]`` is
    the entry of box k. Entries are placed in increasing order, trying the
    upper rows first, so the first tableau is the row-major filling: the
    identity.
    """
    tableaux = [[[] for _ in lam.parts]]
    for entry in range(lam.n):
        tableaux = [
            [row + [entry] if r == pick else row for r, row in enumerate(rows)]
            for rows in tableaux
            for pick, part in enumerate(lam.parts)
            if len(rows[pick]) < part and (pick == 0 or len(rows[pick]) < len(rows[pick - 1]))
        ]
    return [tuple(entry for row in rows for entry in row) for rows in tableaux]


@lru_cache(maxsize=64)
def orthogonal_form(lam: Partition) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
    """Young's orthogonal form of the S_n irrep ``lam`` on the vectors v_T of
    the :func:`standard_tableaux` T, in their order: with P_k the
    transposition of entries k and k + 1,

        P_k v_T = v_T / r + sqrt(1 - 1/r^2) v_{s_k T},

    where r = c_T(k + 1) - c_T(k) is the axial distance of the contents
    c = column - row of their boxes. When s_k T is not standard, r = +-1,
    the second term vanishes, and s_k T is taken as T.

    Returns ``axial``, the (f, n - 1) values r; ``swap``, the (f, n - 1)
    index of s_k T; and ``parent``, for each T after the first, in order,
    (p, k) with k the first descent of T's row word (entry k in a lower row
    than entry k + 1) and p the index of s_k T, which is standard and
    earlier, so v_T = (P_k v_p - v_p / r) / sqrt(1 - 1/r^2) with r =
    ``axial[p, k]``. The arrays are shared by the cache, so read-only.
    """
    tableaux = standard_tableaux(lam)
    index = {tableau: t for t, tableau in enumerate(tableaux)}
    rows = np.repeat(np.arange(lam.k), lam.parts)
    boxes = np.argsort(tableaux, axis=1)  # the box of each entry
    axial = np.diff((np.concatenate([np.arange(part) for part in lam.parts]) - rows)[boxes], axis=1).astype(float)
    swap = np.repeat(np.arange(len(tableaux))[:, None], lam.n - 1, axis=1)
    for (t, tableau), k in itertools.product(enumerate(tableaux), range(lam.n - 1)):
        swap[t, k] = index.get(tuple({k: k + 1, k + 1: k}.get(e, e) for e in tableau), t)
    # The first drop in each row word; the appended -1 puts one past the end of the first tableau's, which has none.
    first = np.argmax(np.diff(rows[boxes], axis=1, append=-1) < 0, axis=1)
    swap.setflags(write=False)
    axial.setflags(write=False)
    return axial, swap, tuple((int(swap[t, k]), int(k)) for t, k in enumerate(first) if t)


class SlotClasses:
    """Orbits of digit tuples, one per row of ``digits``, under the
    permutations within each block of slots: rows that agree outside the
    blocks and carry the same digit multiset on each. When the rows hold
    whole orbits, the product of the blocks' symmetrizers maps a vector
    indexed by the rows to its class means.
    """

    def __init__(self, digits: np.ndarray, d: int, blocks):
        canonical = digits.copy()
        for block in blocks:
            block = list(block)
            canonical[:, block] = np.sort(digits[:, block], axis=1)
        keys = canonical @ place_values(d, digits.shape[1])
        _, self.inverse, self.counts = np.unique(keys, return_inverse=True, return_counts=True)
        self.order = np.argsort(self.inverse, kind="stable")
        self.starts = np.concatenate(([0], np.cumsum(self.counts)[:-1]))

    def mean(self, vecs: np.ndarray) -> np.ndarray:
        """The block symmetrizers applied along axis 0 of ``vecs``."""
        sums = np.add.reduceat(vecs[self.order], self.starts, axis=0)
        sums /= self.counts.reshape((-1,) + (1,) * (vecs.ndim - 1))
        return sums[self.inverse]


def majorizes(lam: Partition, weight) -> bool:
    """True when every prefix sum of the sorted weight is <= that of lam."""
    weight = tuple(int(w) for w in weight)
    if sum(weight) != lam.n:
        raise ValueError(f"weight sums to {sum(weight)}, partition to {lam.n}")
    sorted_w = sorted(weight, reverse=True)
    parts = lam.padded(len(sorted_w))
    acc_w = acc_l = 0
    for w, p in zip(sorted_w, parts):
        acc_w += w
        acc_l += p
        if acc_w > acc_l:
            return False
    return True


@lru_cache(maxsize=256)
def register_classes(d: int, n: int, blocks: tuple[tuple[int, ...], ...]) -> SlotClasses:
    """The :class:`SlotClasses` of all n-digit tuples under the slot ``blocks``,
    built once per (d, n, blocks) and shared by every caller, so read-only.

    Give each block as a sorted tuple: the same blocks in another order are
    another key and build a second copy.
    """
    classes = SlotClasses(digit_table(d, n), d, blocks)
    for arr in (classes.inverse, classes.counts, classes.order, classes.starts):
        arr.setflags(write=False)
    return classes


@lru_cache(maxsize=64)
def weight_classes(d: int, n: int) -> tuple[SlotClasses, np.ndarray]:
    """The :func:`register_classes` of the n-digit tuples under all slot
    permutations (one block), and the (C, d) weight (symbol counts) of each
    class.

    Classes come in increasing index order of their sorted tuples
    0^{w_0} 1^{w_1} ..., and a tuple with more leading zeros, then more ones
    after them, and so on, is smaller: the weights come lexicographically
    largest first, so the unit weight e_a is class a. Class c holds the
    indices ``order[starts[c]:][:counts[c]]``, increasing, and its size
    ``counts[c]`` is multinom(n; w). The arrays are shared by the caches, so
    read-only.
    """
    classes = register_classes(d, n, (tuple(range(n)),))
    # The digits of each class's smallest member, decoded from its index.
    digits = classes.order[classes.starts][:, None] // place_values(d, n) % d
    weights = np.zeros((len(digits), d), dtype=np.int64)
    for column in digits.T:
        weights[np.arange(len(digits)), column] += 1
    weights.setflags(write=False)
    return classes, weights
