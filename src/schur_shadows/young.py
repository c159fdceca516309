"""Partitions, tableaux box layouts, row/column groups, and Young symmetrizers.

The canonical tableau is always filled row-major: boxes are numbered left to
right within a row, rows top to bottom. Box positions are 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .qudit import Permutation


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
    return comb(s + d - 1, d - 1)


def kappa_product(lam: "Partition", d: int) -> int:
    """Product of per-row symmetric-subspace dimensions; the POVM's
    expected rejection-trial count for in-subspace states."""
    out = 1
    for part in lam.parts:
        out *= symmetric_dim(part, d)
    return out


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


def _block_permutations(n: int, blocks: list[list[int]]):
    """Direct product of symmetric groups on the given position blocks.

    Yields (Permutation, sign) pairs; the sign is the parity of the element.
    """
    per_block = [list(itertools.permutations(block)) for block in blocks]
    for choice in itertools.product(*per_block):
        mapping = list(range(n))
        for block, image in zip(blocks, choice):
            for src, dst in zip(block, image):
                mapping[src] = dst
        perm = Permutation(tuple(mapping))
        yield perm, perm.sign


def row_group(lam: Partition):
    """Iterate the row-stabilizing permutations of the canonical tableau."""
    for perm, _ in _block_permutations(lam.n, BoxLayout(lam).row_blocks()):
        yield perm


def column_group(lam: Partition):
    """Iterate (permutation, sign) over the column-stabilizing subgroup."""
    yield from _block_permutations(lam.n, BoxLayout(lam).column_blocks())


@lru_cache(maxsize=None)
def young_symmetrizer_terms(lam: Partition) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Composed (row o column) permutation terms of the Young symmetrizer.

    Each entry is (mapping, sign): the symmetrizer is the signed sum of the
    corresponding permutation operators, column pass first.
    """
    rows = list(row_group(lam))
    cols = list(column_group(lam))
    terms = []
    for a in rows:
        for b, sign in cols:
            terms.append((a.compose(b).mapping, sign))
    return tuple(terms)


def young_symmetrizer_apply_digits(lam: Partition, digits) -> dict[tuple[int, ...], float]:
    """Young symmetrizer image of a basis state, as digit-tuple -> coefficient."""
    acc: dict[tuple[int, ...], float] = {}
    for mapping, sign in young_symmetrizer_terms(lam):
        out = [0] * len(digits)
        for k, dig in enumerate(digits):
            out[mapping[k]] = dig
        key = tuple(out)
        acc[key] = acc.get(key, 0.0) + sign
    return {key: val for key, val in acc.items() if val != 0.0}


def weight_of(digits, d: int) -> tuple[int, ...]:
    """Occurrence count of each symbol 0..d-1 in a digit sequence."""
    counts = [0] * d
    for dig in digits:
        counts[dig] += 1
    return tuple(counts)


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


def _compositions(remaining: int, slots: int):
    """Compositions of ``remaining`` into ``slots`` parts, largest first."""
    if slots == 1:
        yield (remaining,)
        return
    for head in range(remaining, -1, -1):
        for tail in _compositions(remaining - head, slots - 1):
            yield (head,) + tail


def weights_reverse_lex(n: int, d: int):
    """All compositions of n into d parts, lexicographically largest first."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    yield from _compositions(n, d)


def digit_tuples_of_weight(weight) -> list[tuple[int, ...]]:
    """All digit tuples with the given symbol counts, in increasing index order.

    Steps through the distinct permutations of the sorted tuple in
    lexicographic order, which for digit tuples is index order.
    """
    digits = [sym for sym, count in enumerate(weight) for _ in range(count)]
    out = [tuple(digits)]
    while True:
        # Rightmost ascent, then swap in the smallest larger digit after it.
        pivot = len(digits) - 2
        while pivot >= 0 and digits[pivot] >= digits[pivot + 1]:
            pivot -= 1
        if pivot < 0:
            return out
        swap = len(digits) - 1
        while digits[swap] <= digits[pivot]:
            swap -= 1
        digits[pivot], digits[swap] = digits[swap], digits[pivot]
        digits[pivot + 1 :] = reversed(digits[pivot + 1 :])
        out.append(tuple(digits))
