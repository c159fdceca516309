"""Construction, verification, persistence, and use of the nice Schur basis.

The basis {|(lam, i, j)>} is built in two stages, each computed from a
definition with no search:

1. :func:`build_q_bases`: the ``j = 0`` layer of each partition, an
   orthonormal weight-pure basis of its Young symmetrizer's image.
2. :func:`schur_basis_completion`: the other ``j`` layers, by the two-term
   recursion of Young's orthogonal form (:func:`orthogonal_form`), which
   fixes the ``j`` convention: j runs over the standard tableaux.

Both stages form decreasing weights only: relabelling the digits commutes
with the Young symmetrizer and with qudit permutations, so every other
weight's vectors are its decreasing rearrangement's, with rows permuted and
columns signed by one rule (:func:`_relabel`). Stage 2 reads stage 1's
decreasing-weight images only, and a basis over :data:`_BASIS_BYTES` is
refused before stage 1.

Every vector is real and supported on a single weight subspace, so the
multinom(n; w) vectors of weight w are the columns of one real orthogonal
matrix V_w on the weight-w slice. (d, n) fixes every label: lam runs over
the partitions of n into at most d parts, j over the f^lam standard
tableaux, and i over K_{lam,w} vectors of each weight w in weight order
(:func:`_layout`). So a basis is (d, n) and its matrices V_w, and the cache
file holds just those. :func:`verify_nice_basis` checks the basis against
the same form on the generators of S_n and U(d), and
:func:`schur_measure`, the protocol's first step, measures (lam, j) and
moves the measured block onto (lam, 0).
It works on the measured rows of a (d^n, rest) matrix, so a segment of a
larger joint state is measured without reshaping the rest away.

The whole basis serves the joint-state path and ``basis build``/``verify``.
The product-input path reads stage 1 and the layout only: its law depends
on the ``j = 0`` layer through whole weight blocks, whatever orthonormal
basis of each block stage 1 picks. Both readers of stage 1 hold it to the
layout with one check, :func:`check_stage1`.
"""

from __future__ import annotations

import math
import struct
import zlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .qudit import (
    MAX_DENSE_DIM,
    CapExceededError,
    RngStream,
    check_dense_dim,
    permuted_indices,
    place_values,
)
from .young import (
    BoxLayout,
    Partition,
    SlotClasses,
    column_group,
    kostka_number,
    majorizes,
    multinomial_square_sum,
    orthogonal_form,
    partitions_of,
    specht_dim,
    weight_classes,
)

#: Stage 1's singular values below this absolute cut count as zero. A cut
#: relative to the largest value would keep images that cancel exactly, such
#: as the lowered singlet.
RANK_CUT = 1e-9

#: Amplitudes below this are set to zero.
PRUNE = 1e-14

#: Float64 entries (64 KiB) of one stacked operand of
#: :func:`verify_nice_basis`'s batched products. Same-shape items share a
#: batch up to this size, which one 90 x 90 slice fills; a larger item is
#: read alone, in place.
_BATCH_ENTRIES = 1 << 13

#: Bytes a basis's matrices may take (:func:`_check_basis_bytes`): (4, 8) fits, (3, 10) does not.
_BASIS_BYTES = 1 << 30

#: Bounds of :func:`verify_nice_basis`'s report: each residual must be below its limit.
VERIFY_LIMITS = dict(
    gram_deviation=1e-9, weight_purity_violation=1e-12, u_closure_residual=1e-8, pi_closure_residual=1e-8
)

#: Cache file format version.
FORMAT_VERSION = 3

_MAGIC = b"SCHB"


class BasisCacheError(RuntimeError):
    """Raised when a basis cache file is unreadable or inconsistent."""


class SpanExtractionError(RuntimeError):
    """Raised when a construction stage fails its rank, count or Gram check."""


@dataclass(frozen=True)
class ImageBlock:
    """Stage 1's (lam, i, 0) vectors of one weight w: the real ``columns``
    over the increasing ``indices`` of the weight-w slice."""

    weight: tuple[int, ...]
    indices: np.ndarray
    columns: np.ndarray


@dataclass(frozen=True)
class WeightSlice:
    """The basis vectors of weight w as the columns of a real orthogonal
    V_w (``matrix``, float64) on the increasing ``indices`` of weight w.
    Column c is vector ``keys[c]`` = (block position, i, j), and
    ``outcome[c]`` is the position of its (lam, j) among the Schur outcomes
    (blocks in order, then j); columns are ordered by outcome, then i. All
    but ``matrix`` are fixed by (d, n) and shared, read-only."""

    weight: tuple[int, ...]
    indices: np.ndarray
    matrix: np.ndarray
    keys: np.ndarray
    outcome: np.ndarray


class BasisVector(NamedTuple):
    """One vector of :attr:`SchurBlock.vectors`: its nonzero entries."""

    indices: np.ndarray
    amplitudes: np.ndarray

    def to_dense(self, dim: int) -> np.ndarray:
        dense = np.zeros(dim)
        dense[self.indices] = self.amplitudes
        return dense


@dataclass
class SchurBlock:
    """Per-partition sizes of the basis: dim_q = sum_w K_{lam,w}, dim_p =
    f^lam, and the weight of each (lam, i), each weight in the order of
    :func:`weight_classes` K_{lam,w} times. Its vectors are columns of the
    weight ``slices`` of the basis that holds it, keyed by its ``position``
    among the blocks."""

    lam: Partition
    dim_q: int
    dim_p: int
    weight_of_i: tuple[tuple[int, ...], ...]
    slices: dict[tuple[int, ...], WeightSlice] = field(repr=False, compare=False)
    position: int = field(compare=False)

    @cached_property
    def vectors(self) -> Mapping[tuple[int, int], BasisVector]:
        """Read-only (i, j) -> vector map, gathered from the slices on first read.

        For readers outside the package; the package reads the slices."""
        found = {}
        for piece in self.slices.values():
            mine = np.flatnonzero(piece.keys[:, 0] == self.position)
            for key, col in zip(piece.keys[mine, 1:].tolist(), piece.matrix.T[mine]):
                keep = col != 0.0
                found[tuple(key)] = BasisVector(piece.indices[keep], col[keep])
        return MappingProxyType(dict(sorted(found.items())))


@dataclass
class SchurBasis:
    """The nice Schur basis at (d, n): per weight, in the order of
    :func:`weight_classes`, the real orthogonal matrix V_w whose columns are
    the vectors of that weight (``matrices``). The labels come from (d, n)
    alone (:func:`_layout`): ``slices`` and ``blocks`` are views of the
    matrices under them, built on first read."""

    d: int
    n: int
    matrices: dict[tuple[int, ...], np.ndarray]

    @property
    def dim(self) -> int:
        return self.d**self.n

    @cached_property
    def slices(self) -> dict[tuple[int, ...], WeightSlice]:
        """Per weight, its :class:`WeightSlice`."""
        rows, (_, labels) = _weight_rows(self.d, self.n), _layout(self.d, self.n)
        return {w: WeightSlice(w, rows[w], matrix, *labels[w]) for w, matrix in self.matrices.items()}

    @cached_property
    def blocks(self) -> dict[Partition, SchurBlock]:
        """Per partition, in the order of :func:`partitions_of`, its :class:`SchurBlock`."""
        blocks, _ = _layout(self.d, self.n)
        return {lam: SchurBlock(lam, len(w), dim_p, w, self.slices, b) for b, (lam, dim_p, w) in enumerate(blocks)}

    def gram_deviation(self) -> float:
        """Max |<u|v> - delta_uv|; vectors of different weights have disjoint
        supports, so only same-weight pairs are compared, slices of one size
        in batches (see :data:`_BATCH_ENTRIES`)."""
        jobs = [(p.matrix.shape, p) for p in self.slices.values()]
        return max(_gram_deviation(chunk) for chunk in _batches(jobs))

    @cached_property
    def _plan(self):
        """What :func:`schur_measure` reads, fixed per basis: the slices'
        indices in slice order, each slice's span of them, their outcomes,
        the (lam, j) of each outcome, and per outcome and slice holding it
        the (lam, 0) columns, its coefficient rows and the slice's span."""
        fault = _label_fault(self)
        if fault is not None:
            raise ValueError(fault)
        pieces = list(self.slices.values())
        stops = np.cumsum([len(p.indices) for p in pieces]).tolist()
        spans = [slice(stop - len(p.indices), stop) for p, stop in zip(pieces, stops)]
        outcomes = [(lam, j) for lam, block in self.blocks.items() for j in range(block.dim_p)]
        moves: list[list] = [[] for _ in outcomes]
        for piece, span in zip(pieces, spans):
            # Columns are ordered by outcome, so each outcome's columns are one run.
            found, first, count = np.unique(piece.outcome, return_index=True, return_counts=True)
            runs = {o: slice(f, f + c) for o, f, c in zip(found.tolist(), first.tolist(), count.tolist())}
            for o, run in runs.items():
                rows = slice(span.start + run.start, span.start + run.stop)
                moves[o].append((piece.matrix[:, runs[o - outcomes[o][1]]], rows, span))
        rows = np.concatenate([p.indices for p in pieces])
        return rows, list(zip(pieces, spans)), np.concatenate([p.outcome for p in pieces]), outcomes, moves


@lru_cache(maxsize=64)
def _weight_rows(d: int, n: int) -> dict[tuple[int, ...], np.ndarray]:
    """Per weight, in the order of :func:`weight_classes`, the increasing
    indices of its class: views of that cached table, so read-only."""
    classes, weights = weight_classes(d, n)
    return dict(zip(map(tuple, weights.tolist()), np.split(classes.order, classes.starts[1:])))


@lru_cache(maxsize=64)
def _layout(d: int, n: int):
    """The labels that (d, n) fixes, built once and shared, so read-only:
    per block, in the order of :func:`partitions_of`, (lam, f^lam, the
    weight of each (lam, i)); and per weight, the (block position, i, j)
    keys and the outcomes of its slice's columns, ordered by outcome, then
    i, where outcome o is the o-th (lam, j), blocks in order, then j. Block
    b's (lam, i) run through the weights in order, K_{lam,w} of each."""
    rows = _weight_rows(d, n)
    lams = partitions_of(n, d)
    # K is the same for every rearrangement of a weight: one count per decreasing weight.
    tops, back = np.unique(-np.sort(-np.array(list(rows)), axis=1), axis=0, return_inverse=True)
    kostka = np.array([[kostka_number(lam, top) for top in tops] for lam in lams], dtype=np.int64)[:, back.ravel()]
    dim_p = np.array([specht_dim(lam) for lam in lams], dtype=np.int64)
    dim_q = kostka.sum(axis=1)
    # One run of vectors per outcome (b, j), outcomes in order, i increasing in a run.
    owner = np.repeat(np.arange(len(lams)), dim_p)
    j = np.arange(len(owner)) - np.repeat(np.cumsum(dim_p) - dim_p, dim_p)
    outcome = np.repeat(np.arange(len(owner)), dim_q[owner])
    i = np.arange(len(outcome)) - np.repeat(np.cumsum(dim_q[owner]) - dim_q[owner], dim_q[owner])
    b = owner[outcome]
    # The weight class of each (b, i), blocks end to end: a stable sort by it groups the vectors by weight.
    klass = np.concatenate([np.repeat(np.arange(len(rows)), row) for row in kostka])
    order = np.argsort(klass[(np.cumsum(dim_q) - dim_q)[b] + i], kind="stable")
    table = np.stack([b, i, j[outcome], outcome], axis=1)[order]
    table.setflags(write=False)
    groups = np.split(table, np.cumsum([len(indices) for indices in rows.values()])[:-1])
    labels = {w: (group[:, :3], group[:, 3]) for w, group in zip(rows, groups)}
    blocks = tuple(
        (lam, int(f), tuple(w for w, k in zip(rows, row) for _ in range(k)))
        for lam, f, row in zip(lams, dim_p, kostka.tolist())
    )
    return blocks, labels


@lru_cache(maxsize=1)
def _relabellings(d: int, n: int) -> dict[tuple[int, ...], tuple[list[tuple[int, ...]], np.ndarray]]:
    """Per decreasing weight w↓, in the order of :func:`weight_classes`: the
    weights that rearrange it, w↓ first, in that order, and per such weight w
    the row permutation ``perm`` of w↓'s slice that gives w's slice, stacked.
    Renaming the digits of row ``perm[r]`` of w↓'s slice gives row r of w's:
    digit k of w↓ becomes the k-th symbol of w by decreasing count, ties in
    symbol order, so w↓'s own ``perm`` is the identity.

    Relabelling commutes with the Young symmetrizer and with qudit
    permutations, so both stages build decreasing weights only and relabel
    the rest (:func:`_relabel`): stage 2 reads stage 1's decreasing-weight
    images only. Kept for the last (d, n): both stages of a build share it,
    and the arrays are read-only."""
    rows, place = _weight_rows(d, n), place_values(d, n)
    orders: dict[tuple[int, ...], tuple[list, list]] = {}
    for w in rows:
        order = sorted(range(d), key=lambda sym: -w[sym])
        weights, renames = orders.setdefault(tuple(w[sym] for sym in order), ([], []))
        weights.append(w)
        renames.append(order)
    found = {}
    for top, (weights, renames) in orders.items():
        perms = np.argsort(np.array(renames)[:, rows[top][:, None] // place % d] @ place, axis=1)
        perms.setflags(write=False)
        found[top] = (weights, perms)
    return found


def _label_fault(basis: SchurBasis) -> str | None:
    """Why ``basis`` does not hold one square multinom(n; w) matrix per
    weight, in weight order, naming the weight; None when it does. Every
    label comes from (d, n), so this is all that can disagree with them."""
    rows = _weight_rows(basis.d, basis.n)
    if list(basis.matrices) != list(rows):
        return "the basis does not hold one slice per weight, in weight order"
    for (w, indices), matrix in zip(rows.items(), basis.matrices.values()):
        if matrix.shape != (len(indices), len(indices)):
            return f"basis has a {matrix.shape} slice of weight {w}, expected {(len(indices),) * 2}"
    return None


# ---------------------------------------------------------------------------
# Stage 1: Young symmetrizer images, one weight slice at a time
# ---------------------------------------------------------------------------


def build_q_bases(d: int, n: int) -> dict[Partition, list[ImageBlock]]:
    """Orthonormal weight-pure bases of the Young symmetrizer images.

    The symmetrizer is the row symmetrizer after the column antisymmetrizer.
    The latter is applied to the column-strict fillings of a weight only:
    any other filling maps to 0 or to +- the image of one of them. The row
    symmetrizer acts as class means over each row's digit multiset, so every
    image lies in the span of the orthonormal class vectors 1_C / sqrt|C|.
    An SVD with an absolute rank cut of the images in those coordinates
    (signed class sums over sqrt|C|) gives the slice's orthonormal basis,
    gathered back onto the slice's rows. Where K_{lam,w} > 1 the singular
    values repeat, and the SVD picks one orthonormal basis of their span.
    This is done for decreasing weights w↓ only; relabelling the digits
    commutes with the symmetrizer, so every other weight's columns are rows
    of its w↓'s, permuted by the relabelling that :func:`_relabellings`
    computes once per (d, n) for both stages.

    Returns, per partition, one :class:`ImageBlock` per admissible weight,
    entries below :data:`PRUNE` zeroed and each column's first nonzero entry
    positive (:func:`_relabel`). Weights come in reverse lexicographic
    order, so the (lam, i, 0) are numbered block after block, and vector 0
    is the only one of the lexicographically largest admissible weight.
    """
    check_dense_dim(d, n)
    slices, moves, place = _weight_rows(d, n), _relabellings(d, n), place_values(d, n)
    out: dict[Partition, list[ImageBlock]] = {}
    for lam in partitions_of(n, d):
        layout = BoxLayout(lam)
        # Boxes adjacent in a column: above[t] sits right over below[t].
        above = [box for col in layout.column_blocks() for box in col[:-1]]
        below = [box for col in layout.column_blocks() for box in col[1:]]
        mappings, signs = column_group(lam)
        found: dict[tuple[int, ...], np.ndarray] = {}
        for top, (weights, perms) in moves.items():
            # Non-majorized weights are annihilated by the symmetrizer.
            if not majorizes(lam, top):
                continue
            indices = slices[top]
            digits = indices[:, None] // place % d
            strict = np.all(digits[:, below] > digits[:, above], axis=1)
            # Column permutations of a column-strict filling land on distinct rows.
            rows = np.searchsorted(indices, permuted_indices(digits[strict], d, mappings))
            # Each filling's image in the orthonormal coordinates 1_C / sqrt|C|
            # of the row classes C: its signed class sums over sqrt|C|.
            classes = SlotClasses(digits, d, layout.row_blocks())
            fillings = rows.shape[1]
            flat = classes.inverse[rows] * fillings + np.arange(fillings)
            sums = np.bincount(flat.ravel(), np.repeat(signs, fillings), len(classes.counts) * fillings)
            root = np.sqrt(classes.counts)
            left, singular, _ = np.linalg.svd(sums.reshape(-1, fillings) / root[:, None], full_matrices=False)
            left = left[:, singular > RANK_CUT]
            cols = left[classes.inverse] / root[classes.inverse, None]
            found.update(zip(weights, _relabel(cols[:, None], perms)[:, :, 0]))
        out[lam] = [ImageBlock(w, slices[w], found[w]) for w in slices if w in found]
    return out


def check_stage1(d: int, n: int, q_bases: dict[Partition, list[ImageBlock]]) -> None:
    """Refuse, with :class:`SpanExtractionError`, a stage 1 other than the
    one :func:`_layout` labels: its partitions must be :func:`partitions_of`'s,
    in order, and each partition lam's images must be one per weight w with
    K_{lam,w} > 0, in weight order, of K_{lam,w} columns each. A wrong count
    is named by lam and the first weight in weight order that has it."""
    blocks, _ = _layout(d, n)
    if list(q_bases) != partitions_of(n, d):
        raise SpanExtractionError(f"stage 1's partitions are not those of {n} into at most {d} parts, in order")
    for lam, _, weight_of_i in blocks:
        kostka = Counter(weight_of_i)
        found = [(image.weight, image.columns.shape[1]) for image in q_bases[lam]]
        have = Counter(w for w, count in found for _ in range(count))
        for w in _weight_rows(d, n):
            if have[w] != kostka[w]:
                raise SpanExtractionError(
                    f"stage 1 has {have[w]} vectors of partition {lam} and weight {w}, but K = {kostka[w]}"
                )
        if found != list(kostka.items()):
            raise SpanExtractionError(f"stage 1's weights of partition {lam} are not its weights in order, each once")


# ---------------------------------------------------------------------------
# Stage 2: the j layers by Young's orthogonal form
# ---------------------------------------------------------------------------


def schur_basis_completion(d: int, n: int, q_bases: dict[Partition, list[ImageBlock]]) -> SchurBasis:
    """Complete per-partition image bases into a full nice Schur basis.

    The row group of the row-major tableau T_0 fixes |(lam, i, 0)>, and its
    rows are runs of consecutive entries, so each is the vector v_{T_0} of
    Young's orthogonal form (:func:`orthogonal_form`) in its copy of the
    Specht module. Every later tableau T in the order of the form comes from
    its parent p = s_k T by one row gather and one axpy:

        |(lam, i, T)> = (P_k |(lam, i, p)> - |(lam, i, p)> / r) / sqrt(1 - 1/r^2),

    with P_k the transposition of qudits k and k + 1, a row permutation of
    the slice, and r the parent's axial distance at k. So j = 0 keeps stage
    1's vectors, and the layers are orthonormal by the form.

    The layers are formed this way from stage 1's decreasing-weight images
    only: relabelling commutes with qudit permutations, so a rearrangement's
    layer is its w↓'s relabelled and signed as in stage 1 (:func:`_relabel`),
    written straight into its V_w. The cap (:func:`_check_basis_bytes`) and
    :func:`check_stage1` refuse before a layer is formed.
    """
    _check_basis_bytes(d, n)
    check_stage1(d, n, q_bases)
    slices, moves, place = _weight_rows(d, n), _relabellings(d, n), place_values(d, n)
    # Row k: the identity mapping with k and k + 1 swapped.
    transpositions = np.arange(n) + np.eye(n - 1, n, dtype=np.int64) - np.eye(n - 1, n, 1, dtype=np.int64)
    matrices = {w: np.empty((len(indices), len(indices))) for w, indices in slices.items()}
    filled = dict.fromkeys(slices, 0)
    for lam, images in q_bases.items():
        axial, _, parent = orthogonal_form(lam)
        for image in images:
            if image.weight not in moves:
                continue
            indices = slices[image.weight]
            # swap[k]: the slice's rows under P_k.
            swap = np.searchsorted(indices, permuted_indices(indices[:, None] // place % d, d, transpositions))
            # layer[:, j, k] = |(lam, i_k, j)>; columns run j-major, as the layout orders them.
            layer = np.empty((len(indices), len(axial), image.columns.shape[1]))
            layer[:, 0] = image.columns
            for j, (p, k) in enumerate(parent, 1):
                layer[:, j] = (layer[swap[k], p] - layer[:, p] / axial[p, k]) / math.sqrt(1.0 - axial[p, k] ** -2)
            group, perms = moves[image.weight]
            for w, relabelled in zip(group, _relabel(layer, perms)):
                block = relabelled.reshape(len(indices), -1)
                matrices[w][:, filled[w] : filled[w] + block.shape[1]] = block
                filled[w] += block.shape[1]
    # The last layer's arrays go before the Gram check, whose peak is its own.
    del swap, layer, relabelled, block

    basis = SchurBasis(d, n, matrices)
    dev = basis.gram_deviation()
    if dev > 1e-9:
        raise SpanExtractionError(f"completed basis Gram deviation {dev:.3e} exceeds 1e-9")
    return basis


def _relabel(top: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """A decreasing weight's (rows, f, K) layers ``top``, pruned in place, as
    the (g, rows, f, K) layers of its rearrangements: rows permuted by each
    row of ``perms`` (:func:`_relabellings`), and column k signed so that the
    first nonzero entry of its j = 0 column is positive."""
    top[np.abs(top) < PRUNE] = 0.0
    moved = top[perms]
    first = moved[:, :, 0]
    moved *= np.sign(np.take_along_axis(first, np.argmax(first != 0.0, axis=1)[:, None], axis=1))[:, :, None]
    # A negated zero is -0.0; adding +0.0 makes it +0.0, as pruning leaves zeros.
    moved += 0.0
    return moved


def build_basis(d: int, n: int) -> SchurBasis:
    """Stage 1 then stage 2, once the size is admitted (:func:`_check_basis_bytes`)."""
    _check_basis_bytes(d, n)
    return schur_basis_completion(d, n, build_q_bases(d, n))


def _check_basis_bytes(d: int, n: int) -> None:
    """Refuse, with :class:`CapExceededError`, a d^n over the dense cap or
    more than :data:`_BASIS_BYTES` of matrices and weight table: 8 sum_w
    multinom(n; w)^2 bytes, and 8 C d bytes of :func:`weight_classes`'
    (C, d) table of the C = C(n + d - 1, d - 1) weights, counted before any
    table is built."""
    check_dense_dim(d, n)
    size, table = 8 * multinomial_square_sum(d, n), 8 * d * math.comb(n + d - 1, d - 1)
    if size + table > _BASIS_BYTES:
        raise CapExceededError(
            f"basis at d={d}, n={n}: 8 sum_w multinom(n; w)^2 = {size} bytes and a weight table of 8 C d = {table}"
            f" bytes, over {_BASIS_BYTES}"
        )


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_nice_basis(basis: SchurBasis, rng=None, trials=None) -> dict:
    """Residual report of a nice Schur basis in Young's orthogonal form:
    orthonormality, vector counts, weight purity, and the form's two
    closures, each gated by :data:`VERIFY_LIMITS`.

    The count holds when the basis has one square multinom(n; w) matrix per
    weight, in weight order; every vector then lies in the slice of its
    (lam, i)'s weight, so weight purity is 0 by construction. The pi residual
    is the largest column norm of P_k V_w - V_w rho(s_k) over the adjacent
    transpositions P_k (a row permutation of the slice), where rho(s_k) is
    :func:`orthogonal_form`'s matrix on each (lam, i)'s j layers: at most
    two entries per column, so m^2 work for a slice of m columns. It fixes
    every (lam, i, j) once its (lam, i, 0) is fixed, so the i labels agree
    across j. The U residual is the largest distance of E_{a,a+1} or
    E_{a+1,a} (E_ab = sum_k (|a><b|)_k maps slice w to w + e_a - e_b) of a
    (lam, i, 0) column from the target slice's (lam, 0) columns. E_ab
    commutes with every P_k, so once the pi check holds every layer is the
    j = 0 layer moved by one group-algebra element, and the j = 0 columns
    are all the U check needs. The distances take the (lam, 0) columns as
    orthonormal, which ``gram_deviation`` checks.

    The products run in batches: the (source, target) slice pairs of one
    shape together, and the n - 1 transpositions of the slices of one size
    together, each stacked operand at most :data:`_BATCH_ENTRIES` entries;
    an item larger than that is read alone and in place. The U check's
    gathered source rows, one per moved digit, are at most n times that,
    and the (lam, i, 0) columns of every slice are copied once and kept for
    the whole check. A slice read alone peaks at two of its sizes beyond
    the basis, in the pi check. Gram and closure entries are ``inf`` when
    the count fails. ``rng`` and ``trials`` are unused; the ``basis-cold``
    workload in ``perfbench/workloads.py`` passes them.
    """
    fault = _label_fault(basis)
    report = {**dict.fromkeys(VERIFY_LIMITS, np.inf), "weight_purity_violation": 0.0, "vector_count_ok": fault is None}
    if fault is not None:
        return report
    d, n, view = basis.d, basis.n, basis.slices
    place = place_values(d, n)
    # Per outcome (lam, j) and k: r, and s_k j - j.
    axial, swaps, _ = zip(*map(orthogonal_form, basis.blocks))
    shift = np.concatenate([swap - np.arange(len(swap))[:, None] for swap in swaps])
    axial = np.concatenate(axial)
    # Per slice, its (lam, i, 0) columns and their outcomes.
    layer0 = {w: (p.matrix[:, p.keys[:, 2] == 0], p.outcome[p.keys[:, 2] == 0]) for w, p in view.items()}
    steps = [step for a in range(d - 1) for step in ((a + 1, a), (a, a + 1))]
    u_jobs, pi_jobs = [], []
    for w, piece in view.items():
        size = piece.indices.size
        for src, dst in steps:
            # E_{dst,src}: each digit src, in turn, becomes dst.
            if w[src]:
                target = tuple(w[s] - (s == src) + (s == dst) for s in range(d))
                shape = (view[target].indices.size, size, layer0[target][1].size, layer0[w][1].size)
                u_jobs.append((shape, (piece, view[target], src, dst)))
        pi_jobs.extend(((size, size), (piece, k)) for k in range(n - 1))
    u_residual = max((_u_closure(chunk, d, place, layer0) for chunk in _batches(u_jobs)), default=0.0)
    pi_residual = max((_pi_closure(chunk, d, place, axial, shift) for chunk in _batches(pi_jobs)), default=0.0)
    report.update(gram_deviation=basis.gram_deviation(), u_closure_residual=u_residual, pi_closure_residual=pi_residual)
    return report


def _batches(jobs):
    """The (shape, job) pairs ``jobs`` grouped by shape, in chunks of jobs
    whose stacked operands, at most max(shape)^2 entries each, hold at most
    :data:`_BATCH_ENTRIES` entries, and one job at least."""
    groups: dict[tuple[int, ...], list] = {}
    for shape, job in jobs:
        groups.setdefault(shape, []).append(job)
    for shape, group in groups.items():
        step = max(1, _BATCH_ENTRIES // max(shape) ** 2)
        for start in range(0, len(group), step):
            yield group[start : start + step]


def _stacked(pieces: list[WeightSlice]) -> np.ndarray:
    """The matrix of each slice, stacked along a new axis 0; of one slice,
    however often it is listed, a read-only broadcast of it, not a copy."""
    if all(piece is pieces[0] for piece in pieces):
        return np.broadcast_to(pieces[0].matrix, (len(pieces),) + pieces[0].matrix.shape)
    return np.stack([piece.matrix for piece in pieces])


def _gram_deviation(pieces: list[WeightSlice]) -> float:
    """Max |V^T V - 1| over the stacked square slices ``pieces``, of one size:
    1 is taken off the Gram's diagonal in place, so nothing of its size but
    the Gram is formed."""
    matrices = _stacked(pieces)
    gram = np.swapaxes(matrices, -1, -2) @ matrices
    size = gram.shape[-1]
    gram.reshape(-1, size * size)[:, :: size + 1] -= 1.0
    return float(max(gram.max(), -gram.min()))


def _u_closure(chunk, d: int, place: np.ndarray, layer0: dict) -> float:
    """The U-closure residual of (source, target, src, dst) jobs of one shape:
    the distance of E_{dst,src} of each source (lam, i, 0) column from the
    target's (lam, 0) columns, both read from ``layer0``."""
    sources, targets = [job[0] for job in chunk], [job[1] for job in chunk]
    src, dst = np.array([job[2:] for job in chunk]).T
    indices = np.stack([target.indices for target in targets])
    # Target row y comes from y - (dst - src) place[p] for each position p where y has digit dst.
    owner, rows, pos = np.nonzero(indices[:, :, None] // place % d == dst[:, None, None])
    came = indices[owner, rows] - (dst - src)[owner] * place[pos]
    came = _find(np.stack([source.indices for source in sources]), came, owner, d ** len(place))
    (base, have), (frame, want) = (map(np.stack, zip(*[layer0[p.weight] for p in side])) for side in (sources, targets))
    # Every target row is reached, and np.nonzero lists each one's sources as one run.
    runs = np.flatnonzero(np.diff(owner * indices.shape[1] + rows, prepend=-1))
    moved = np.add.reduceat(base[owner, came], runs, axis=0).reshape(len(chunk), indices.shape[1], -1)
    keep = want[:, :, None] == have[:, None, :]
    rest = moved - frame @ (keep * (np.swapaxes(frame, -1, -2) @ moved))
    return float(np.sqrt(np.max(np.einsum("...ij,...ij->...j", rest, rest), initial=0.0)))


def _pi_closure(chunk, d: int, place: np.ndarray, axial: np.ndarray, shift: np.ndarray) -> float:
    """The pi-closure residual of (slice, k) jobs of one slice size: the
    transposition P_k of qudits k and k + 1 on the slice's columns against
    rho(s_k) of Young's orthogonal form, where ``axial[o, k]`` is the axial
    distance r of outcome o = (lam, j) and ``shift[o, k]`` is s_k j - j."""
    pieces = [piece for piece, _ in chunk]
    indices = np.stack([piece.indices for piece in pieces])
    k = np.array([k for _, k in chunk])[:, None]
    low, high = indices // place[k] % d, indices // place[k + 1] % d
    owner = np.arange(len(chunk))[:, None]
    perm = _find(indices, indices + (high - low) * (place[k] - place[k + 1]), owner, d ** len(place))
    # Columns run by outcome, then i, K_{lam,w} to an outcome of lam, so
    # (lam, i, s_k j) lies (s_k j - j) K_{lam,w} columns on from (lam, i, j).
    outcome = np.stack([piece.outcome for piece in pieces])
    kostka = np.stack([np.bincount(piece.outcome)[piece.outcome] for piece in pieces])
    column = np.arange(outcome.shape[1]) + shift[outcome, k] * kostka
    r = axial[outcome, k][:, None, :]
    matrices = _stacked(pieces)
    rest = matrices[owner, perm]
    pair = np.take_along_axis(matrices, column[:, None], 2)
    pair *= np.sqrt(1.0 - 1.0 / r**2)
    rest -= pair
    rest -= np.divide(matrices, r, out=pair)
    return float(np.sqrt(np.max(np.einsum("...ij,...ij->...j", rest, rest), initial=0.0)))


def _find(rows: np.ndarray, values: np.ndarray, owner: np.ndarray, dim: int) -> np.ndarray:
    """Position of each of ``values`` in row ``owner`` of ``rows``, whose rows
    increase and hold indices below ``dim``: one search over the rows laid
    end to end, row b shifted up by b * dim."""
    shift = dim * np.arange(len(rows))[:, None]
    return np.searchsorted((rows + shift).ravel(), values + dim * owner) - rows.shape[1] * owner


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def schur_measure(
    basis: SchurBasis, amplitudes: np.ndarray, rng: RngStream
) -> tuple[Partition, int, np.ndarray]:
    """Schur projective measurement followed by the block change of basis.

    ``amplitudes`` is a (d^n, rest) matrix whose rows are the measured qudits
    (a single state vector of length d^n works the same way). Its
    coefficients on slice w are V_w^T A[slice], taken on the real and
    imaginary parts of A side by side, and (lam, j) is drawn with
    probability ||Pi_{lam,j} s||^2, the sum of its squared coefficients.
    ``tau`` = sum_w V_w[:, (lam, 0)] (the (lam, j) coefficients on slice w),
    renormalized, in the shape of ``amplitudes``. A basis without one square
    multinom(n; w) matrix per weight is refused with ``ValueError`` before
    any draw.
    """
    if amplitudes.shape[0] != basis.dim:
        raise ValueError(f"state has {amplitudes.shape[0]} rows, basis needs {basis.dim}")
    rows, pieces, outcome, outcomes, moves = basis._plan
    a = amplitudes.reshape(basis.dim, -1)
    # Real and imaginary parts side by side: (d^n, 2 rest) float64.
    gathered = np.ascontiguousarray(a[rows], dtype=np.complex128).view(np.float64)
    coeffs = np.empty_like(gathered)
    for piece, span in pieces:
        np.matmul(piece.matrix.T, gathered[span], out=coeffs[span])
    probs = np.bincount(outcome, np.einsum("ij,ij->i", coeffs, coeffs), len(outcomes))
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"block probabilities sum to {total}, expected 1")
    pick = rng.gen.choice(len(outcomes), p=probs / total)
    lam, j = outcomes[pick]
    moved = np.zeros_like(gathered)
    for base, held, span in moves[pick]:
        moved[span] = base @ coeffs[held]
    tau = np.empty(a.shape, dtype=np.complex128)
    tau[rows] = moved.view(np.complex128)
    tau /= np.linalg.norm(tau)
    return lam, j, tau.reshape(amplitudes.shape)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_basis(basis: SchurBasis, path) -> None:
    """Write the cache file: the magic, then format version, d, n and the
    CRC32 of the body as little-endian u32, then the body, each weight
    slice's matrix in weight order, as it is, in little-endian float64."""
    body = b"".join(matrix.astype("<f8", copy=False).tobytes() for matrix in basis.matrices.values())
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<IIII", FORMAT_VERSION, basis.d, basis.n, zlib.crc32(body)) + body)


def load_basis(path) -> SchurBasis:
    """Read and validate a cache file written by :func:`save_basis`.

    (d, n) fixes every label and every slice's shape, so only the sizes can
    be wrong. Refused with :class:`BasisCacheError`: a bad magic, version or
    checksum; a (d, n) with n outside 1..64, d < 1 or d^n over the dense
    cap; and then, before any d^n-sized table is built, a body shorter than
    8 d^n bytes; then a body of any length other than 8 sum_w
    multinom(n; w)^2 bytes. In between, a (d, n) that a build refuses
    (:func:`_check_basis_bytes`) is refused with :class:`CapExceededError`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 20 or raw[:4] != _MAGIC:
        raise BasisCacheError("malformed file: bad magic or truncated header")
    version, d, n, checksum = struct.unpack("<IIII", raw[4:20])
    if version != FORMAT_VERSION:
        raise BasisCacheError(f"version mismatch: file has format version {version}, expected {FORMAT_VERSION}")
    body = raw[20:]
    if zlib.crc32(body) != checksum:
        raise BasisCacheError("checksum failure: file is corrupt or truncated")
    # n <= 64 keeps d = 1 files, whose d^n is 1 for any n, from asking for n-digit tables.
    if not (d >= 1 and 1 <= n <= 64) or d**n > MAX_DENSE_DIM:
        raise BasisCacheError(f"malformed file: no basis has d={d}, n={n} (1 <= n <= 64 and d^n <= {MAX_DENSE_DIM})")
    # The slices hold at least one entry per index: a shorter body is refused before any table is built.
    if len(body) < 8 * d**n:
        raise BasisCacheError(f"malformed file: the body holds {len(body)} bytes, fewer than 8 d^n = {8 * d**n}")
    _check_basis_bytes(d, n)
    rows = _weight_rows(d, n)
    sizes = [len(indices) ** 2 for indices in rows.values()]
    if len(body) != 8 * sum(sizes):
        raise BasisCacheError(
            f"malformed file: the body holds {len(body)} bytes, but the slices of d={d}, n={n} take"
            f" 8 sum_w multinom(n; w)^2 = {8 * sum(sizes)}"
        )
    entries = np.split(np.frombuffer(body, "<f8"), np.cumsum(sizes)[:-1])
    return SchurBasis(d, n, {w: e.reshape(len(r), len(r)) for (w, r), e in zip(rows.items(), entries)})


def cache_file_name(d: int, n: int) -> str:
    return f"schur_basis_d{d}_n{n}_v{FORMAT_VERSION}.schb"
