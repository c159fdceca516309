"""Construction, verification, persistence, and use of the nice Schur basis.

The basis {|(lam, i, j)>} is built in two stages, each computed from a
definition with no search:

1. :func:`build_q_bases`: the ``j = 0`` layer of each partition, an
   orthonormal weight-pure basis of its Young symmetrizer's image.
2. :func:`schur_basis_completion`: the other ``j`` layers, from Young's
   natural basis of the Specht module.

Every vector is real and supported on a single weight subspace, so the
multinom(n; w) vectors of weight w are the columns of one real orthogonal
matrix V_w on the weight-w slice. The basis is these slices, one
:class:`WeightSlice` per weight; both stages build them, and the cache file
holds them as they are. :func:`verify_nice_basis` checks block closure on
the generators of U(d) and S_n, and :func:`schur_measure`, the protocol's
first step, measures (lam, j) and moves the measured block onto (lam, 0).
It works on the measured rows of a (d^n, rest) matrix, so a segment of a
larger joint state is measured without reshaping the rest away.

The whole basis serves the joint-state path and ``basis build``/``verify``.
The product-input path reads stage 1 only: its law depends on the ``j = 0``
layer through whole weight blocks, whatever orthonormal basis of each
block stage 1 picks.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .qudit import (
    RngStream,
    check_dense_dim,
    digit_table,
    permuted_indices,
    place_values,
)
from .young import (
    BoxLayout,
    Partition,
    SlotClasses,
    column_group,
    majorizes,
    partitions_of,
    standard_tableaux,
    weight_classes,
)

#: Singular values (stage 1) and QR diagonals (stage 2) below this absolute
#: cut count as zero. A cut relative to the largest value would keep images
#: that cancel exactly, such as the lowered singlet.
RANK_CUT = 1e-9

#: Amplitudes below this are set to zero.
PRUNE = 1e-14

#: Cache file format version.
FORMAT_VERSION = 2

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
    (blocks in order, then j); columns are ordered by outcome, then i."""

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
    """Per-partition sizes of the basis. Its vectors are columns of the
    weight ``slices`` of the basis that holds it, keyed by its ``position``
    among the blocks."""

    lam: Partition
    dim_q: int
    dim_p: int
    weight_of_i: list[tuple[int, ...]]
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
    """The nice Schur basis: per partition its sizes (``blocks``), and per
    weight, in the order of :func:`weight_classes`, the slice that holds the
    vectors of that weight (``slices``)."""

    d: int
    n: int
    blocks: dict[Partition, SchurBlock]
    slices: dict[tuple[int, ...], WeightSlice]

    @property
    def dim(self) -> int:
        return self.d**self.n

    def gram_deviation(self) -> float:
        """Max |<u|v> - delta_uv|; vectors of different weights have disjoint
        supports, so only same-weight pairs are compared."""
        return max(float(np.max(np.abs(p.matrix.T @ p.matrix - np.eye(len(p.indices))))) for p in self.slices.values())

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


def _weight_rows(d: int, n: int) -> dict[tuple[int, ...], np.ndarray]:
    """Per weight, in the order of :func:`weight_classes`, the increasing indices of its class."""
    classes, weights = weight_classes(d, n)
    return dict(zip(map(tuple, weights.tolist()), np.split(classes.order, classes.starts[1:])))


def _labels(blocks, weights) -> dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]:
    """Per weight of ``weights``, the (block position, i, j) keys and the
    outcomes of the blocks' vectors of that weight, ordered by outcome, then i."""
    found: dict[tuple[int, ...], list] = {w: [] for w in weights}
    first = 0
    for b, block in enumerate(blocks):
        for j in range(block.dim_p):
            for i, w in enumerate(block.weight_of_i):
                found[tuple(w)].append((b, i, j, first + j))
        first += block.dim_p
    tables = {w: np.array(rows, dtype=np.int64).reshape(-1, 4) for w, rows in found.items()}
    return {w: (table[:, :3], table[:, 3]) for w, table in tables.items()}


def _label_fault(basis: SchurBasis) -> str | None:
    """Why the slices are not the blocks' vectors, one square slice per
    weight, naming the weight; None when they are."""
    rows = _weight_rows(basis.d, basis.n)
    if list(basis.slices) != list(rows):
        return "the basis does not hold one slice per weight, in weight order"
    for w, (keys, outcome) in _labels(basis.blocks.values(), rows).items():
        piece, size = basis.slices[w], len(rows[w])
        if piece.matrix.shape != (size, size) or len(keys) != size:
            return f"basis has {piece.matrix.shape[1]} vectors of weight {w} (blocks: {len(keys)}), expected {size}"
        if not (np.array_equal(piece.keys, keys) and np.array_equal(piece.outcome, outcome)):
            return f"the columns of the weight-{w} slice are not the blocks' vectors of weight {w}"
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
    This is done for decreasing weights; relabelling the digits commutes
    with the symmetrizer and carries it to their rearrangements.

    Returns, per partition, one :class:`ImageBlock` per admissible weight,
    each column signed so that its first entry of magnitude at least
    :data:`PRUNE` is positive, and entries below :data:`PRUNE` set to zero.
    Weights come in reverse lexicographic order, so the (lam, i, 0) are
    numbered block after block, and vector 0 is the only one of the
    lexicographically largest admissible weight.
    """
    check_dense_dim(d, n)
    slices, table = _weight_rows(d, n), digit_table(d, n)
    out: dict[Partition, list[ImageBlock]] = {}
    for lam in partitions_of(n, d):
        layout = BoxLayout(lam)
        # Boxes adjacent in a column: above[t] sits right over below[t].
        above = [box for col in layout.column_blocks() for box in col[:-1]]
        below = [box for col in layout.column_blocks() for box in col[1:]]
        mappings, signs = map(np.array, zip(*column_group(lam)))
        decreasing: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        images: list[ImageBlock] = []
        for w in slices:
            # Non-majorized weights are annihilated by the symmetrizer.
            if not majorizes(lam, w):
                continue
            # Digit k of the decreasing rearrangement, which comes earlier in
            # reverse lexicographic order, is renamed order[k].
            order = sorted(range(d), key=lambda sym: -w[sym])
            top = tuple(w[sym] for sym in order)
            if top not in decreasing:
                indices = slices[top]
                digits = table[indices]
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
                decreasing[top] = (digits, left[classes.inverse] / root[classes.inverse, None])
            digits, cols = decreasing[top]
            cols = cols[np.argsort(np.array(order)[digits] @ place_values(d, n))]
            lead = cols[np.argmax(np.abs(cols) >= PRUNE, axis=0), np.arange(cols.shape[1])]
            cols *= np.sign(lead)
            cols[np.abs(cols) < PRUNE] = 0.0
            images.append(ImageBlock(w, slices[w], cols))
        out[lam] = images
    return out


# ---------------------------------------------------------------------------
# Stage 2: the j layers from Young's natural basis
# ---------------------------------------------------------------------------


def schur_basis_completion(d: int, n: int, q_bases: dict[Partition, list[ImageBlock]]) -> SchurBasis:
    """Complete per-partition image bases into a full nice Schur basis.

    With mapping[k] the entry of a standard tableau T at row-major box k, the
    f^lam permutations P_T (qudit k to position mapping[k]) map |(lam, 0, 0)>
    to independent vectors; the inverse mappings would not. If
    [P_T |(lam, 0, 0)>]_T = QR with R's diagonal positive, then
    |(lam, i, j)> = sum_T (R^-1)[T, j] P_T |(lam, i, 0)>. Column 0 of R^-1 is
    (1, 0, ..., 0) up to rounding, so j = 0 keeps stage 1's vectors.
    """
    check_dense_dim(d, n)
    slices, table = _weight_rows(d, n), digit_table(d, n)
    layers: dict[tuple[int, ...], list[np.ndarray]] = {w: [] for w in slices}
    held: dict[tuple[int, ...], WeightSlice] = {}
    blocks: dict[Partition, SchurBlock] = {}
    for b, lam in enumerate(partitions_of(n, d)):
        images = q_bases[lam]
        if not images:
            raise SpanExtractionError(f"empty symmetrizer image for partition {lam}")
        mappings = np.array(standard_tableaux(lam), dtype=np.int64)
        dim_p = len(mappings)
        coeffs = None
        for image in images:
            indices = slices[image.weight]
            rows = np.searchsorted(indices, permuted_indices(table[indices], d, mappings))
            # moved[t, :, k] = P_T |(lam, i_k, 0)> on the slice.
            moved = np.zeros((dim_p,) + image.columns.shape)
            moved[np.arange(dim_p)[:, None], rows] = image.columns
            if coeffs is None:
                _, r = np.linalg.qr(moved[:, :, 0].T)
                diag = np.diagonal(r)
                if np.min(np.abs(diag)) < RANK_CUT:
                    raise SpanExtractionError(
                        f"standard tableau permutations of |({lam}, 0, 0)> have rank below f = {dim_p}"
                    )
                coeffs = np.linalg.inv(r) * np.sign(diag)
            # Column (j, k) of the layer is |(lam, i_k, j)>.
            layer = np.tensordot(moved, coeffs, axes=(0, 0)).transpose(0, 2, 1)
            layer[:, 0] = image.columns
            layer[np.abs(layer) < PRUNE] = 0.0
            layers[image.weight].append(layer.reshape(len(indices), -1))
        weights = [image.weight for image in images for _ in range(image.columns.shape[1])]
        blocks[lam] = SchurBlock(lam, len(weights), dim_p, weights, held, b)

    for w, (keys, outcome) in _labels(blocks.values(), slices).items():
        if len(keys) != len(slices[w]):
            raise SpanExtractionError(f"basis has {len(keys)} vectors of weight {w}, expected {len(slices[w])}")
        held[w] = WeightSlice(w, slices[w], np.concatenate(layers[w], axis=1), keys, outcome)
    basis = SchurBasis(d, n, blocks, held)
    dev = basis.gram_deviation()
    if dev > 1e-9:
        raise SpanExtractionError(f"completed basis Gram deviation {dev:.3e} exceeds 1e-9")
    return basis


def build_basis(d: int, n: int) -> SchurBasis:
    """Stage 1 then stage 2."""
    return schur_basis_completion(d, n, build_q_bases(d, n))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_nice_basis(basis: SchurBasis, rng=None, trials=None) -> dict:
    """Residual report: orthonormality, vector counts, weight purity, and block closures.

    A vector in a slice other than its (lam, i)'s weight breaks purity by its
    largest amplitude. Closure is checked exactly on generators, one weight
    slice at a time: E_{a,a+1} and E_{a+1,a} on each (lam, j) block (E_ab =
    sum_k (|a><b|)_k maps slice w to w + e_a - e_b; weight purity covers the
    diagonal), the adjacent transpositions on each (lam, i) block. A
    residual is the largest norm of a moved vector outside its block's
    columns in the target slice. Gram and closure entries are ``inf`` when
    the slices are not the blocks' vectors. ``rng`` and ``trials`` are
    unused; the ``basis-cold`` workload in ``perfbench/workloads.py`` passes them.
    """
    d, n, blocks = basis.d, basis.n, list(basis.blocks.values())
    view = basis.slices
    counts = np.bincount(np.concatenate([p.keys[:, 0] for p in view.values()]), minlength=len(blocks))
    impure = [
        np.abs(p.matrix[:, c]).max()
        for p in view.values()
        for c, (b, i, _) in enumerate(p.keys.tolist())
        if tuple(blocks[b].weight_of_i[i]) != p.weight
    ]
    report = {
        "gram_deviation": np.inf,
        "vector_count_ok": int(counts.sum()) == basis.dim and counts.tolist() == [b.dim_q * b.dim_p for b in blocks],
        "weight_purity_violation": float(max(impure, default=0.0)),
        "u_closure_residual": np.inf,
        "pi_closure_residual": np.inf,
    }
    if _label_fault(basis) is not None:
        return report
    place = place_values(d, n)
    u_residual = pi_residual = 0.0
    for w, piece in view.items():
        slice_digits = piece.indices[:, None] // place % d
        for src, dst in [step for a in range(d - 1) for step in ((a + 1, a), (a, a + 1))]:
            # E_{dst,src}: each digit src, in turn, becomes dst.
            rows, pos = np.nonzero(slice_digits == src)
            if rows.size:
                target = view[tuple(w[s] - (s == src) + (s == dst) for s in range(d))]
                lift = np.zeros((target.indices.size, piece.indices.size))
                lift[np.searchsorted(target.indices, piece.indices[rows] + (dst - src) * place[pos]), rows] = 1.0
                same_lam_j = target.outcome[:, None] == piece.outcome
                u_residual = max(u_residual, _outside(target, lift @ piece.matrix, same_lam_j))
        same_lam_i = np.all(piece.keys[:, None, :2] == piece.keys[:, :2], axis=2)
        for k in range(n - 1):
            swapped = slice_digits.copy()
            swapped[:, [k, k + 1]] = slice_digits[:, [k + 1, k]]
            moved = piece.matrix[np.searchsorted(piece.indices, swapped @ place)]
            pi_residual = max(pi_residual, _outside(piece, moved, same_lam_i))
    report.update(gram_deviation=basis.gram_deviation(), u_closure_residual=u_residual, pi_closure_residual=pi_residual)
    return report


def _outside(target: WeightSlice, moved: np.ndarray, keep: np.ndarray) -> float:
    """Max over columns x of ``moved`` of ||x - V (keep[:, x] * V^T x)||, V = ``target.matrix``."""
    rest = moved - target.matrix @ (keep * (target.matrix.T @ moved))
    return float(np.max(np.linalg.norm(rest, axis=0), initial=0.0))


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
    renormalized, in the shape of ``amplitudes``. A basis whose slices are
    not its blocks' vectors is refused with ``ValueError`` before any draw.
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
    """Write the cache file (little-endian, CRC32 over the body): the block
    headers, then each weight slice's real matrix as it is."""
    body = bytearray()
    for lam, block in basis.blocks.items():
        body += struct.pack("<I", len(lam.parts))
        body += struct.pack(f"<{len(lam.parts)}I", *lam.parts)
        body += struct.pack("<II", block.dim_q, block.dim_p)
        for w in block.weight_of_i:
            body += struct.pack(f"<{basis.d}I", *w)
    for piece in basis.slices.values():
        body += struct.pack("<II", *piece.matrix.shape)
        body += piece.matrix.astype("<f8", copy=False).tobytes()
    header = _MAGIC + struct.pack("<IIIII", FORMAT_VERSION, basis.d, basis.n, len(basis.blocks), zlib.crc32(body))
    with open(path, "wb") as fh:
        fh.write(header + body)


def load_basis(path) -> SchurBasis:
    """Read and validate a cache file written by :func:`save_basis`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 24 or raw[:4] != _MAGIC:
        raise BasisCacheError("malformed file: bad magic or truncated header")
    version, d, n, lam_count, checksum = struct.unpack("<IIIII", raw[4:24])
    if version != FORMAT_VERSION:
        raise BasisCacheError(f"version mismatch: file has format version {version}, expected {FORMAT_VERSION}")
    body = raw[24:]
    if zlib.crc32(body) != checksum:
        raise BasisCacheError("checksum failure: file is corrupt or truncated")

    offset = 0

    def take(count, dtype="<u4"):
        nonlocal offset
        size = np.dtype(dtype).itemsize * count
        if offset + size > len(body):
            raise BasisCacheError("malformed file: unexpected end of body")
        offset += size
        return np.frombuffer(body, dtype, count, offset - size)

    blocks: dict[Partition, SchurBlock] = {}
    held: dict[tuple[int, ...], WeightSlice] = {}
    for b in range(lam_count):
        lam = Partition(tuple(take(int(take(1)[0])).tolist()))
        dim_q, dim_p = take(2).tolist()
        weights = list(map(tuple, take(dim_q * d).reshape(dim_q, d).tolist()))
        if any(sum(w) != n for w in weights):
            raise BasisCacheError(f"malformed file: a weight of {lam} does not sum to n={n}")
        blocks[lam] = SchurBlock(lam, dim_q, dim_p, weights, held, b)
    total = sum(block.dim_q * block.dim_p for block in blocks.values())
    if total != d**n:
        raise BasisCacheError(f"count mismatch: file holds {total} vectors, but d^n = {d**n}")
    rows = _weight_rows(d, n)
    for w, (keys, outcome) in _labels(blocks.values(), rows).items():
        size = len(rows[w])
        shape = tuple(take(2).tolist())
        if shape != (size, size):
            raise BasisCacheError(
                f"malformed file: the slice of weight {w} is {shape[0]} x {shape[1]}, but multinom(n; w) = {size}"
            )
        held[w] = WeightSlice(w, rows[w], take(size * size, "<f8").reshape(size, size), keys, outcome)
    if offset != len(body):
        raise BasisCacheError("malformed file: trailing bytes after the last slice")
    return SchurBasis(d, n, blocks, held)


def cache_file_name(d: int, n: int) -> str:
    return f"schur_basis_d{d}_n{n}_v{FORMAT_VERSION}.schb"
