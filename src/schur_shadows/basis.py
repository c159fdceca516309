"""Construction, verification, persistence, and use of the nice Schur basis.

The basis {|(lam, i, j)>} is built in two stages, each computed from a
definition with no search:

1. :func:`build_q_bases`: the ``j = 0`` layer of each partition, an
   orthonormal weight-pure basis of its Young symmetrizer's image.
2. :func:`schur_basis_completion`: the other ``j`` layers, from Young's
   natural basis of the Specht module.

Every vector is supported on a single weight subspace, so the basis is
stored sparsely (computational-basis index / amplitude pairs), and the
multinom(n; w) vectors of weight w form a unitary V_w on the weight-w slice.
After the build the basis is read one such slice at a time
(:meth:`SchurBasis.weight_slices`): :func:`verify_nice_basis` checks block
closure on the generators of U(d) and S_n, and :func:`schur_measure`, the
protocol's first step, measures (lam, j) and moves the measured block onto
(lam, 0). It works on the measured rows of a (d^n, rest) matrix, so a
segment of a larger joint state is measured without reshaping the rest away.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

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

#: Amplitudes below this are not stored.
PRUNE = 1e-14

#: Cache file format version.
FORMAT_VERSION = 1

_MAGIC = b"SCHB"

#: One stored amplitude: its index, then its real and imaginary parts.
_RECORD = np.dtype([("index", "<u8"), ("re", "<f8"), ("im", "<f8")])


class BasisCacheError(RuntimeError):
    """Raised when a basis cache file is unreadable or inconsistent."""


class SpanExtractionError(RuntimeError):
    """Raised when a construction stage fails its rank, count or Gram check."""


@dataclass(frozen=True)
class SparseVector:
    """Sorted (index, amplitude) pairs of a vector in (C^d)^{tensor n}."""

    indices: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if idx.shape != amp.shape or idx.ndim != 1:
            raise ValueError("indices and amplitudes must be 1-d arrays of equal length")
        if np.any(idx[1:] <= idx[:-1]):
            raise ValueError("indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def pruned(cls, indices: np.ndarray, amplitudes: np.ndarray) -> "SparseVector":
        """The entries of magnitude at least :data:`PRUNE`; indices increase."""
        keep = np.abs(amplitudes) >= PRUNE
        return cls(indices[keep], amplitudes[keep])

    def to_dense(self, dim: int) -> np.ndarray:
        dense = np.zeros(dim, dtype=np.complex128)
        dense[self.indices] = self.amplitudes
        return dense


@dataclass
class SchurBlock:
    """Per-partition slice of the basis."""

    lam: Partition
    dim_q: int
    dim_p: int
    weight_of_i: list[tuple[int, ...]]
    vectors: dict[tuple[int, int], SparseVector]


@dataclass(frozen=True)
class WeightSlice:
    """The basis vectors of weight w as the columns of a unitary V_w (``matrix``)
    on the increasing ``indices`` of weight w. Column c is vector ``keys[c]``
    = (block position, i, j), and ``outcome[c]`` is the position of its
    (lam, j) among the Schur outcomes (blocks in order, then j); columns are
    ordered by outcome, then i."""

    weight: tuple[int, ...]
    indices: np.ndarray
    matrix: np.ndarray
    keys: np.ndarray
    outcome: np.ndarray


@dataclass
class SchurBasis:
    d: int
    n: int
    blocks: dict[Partition, SchurBlock]
    _view: dict[tuple[int, ...], WeightSlice] | None = field(default=None, repr=False)
    #: The product path's draw table, ``protocol._draw_table``, built on first use.
    _draws: object | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.d**self.n

    def weight_slices(self) -> dict[tuple[int, ...], WeightSlice]:
        """The :class:`WeightSlice` of each weight, built on first use and cached.

        Raises ``ValueError`` naming the weight unless each weight w has
        multinom(n; w) vectors, all supported on the weight-w slice.
        """
        if self._view is None:
            self._view = {piece.weight: piece for piece in _weight_slices(self)}
        return self._view

    def gram_deviation(self) -> float:
        """Max |<u|v> - delta_uv|; vectors of different weights have disjoint
        supports, so only same-weight pairs are compared. Without a cached
        view the slices are made one at a time and not kept."""
        pieces = self._view.values() if self._view is not None else _weight_slices(self)
        return max(float(np.max(np.abs(p.matrix.conj().T @ p.matrix - np.eye(len(p.indices))))) for p in pieces)


def _weight_slices(basis: SchurBasis):
    """Yield the :class:`WeightSlice` of every weight, in the order of :func:`weight_classes`."""
    by_weight: dict[tuple[int, ...], list] = {}
    first = 0
    for b, block in enumerate(basis.blocks.values()):
        for (i, j), vec in block.vectors.items():
            # Keyed (outcome, i, block position, j), so sorting orders columns by outcome, then i.
            by_weight.setdefault(tuple(block.weight_of_i[i]), []).append(((first + j, i, b, j), vec))
        first += block.dim_p
    classes, weights = weight_classes(basis.d, basis.n)
    for c, w in enumerate(map(tuple, weights.tolist())):
        indices = classes.order[classes.starts[c] :][: classes.counts[c]]
        entries = sorted(by_weight.get(w, []), key=lambda entry: entry[0])
        if len(entries) != len(indices):
            raise ValueError(f"basis has {len(entries)} vectors of weight {w}, expected multinom = {len(indices)}")
        vectors = [vec for _, vec in entries]
        if not np.all(classes.inverse[np.concatenate([vec.indices for vec in vectors])] == c):
            raise ValueError(f"a basis vector of weight {w} has amplitudes outside the weight-{w} slice")
        labels = np.array([key for key, _ in entries], dtype=np.int64)
        yield WeightSlice(w, indices, _columns(vectors, indices), labels[:, [2, 1, 3]], labels[:, 0])


def _slices(d: int, n: int) -> dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]:
    """Per weight, in the order of :func:`weight_classes`, the digit tuples of
    its class, one per row in increasing index order, and their indices."""
    classes, weights = weight_classes(d, n)
    digits = digit_table(d, n)
    members = np.split(classes.order, classes.starts[1:])
    return {tuple(w): (digits[indices], indices) for w, indices in zip(weights.tolist(), members)}


def _columns(vectors: list[SparseVector], rows: np.ndarray) -> np.ndarray:
    """The vectors as dense columns over the sorted indices ``rows``."""
    mat = np.zeros((rows.size, len(vectors)), dtype=np.complex128)
    for col, vec in enumerate(vectors):
        mat[np.searchsorted(rows, vec.indices), col] = vec.amplitudes
    return mat


# ---------------------------------------------------------------------------
# Stage 1: Young symmetrizer images, one weight slice at a time
# ---------------------------------------------------------------------------


def build_q_bases(d: int, n: int) -> dict[Partition, tuple[list[tuple[int, ...]], list[SparseVector]]]:
    """Orthonormal weight-pure bases of the Young symmetrizer images.

    The symmetrizer is the row symmetrizer after the column antisymmetrizer.
    The latter is applied to the column-strict fillings of a weight only:
    any other filling maps to 0 or to +- the image of one of them. The row
    symmetrizer acts as class means over each row's digit multiset, and an
    SVD with an absolute rank cut gives the slice's orthonormal basis. This
    is done for decreasing weights; relabelling the digits commutes with the
    symmetrizer and carries it to their rearrangements.

    Returns, per partition, the per-vector weight list and the sparse real
    vectors, each signed so that its first nonzero amplitude is positive.
    Weights come in reverse lexicographic order with the vectors of each
    weight next to each other, so vector 0 is the only one of the
    lexicographically largest admissible weight.
    """
    check_dense_dim(d, n)
    slices = _slices(d, n)
    out: dict[Partition, tuple[list[tuple[int, ...]], list[SparseVector]]] = {}
    for lam in partitions_of(n, d):
        layout = BoxLayout(lam)
        # Boxes adjacent in a column: above[t] sits right over below[t].
        above = [box for col in layout.column_blocks() for box in col[:-1]]
        below = [box for col in layout.column_blocks() for box in col[1:]]
        mappings, signs = map(np.array, zip(*column_group(lam)))
        decreasing: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        weights: list[tuple[int, ...]] = []
        vectors: list[SparseVector] = []
        for w in slices:
            # Non-majorized weights are annihilated by the symmetrizer.
            if not majorizes(lam, w):
                continue
            # Digit k of the decreasing rearrangement, which comes earlier in
            # reverse lexicographic order, is renamed order[k].
            order = sorted(range(d), key=lambda sym: -w[sym])
            top = tuple(w[sym] for sym in order)
            if top not in decreasing:
                digits, indices = slices[top]
                strict = np.all(digits[:, below] > digits[:, above], axis=1)
                # Column permutations of a column-strict filling land on distinct rows.
                rows = np.searchsorted(indices, permuted_indices(digits[strict], d, mappings))
                images = np.zeros((len(digits), rows.shape[1]))
                images[rows, np.arange(rows.shape[1])] = signs[:, None]
                images = SlotClasses(digits, d, layout.row_blocks()).mean(images)
                left, singular, _ = np.linalg.svd(images, full_matrices=False)
                decreasing[top] = (digits, left[:, singular > RANK_CUT])
            digits, cols = decreasing[top]
            indices = np.array(order)[digits] @ place_values(d, n)
            rows = np.argsort(indices)
            cols = cols[rows]
            lead = cols[np.argmax(np.abs(cols) >= PRUNE, axis=0), np.arange(cols.shape[1])]
            for vec in (cols * np.sign(lead)).T:
                vectors.append(SparseVector.pruned(indices[rows], vec.astype(np.complex128)))
                weights.append(w)
        out[lam] = (weights, vectors)
    return out


# ---------------------------------------------------------------------------
# Stage 2: the j layers from Young's natural basis
# ---------------------------------------------------------------------------


def schur_basis_completion(
    d: int,
    n: int,
    q_bases: dict[Partition, tuple[list[tuple[int, ...]], list[SparseVector]]],
) -> SchurBasis:
    """Complete per-partition image bases into a full nice Schur basis.

    With mapping[k] the entry of a standard tableau T at row-major box k, the
    f^lam permutations P_T (qudit k to position mapping[k]) map |(lam, 0, 0)>
    to independent vectors; the inverse mappings would not. If
    [P_T |(lam, 0, 0)>]_T = QR with R's diagonal positive, then
    |(lam, i, j)> = sum_T (R^-1)[T, j] P_T |(lam, i, 0)>. Column 0 of R^-1 is
    (1, 0, ..., 0) up to rounding, so j = 0 keeps stage 1's vectors.
    """
    dim = check_dense_dim(d, n)
    slices = _slices(d, n)
    blocks: dict[Partition, SchurBlock] = {}
    total = 0
    for lam in partitions_of(n, d):
        weights, vectors = q_bases[lam]
        if not vectors:
            raise SpanExtractionError(f"empty symmetrizer image for partition {lam}")
        mappings = np.array(standard_tableaux(lam), dtype=np.int64)
        dim_p = len(mappings)
        coeffs = None
        block_vectors: dict[tuple[int, int], SparseVector] = {}
        # The vectors of one weight are adjacent; permutations keep each weight slice.
        starts = [i for i in range(len(weights)) if i == 0 or weights[i] != weights[i - 1]]
        for start, stop in zip(starts, starts[1:] + [len(weights)]):
            digits, indices = slices[tuple(weights[start])]
            rows = np.searchsorted(indices, permuted_indices(digits, d, mappings))
            # moved[t, :, k] = P_T |(lam, start + k, 0)> on the slice.
            moved = np.zeros((dim_p, len(indices), stop - start), dtype=np.complex128)
            moved[np.arange(dim_p)[:, None], rows] = _columns(vectors[start:stop], indices)
            if coeffs is None:
                _, r = np.linalg.qr(moved[:, :, 0].T)
                diag = np.diagonal(r)
                if np.min(np.abs(diag)) < RANK_CUT:
                    raise SpanExtractionError(
                        f"standard tableau permutations of |({lam}, 0, 0)> have rank below f = {dim_p}"
                    )
                coeffs = np.linalg.inv(r) * (diag / np.abs(diag))
            images = np.einsum("tmk,tj->kjm", moved, coeffs)
            for k in range(stop - start):
                block_vectors[(start + k, 0)] = vectors[start + k]
                for j in range(1, dim_p):
                    block_vectors[(start + k, j)] = SparseVector.pruned(indices, images[k, j])
        blocks[lam] = SchurBlock(lam, len(vectors), dim_p, list(weights), block_vectors)
        total += len(vectors) * dim_p

    if total != dim:
        raise SpanExtractionError(
            f"dimension bookkeeping failed: sum dim_q*dim_p = {total}, expected {dim}"
        )
    basis = SchurBasis(d, n, blocks)
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

    Closure is checked exactly on generators, one weight slice at a time:
    E_{a,a+1} and E_{a+1,a} on each (lam, j) block (E_ab = sum_k (|a><b|)_k
    maps slice w to w + e_a - e_b; weight purity covers the diagonal), the
    adjacent transpositions on each (lam, i) block. A residual is the largest
    norm of a moved vector outside its block's columns in the target slice.
    Gram and closure entries are ``inf`` when the slices cannot be formed.
    ``rng`` and ``trials`` are unused (no draw is made); they stay because
    the ``basis-cold`` workload in ``perfbench/workloads.py`` passes them.
    """
    d, n, blocks = basis.d, basis.n, basis.blocks.values()
    classes, weights = weight_classes(d, n)
    purity_dev = 0.0
    for block in blocks:
        for (i, _j), vec in block.vectors.items():
            if np.any(weights[classes.inverse[vec.indices]] != np.asarray(block.weight_of_i[i])):
                purity_dev = max(purity_dev, float(np.max(np.abs(vec.amplitudes))))
    counts = [len(b.vectors) for b in blocks]
    report = {
        "gram_deviation": np.inf,
        "vector_count_ok": sum(counts) == basis.dim and counts == [b.dim_q * b.dim_p for b in blocks],
        "weight_purity_violation": purity_dev,
        "u_closure_residual": np.inf,
        "pi_closure_residual": np.inf,
    }
    try:
        view = basis.weight_slices()
    except ValueError:
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
    """Max over columns x of ``moved`` of ||x - V (keep[:, x] * V^dag x)||, V = ``target.matrix``."""
    rest = moved - target.matrix @ (keep * (target.matrix.conj().T @ moved))
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
    coefficients on slice w are V_w^dag A[slice], and (lam, j) is drawn with
    probability ||Pi_{lam,j} s||^2, the sum of its squared coefficients.
    ``tau`` = sum_w V_w[:, (lam, 0)] (the (lam, j) coefficients on slice w),
    renormalized, in the shape of ``amplitudes``. A basis whose slices cannot
    be formed is refused with ``ValueError`` before any draw.
    """
    if amplitudes.shape[0] != basis.dim:
        raise ValueError(f"state has {amplitudes.shape[0]} rows, basis needs {basis.dim}")
    pieces = list(basis.weight_slices().values())
    outcomes = [(lam, j) for lam, block in basis.blocks.items() for j in range(block.dim_p)]
    a = amplitudes.reshape(basis.dim, -1)
    coeffs = [piece.matrix.conj().T @ a[piece.indices] for piece in pieces]
    flat = np.concatenate(coeffs)
    squares = np.einsum("ij,ij->i", flat.real, flat.real) + np.einsum("ij,ij->i", flat.imag, flat.imag)
    probs = np.bincount(np.concatenate([piece.outcome for piece in pieces]), squares, len(outcomes))
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"block probabilities sum to {total}, expected 1")
    pick = rng.gen.choice(len(outcomes), p=probs / total)
    lam, j = outcomes[pick]
    tau = np.zeros(a.shape, dtype=np.complex128)
    for piece, c in zip(pieces, coeffs):
        rows = piece.outcome == pick
        if rows.any():
            tau[piece.indices] = piece.matrix[:, piece.outcome == pick - j] @ c[rows]
    tau /= np.linalg.norm(tau)
    return lam, j, tau.reshape(amplitudes.shape)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_basis(basis: SchurBasis, path) -> None:
    """Write the cache file (little-endian, CRC32 over the body)."""
    body = bytearray()
    for lam, block in basis.blocks.items():
        body += struct.pack("<I", len(lam.parts))
        body += struct.pack(f"<{len(lam.parts)}I", *lam.parts)
        body += struct.pack("<II", block.dim_q, block.dim_p)
        for w in block.weight_of_i:
            body += struct.pack(f"<{basis.d}I", *w)
        for i in range(block.dim_q):
            for j in range(block.dim_p):
                vec = block.vectors[(i, j)]
                records = np.empty(vec.indices.size, dtype=_RECORD)
                records["index"] = vec.indices
                records["re"] = vec.amplitudes.real
                records["im"] = vec.amplitudes.imag
                body += struct.pack("<Q", records.size)
                body += records.tobytes()
    header = _MAGIC + struct.pack(
        "<IIIII", FORMAT_VERSION, basis.d, basis.n, len(basis.blocks), zlib.crc32(bytes(body))
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(bytes(body))


def load_basis(path) -> SchurBasis:
    """Read and validate a cache file written by :func:`save_basis`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 24 or raw[:4] != _MAGIC:
        raise BasisCacheError("malformed file: bad magic or truncated header")
    version, d, n, lam_count, checksum = struct.unpack("<IIIII", raw[4:24])
    if version != FORMAT_VERSION:
        raise BasisCacheError(f"version mismatch: file has {version}, expected {FORMAT_VERSION}")
    body = raw[24:]
    if zlib.crc32(body) != checksum:
        raise BasisCacheError("checksum failure: file is corrupt or truncated")

    offset = 0

    def take(fmt):
        nonlocal offset
        size = struct.calcsize(fmt)
        if offset + size > len(body):
            raise BasisCacheError("malformed file: unexpected end of body")
        vals = struct.unpack_from(fmt, body, offset)
        offset += size
        return vals

    blocks: dict[Partition, SchurBlock] = {}
    total = 0
    top = 0
    for _ in range(lam_count):
        (k,) = take("<I")
        parts = take(f"<{k}I")
        lam = Partition(parts)
        dim_q, dim_p = take("<II")
        weights = [tuple(take(f"<{d}I")) for _ in range(dim_q)]
        for w in weights:
            if sum(w) != n:
                raise BasisCacheError(f"malformed file: weight {w} does not sum to n={n}")
        vectors: dict[tuple[int, int], SparseVector] = {}
        for i in range(dim_q):
            for j in range(dim_p):
                (count,) = take("<Q")
                if offset + count * _RECORD.itemsize > len(body):
                    raise BasisCacheError("malformed file: unexpected end of body")
                records = np.frombuffer(body, dtype=_RECORD, count=count, offset=offset)
                offset += count * _RECORD.itemsize
                top = max(top, int(records["index"].max(initial=0)))
                amp = np.empty(count, dtype=np.complex128)
                amp.real = records["re"]
                amp.imag = records["im"]
                try:
                    vectors[(i, j)] = SparseVector(records["index"].astype(np.int64), amp)
                except ValueError as exc:
                    raise BasisCacheError(f"malformed file: {exc}") from exc
        blocks[lam] = SchurBlock(lam, dim_q, dim_p, weights, vectors)
        total += dim_q * dim_p
    if offset != len(body):
        raise BasisCacheError("malformed file: trailing bytes after last block")
    dim = d**n
    if top >= dim:
        raise BasisCacheError(f"malformed file: amplitude index {top} is not below d^n = {dim}")
    if total != dim:
        raise BasisCacheError(f"count mismatch: file holds {total} vectors, but d^n = {dim}")
    return SchurBasis(d, n, blocks)


def cache_file_name(d: int, n: int) -> str:
    return f"schur_basis_d{d}_n{n}_v{FORMAT_VERSION}.schb"


def build_or_load(d: int, n: int, cache_dir=None) -> SchurBasis:
    """Load the cached basis for (d, n), building and caching on a miss."""
    if cache_dir is None:
        return build_basis(d, n)
    import os

    path = os.path.join(cache_dir, cache_file_name(d, n))
    if os.path.exists(path):
        return load_basis(path)
    basis = build_basis(d, n)
    os.makedirs(cache_dir, exist_ok=True)
    save_basis(basis, path)
    return basis
