"""Construction, verification, persistence, and use of the nice Schur basis.

The basis {|(lam, i, j)>} is built in two stages:

1. :func:`build_q_bases`: for each partition, Gram-Schmidt the Young
   symmetrizer images of the weight subspaces, visiting weights in reverse
   lexicographic order. This yields the ``j = 0`` layer: an orthonormal,
   weight-pure basis of the symmetrizer's image.
2. :func:`schur_basis_completion`: for each partition, span the permutation
   orbit of the first ``j = 0`` vector, pick an orthonormal basis of that
   span, express it in permutation coefficients, and reuse those coefficients
   to interpolate the remaining ``(i, j)`` layers.

Every vector is supported on a single weight subspace, so the whole basis is
stored sparsely (computational-basis index / amplitude pairs).

:func:`schur_measure` is the one dense implementation of the protocol's first
step: the projective measurement of (lam, j) followed by the change of basis
that moves the measured block onto (lam, 0). It works on the measured rows
of a (d^n, rest) matrix, so a segment of a larger joint state is measured
without reshaping the rest away.
"""

from __future__ import annotations

import itertools
import logging
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .qudit import PureState, RngStream, check_dense_dim, decode_basis, encode_basis, haar_unitary
from .young import (
    Partition,
    digit_tuples_of_weight,
    majorizes,
    partitions_of,
    weights_reverse_lex,
    young_symmetrizer_apply_digits,
)

logger = logging.getLogger(__name__)

#: Gram-Schmidt acceptance: residuals below this fraction of the original
#: norm are treated as linearly dependent and discarded.
GS_CUTOFF = 1e-9

#: Maximum residual allowed when solving for permutation coefficients.
COEFF_RESIDUAL_TOL = 1e-8

#: Cache file format version.
FORMAT_VERSION = 1

_MAGIC = b"SCHB"


class BasisCacheError(RuntimeError):
    """Raised when a basis cache file is unreadable or inconsistent."""


class SpanExtractionError(RuntimeError):
    """Raised when permutation-coefficient extraction fails numerically."""


@dataclass(frozen=True)
class SchurLabel:
    lam: Partition
    i: int
    j: int


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
        if idx.size and np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def from_pairs(cls, pairs, prune: float = 1e-14) -> "SparseVector":
        kept = [(i, a) for i, a in pairs if abs(a) >= prune]
        kept.sort(key=lambda t: t[0])
        idx = np.array([i for i, _ in kept], dtype=np.int64)
        amp = np.array([a for _, a in kept], dtype=np.complex128)
        return cls(idx, amp)

    def to_dense(self, dim: int) -> np.ndarray:
        dense = np.zeros(dim, dtype=np.complex128)
        dense[self.indices] = self.amplitudes
        return dense

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class SchurBlock:
    """Per-partition slice of the basis."""

    lam: Partition
    dim_q: int
    dim_p: int
    weight_of_i: list[tuple[int, ...]]
    vectors: dict[tuple[int, int], SparseVector]
    early_stopped: bool = False


@dataclass
class SchurBasis:
    d: int
    n: int
    blocks: dict[Partition, SchurBlock]
    _dense: np.ndarray | None = field(default=None, repr=False)
    _slices: dict[tuple[Partition, int], slice] | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.d**self.n

    def labels(self):
        for lam, block in self.blocks.items():
            for j in range(block.dim_p):
                for i in range(block.dim_q):
                    yield SchurLabel(lam, i, j)

    def vector(self, lam: Partition, i: int, j: int) -> SparseVector:
        return self.blocks[lam].vectors[(i, j)]

    def dense_matrix(self) -> np.ndarray:
        """Columns are basis vectors grouped block-contiguously by (lam, j)."""
        if self._dense is None:
            dim = self.dim
            mat = np.zeros((dim, dim), dtype=np.complex128)
            slices: dict[tuple[Partition, int], slice] = {}
            col = 0
            for lam, block in self.blocks.items():
                for j in range(block.dim_p):
                    start = col
                    for i in range(block.dim_q):
                        vec = block.vectors[(i, j)]
                        mat[vec.indices, col] = vec.amplitudes
                        col += 1
                    slices[(lam, j)] = slice(start, col)
            if col != dim:
                raise ValueError(f"basis has {col} vectors, expected {dim}")
            self._dense = mat
            self._slices = slices
        return self._dense

    def block_slice(self, lam: Partition, j: int) -> slice:
        self.dense_matrix()
        return self._slices[(lam, j)]

    def gram_deviation(self) -> float:
        mat = self.dense_matrix()
        gram = mat.conj().T @ mat
        return float(np.max(np.abs(gram - np.eye(self.dim))))


# ---------------------------------------------------------------------------
# Stage 1: per-weight Gram-Schmidt on the symmetrizer image
# ---------------------------------------------------------------------------


def _orthonormalize_into(basis_cols: list[np.ndarray], candidate: np.ndarray, cutoff: float) -> np.ndarray | None:
    """Modified Gram-Schmidt with one re-orthogonalization pass."""
    orig = np.linalg.norm(candidate)
    if orig < 1e-14:
        return None
    vec = candidate.astype(np.complex128, copy=True)
    for _ in range(2):
        for col in basis_cols:
            vec -= np.vdot(col, vec) * col
    residual = np.linalg.norm(vec)
    if residual < cutoff * orig:
        return None
    return vec / residual


def build_q_bases(d: int, n: int) -> dict[Partition, tuple[list[tuple[int, ...]], list[SparseVector]]]:
    """Orthonormal weight-pure bases of the Young symmetrizer images.

    Returns, per partition, the per-vector weight list and the sparse
    vectors; vector 0 lies in the lexicographically largest admissible
    weight subspace.
    """
    check_dense_dim(d, n)
    out: dict[Partition, tuple[list[tuple[int, ...]], list[SparseVector]]] = {}
    for lam in partitions_of(n, d):
        weights: list[tuple[int, ...]] = []
        vectors: list[SparseVector] = []
        for w in weights_reverse_lex(n, d):
            # Non-majorized weights are annihilated by the symmetrizer.
            if not majorizes(lam, w):
                continue
            tuples = digit_tuples_of_weight(w)
            coord = {t: r for r, t in enumerate(tuples)}
            accepted: list[np.ndarray] = []
            for e in tuples:
                image = young_symmetrizer_apply_digits(lam, e)
                if not image:
                    continue
                col = np.zeros(len(tuples), dtype=np.complex128)
                for t, val in image.items():
                    col[coord[t]] = val
                unit = _orthonormalize_into(accepted, col, GS_CUTOFF)
                if unit is not None:
                    accepted.append(unit)
            indices = np.array([encode_basis(t, d) for t in tuples], dtype=np.int64)
            for unit in accepted:
                vectors.append(SparseVector.from_pairs(zip(indices.tolist(), unit.tolist())))
                weights.append(w)
        out[lam] = (weights, vectors)
    return out


# ---------------------------------------------------------------------------
# Stage 2: completion by permutation-span interpolation
# ---------------------------------------------------------------------------


def _weight_coords(d: int, weight) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int], np.ndarray]:
    tuples = digit_tuples_of_weight(weight)
    coord = {t: r for r, t in enumerate(tuples)}
    indices = np.array([encode_basis(t, d) for t in tuples], dtype=np.int64)
    return tuples, coord, indices


def _perm_row_map(mapping: tuple[int, ...], tuples, coord) -> np.ndarray:
    """Row remap of a weight subspace under a tensor-factor permutation."""
    rows = np.empty(len(tuples), dtype=np.int64)
    for r, digits in enumerate(tuples):
        out = [0] * len(digits)
        for k, dig in enumerate(digits):
            out[mapping[k]] = dig
        rows[r] = coord[tuple(out)]
    return rows


def schur_basis_completion(
    d: int,
    n: int,
    q_bases: dict[Partition, tuple[list[tuple[int, ...]], list[SparseVector]]],
    perm_budget: int = 2_000_000,
    early_stop: bool = True,
) -> SchurBasis:
    """Complete per-partition image bases into a full nice Schur basis.

    For each partition the permutation orbit of vector (0, 0) is scanned in
    lexicographic order; the scan stops early once ``n * dim`` consecutive
    permutations fail to enlarge the span. The resulting orthonormal span
    basis is expressed in coefficients over the greedily selected independent
    permutations, and those coefficients interpolate every other row ``i``.
    """
    dim = check_dense_dim(d, n)
    blocks: dict[Partition, SchurBlock] = {}
    total = 0
    for lam in partitions_of(n, d):
        weights, vectors = q_bases[lam]
        if not vectors:
            raise SpanExtractionError(f"empty symmetrizer image for partition {lam}")
        dim_q = len(vectors)
        w0 = weights[0]
        tuples0, coord0, _ = _weight_coords(d, w0)
        v00 = np.zeros(len(tuples0), dtype=np.complex128)
        base = vectors[0]
        lookup = {int(ix): amp for ix, amp in zip(base.indices, base.amplitudes)}
        for r, t in enumerate(tuples0):
            v00[r] = lookup.get(encode_basis(t, d), 0.0)

        span_cols: list[np.ndarray] = []
        selected: list[tuple[int, ...]] = []
        selected_cols: list[np.ndarray] = []
        stall = 0
        scanned = 0
        stopped_early = False
        for perm in itertools.permutations(range(n)):
            scanned += 1
            if scanned > perm_budget:
                raise SpanExtractionError(
                    f"permutation budget {perm_budget} exhausted for partition {lam}"
                )
            rows = _perm_row_map(perm, tuples0, coord0)
            cand = np.zeros_like(v00)
            cand[rows] = v00
            unit = _orthonormalize_into(span_cols, cand, GS_CUTOFF)
            if unit is None:
                stall += 1
                if early_stop and stall >= n * max(1, len(span_cols)):
                    stopped_early = scanned < math.factorial(n)
                    break
            else:
                span_cols.append(unit)
                selected.append(perm)
                selected_cols.append(cand)
                stall = 0
        dim_p = len(span_cols)
        if stopped_early:
            logger.info("early stop for %s after %d of %d permutations", lam, scanned, math.factorial(n))

        # Coefficients alpha with |(lam,0,j)> = sum_t alpha[t, j] P_{pi_t} |(lam,0,0)>.
        mat = np.stack(selected_cols, axis=1)
        targets = np.stack(span_cols, axis=1)
        alpha, *_ = np.linalg.lstsq(mat, targets, rcond=None)
        residual = float(np.max(np.abs(mat @ alpha - targets))) if mat.size else 0.0
        if residual > COEFF_RESIDUAL_TOL:
            raise SpanExtractionError(
                f"coefficient solve residual {residual:.3e} exceeds {COEFF_RESIDUAL_TOL} for {lam}"
            )

        block_vectors: dict[tuple[int, int], SparseVector] = {}
        for i in range(dim_q):
            w_i = weights[i]
            tuples_i, coord_i, indices_i = _weight_coords(d, w_i)
            vi0 = np.zeros(len(tuples_i), dtype=np.complex128)
            lookup = {int(ix): amp for ix, amp in zip(vectors[i].indices, vectors[i].amplitudes)}
            for r, t in enumerate(tuples_i):
                vi0[r] = lookup.get(encode_basis(t, d), 0.0)
            permuted = np.empty((len(tuples_i), len(selected)), dtype=np.complex128)
            for t, perm in enumerate(selected):
                rows = _perm_row_map(perm, tuples_i, coord_i)
                col = np.zeros_like(vi0)
                col[rows] = vi0
                permuted[:, t] = col
            images = permuted @ alpha
            for j in range(dim_p):
                block_vectors[(i, j)] = SparseVector.from_pairs(
                    zip(indices_i.tolist(), images[:, j].tolist())
                )
        blocks[lam] = SchurBlock(lam, dim_q, dim_p, list(weights), block_vectors, stopped_early)
        total += dim_q * dim_p

    if total != dim:
        raise SpanExtractionError(
            f"dimension bookkeeping failed: sum dim_q*dim_p = {total}, expected {dim}"
        )
    basis = SchurBasis(d, n, blocks)
    dev = basis.gram_deviation()
    if dev > 1e-9:
        raise SpanExtractionError(f"completed basis Gram deviation {dev:.3e} exceeds 1e-9")
    return basis


def build_basis(d: int, n: int, **kwargs) -> SchurBasis:
    """Convenience wrapper: stage 1 then stage 2."""
    return schur_basis_completion(d, n, build_q_bases(d, n), **kwargs)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_nice_basis(basis: SchurBasis, rng: RngStream, trials: int = 20) -> dict:
    """Residual report: orthonormality, weight purity, and block closures.

    The U-closure residual measures how far U^{tensor n} maps a basis vector
    out of its fixed-j block; the pi-closure residual is the analogue for
    permutations and fixed-i blocks.
    """
    from .qudit import Permutation, apply_local_unitary, apply_permutation
    from .young import weight_of

    mat = basis.dense_matrix()
    gram_dev = basis.gram_deviation()

    purity_dev = 0.0
    count_ok = sum(b.dim_q * b.dim_p for b in basis.blocks.values()) == basis.dim
    for lam, block in basis.blocks.items():
        for (i, _j), vec in block.vectors.items():
            want = block.weight_of_i[i]
            for ix in vec.indices:
                got = weight_of(decode_basis(int(ix), basis.d, basis.n), basis.d)
                if got != want:
                    purity_dev = max(purity_dev, float(np.max(np.abs(vec.amplitudes))))

    u_residual = 0.0
    pi_residual = 0.0
    for trial in range(trials):
        sub = rng.child(trial)
        u = haar_unitary(basis.d, sub)
        perm = Permutation(tuple(sub.gen.permutation(basis.n).tolist()))
        for lam, block in basis.blocks.items():
            for j in range(block.dim_p):
                cols = mat[:, basis.block_slice(lam, j)]
                for i in range(block.dim_q):
                    vec = block.vectors[(i, j)].to_dense(basis.dim)
                    moved = apply_local_unitary(u, PureState(basis.d, basis.n, vec)).amplitudes
                    u_residual = max(u_residual, _span_residual(cols, moved))
            for i in range(block.dim_q):
                cols = np.stack(
                    [block.vectors[(i, j)].to_dense(basis.dim) for j in range(block.dim_p)], axis=1
                )
                for j in range(block.dim_p):
                    vec = block.vectors[(i, j)].to_dense(basis.dim)
                    moved = apply_permutation(perm, PureState(basis.d, basis.n, vec)).amplitudes
                    pi_residual = max(pi_residual, _span_residual(cols, moved))
    return {
        "gram_deviation": gram_dev,
        "vector_count_ok": count_ok,
        "weight_purity_violation": purity_dev,
        "u_closure_residual": u_residual,
        "pi_closure_residual": pi_residual,
        "trials": trials,
        "early_stopped": sorted(str(lam) for lam, b in basis.blocks.items() if b.early_stopped),
    }


def _span_residual(cols: np.ndarray, vec: np.ndarray) -> float:
    coeff = cols.conj().T @ vec
    return float(np.linalg.norm(vec - cols @ coeff))


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def schur_measure(
    basis: SchurBasis, amplitudes: np.ndarray, rng: RngStream
) -> tuple[Partition, int, np.ndarray]:
    """Schur projective measurement followed by the block change of basis.

    ``amplitudes`` is a (d^n, rest) matrix whose rows are the measured qudits
    (a single state vector of length d^n works the same way). The outcome
    (lam, j) is drawn with probability ||Pi_{lam,j} s||^2 in the dense column
    order; the returned ``tau`` is the projected state with its (lam, j)
    coefficients moved onto the (lam, 0) block, renormalized, in the shape
    of ``amplitudes``.
    """
    if amplitudes.shape[0] != basis.dim:
        raise ValueError(f"state has {amplitudes.shape[0]} rows, basis needs {basis.dim}")
    dense = basis.dense_matrix()
    coeffs = dense.conj().T @ amplitudes
    keys = []
    probs = []
    for lam, block in basis.blocks.items():
        for j in range(block.dim_p):
            sl = basis.block_slice(lam, j)
            keys.append((lam, j, sl))
            probs.append(float(np.sum(np.abs(coeffs[sl]) ** 2)))
    probs = np.array(probs)
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"block probabilities sum to {total}, expected 1")
    pick = rng.gen.choice(len(keys), p=probs / total)
    lam, j, sl = keys[pick]
    tau = dense[:, basis.block_slice(lam, 0)] @ coeffs[sl]
    tau /= np.linalg.norm(tau)
    return lam, j, tau


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
                body += struct.pack("<Q", vec.indices.size)
                for ix, amp in zip(vec.indices, vec.amplitudes):
                    body += struct.pack("<Qdd", int(ix), float(amp.real), float(amp.imag))
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
                idx = np.empty(count, dtype=np.int64)
                amp = np.empty(count, dtype=np.complex128)
                for t in range(count):
                    ix, re, im = take("<Qdd")
                    idx[t] = ix
                    amp[t] = complex(re, im)
                try:
                    vectors[(i, j)] = SparseVector(idx, amp)
                except ValueError as exc:
                    raise BasisCacheError(f"malformed file: {exc}") from exc
        blocks[lam] = SchurBlock(lam, dim_q, dim_p, weights, vectors)
        total += dim_q * dim_p
    if offset != len(body):
        raise BasisCacheError("malformed file: trailing bytes after last block")
    if total != d**n:
        raise BasisCacheError(
            f"count mismatch: file holds {total} vectors, but d^n = {d**n}"
        )
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
