"""Dense numerical substrate for n-qudit pure states and operators.

Conventions used throughout the package:

* Qudit positions are 0-based in code. Position 0 is the most significant
  base-d digit of a computational-basis index, matching the left-to-right
  tensor order |e_0, e_1, ..., e_{n-1}>.
* A permutation ``pi`` moves the qudit at position ``k`` to position
  ``pi(k)``; the induced operator maps |e_0,...> to the basis state whose
  digit at position pi(k) is e_k.
* States and operators are plain dense numpy arrays wrapped in thin value
  types; all functions are pure.

This module owns the index <-> digits codec (:func:`place_values`,
:func:`digit_table`), the index map of qudit permutations
(:func:`permuted_indices`) and the Haar draws; the other modules call these
rather than rebuilding them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

#: Absolute tolerance used for norm / unitarity / hermiticity checks.
DEFAULT_ATOL = 1e-10

#: Hard cap on dense amplitude vectors (d**n must not exceed this).
MAX_DENSE_DIM = 2**24


class CapExceededError(RuntimeError):
    """Raised when an operation would exceed the dense-storage cap."""


def check_dense_dim(d: int, n: int, cap: int = MAX_DENSE_DIM) -> int:
    """Return d**n, raising :class:`CapExceededError` beyond the cap."""
    dim = d**n
    if dim > cap:
        raise CapExceededError(f"dense dimension {d}**{n} = {dim} exceeds cap {cap}")
    return dim


# ---------------------------------------------------------------------------
# Basis indexing
# ---------------------------------------------------------------------------


def encode_basis(digits, d: int) -> int:
    """Encode a digit sequence as a big-endian base-d integer.

    Qudit 0 is the most significant digit: ``encode_basis((1, 1, 0), 2) == 6``.
    """
    value = 0
    for dig in digits:
        if not 0 <= dig < d:
            raise ValueError(f"digit {dig} out of range for d={d}")
        value = value * d + int(dig)
    return value


def decode_basis(value: int, d: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_basis` for a length-n sequence."""
    if not 0 <= value < d**n:
        raise ValueError(f"index {value} out of range for d={d}, n={n}")
    digits = []
    for _ in range(n):
        digits.append(value % d)
        value //= d
    return tuple(reversed(digits))


def all_digit_tuples(d: int, n: int):
    """Iterate all length-n digit tuples in increasing index order."""
    return itertools.product(range(d), repeat=n)


def place_values(d: int, n: int) -> np.ndarray:
    """Big-endian place values d^(n-1), ..., d, 1: ``digits @ place_values(d, n)`` is the index."""
    return d ** np.arange(n - 1, -1, -1)


def digit_table(d: int, n: int) -> np.ndarray:
    """The (d^n, n) digit tuples, one per row in increasing index order."""
    return np.arange(d**n)[:, None] // place_values(d, n) % d


def permuted_indices(digits: np.ndarray, d: int, mappings: np.ndarray) -> np.ndarray:
    """out[g, r]: the index that digit tuple ``digits[r]`` moves to when
    qudit k goes to position ``mappings[g, k]``."""
    moved = digits[:, np.argsort(mappings, axis=1)]
    return (moved @ place_values(d, digits.shape[1])).T


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., m-1}; ``mapping[k]`` is the image of k."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        m = len(self.mapping)
        if sorted(self.mapping) != list(range(m)):
            raise ValueError(f"mapping {self.mapping} is not a bijection on 0..{m - 1}")

    @property
    def size(self) -> int:
        return len(self.mapping)

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(tuple(range(m)))

    @classmethod
    def transposition(cls, m: int, i: int, j: int) -> "Permutation":
        mapping = list(range(m))
        mapping[i], mapping[j] = mapping[j], mapping[i]
        return cls(tuple(mapping))

    def __call__(self, k: int) -> int:
        return self.mapping[k]

    def compose(self, other: "Permutation") -> "Permutation":
        """Return self o other (other acts first)."""
        if self.size != other.size:
            raise ValueError("size mismatch in permutation composition")
        return Permutation(tuple(self.mapping[other.mapping[k]] for k in range(self.size)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for k, v in enumerate(self.mapping):
            inv[v] = k
        return Permutation(tuple(inv))

    @property
    def sign(self) -> int:
        """Parity of the inversion count: +1 for even, -1 for odd."""
        inversions = 0
        m = self.mapping
        for i in range(len(m)):
            for j in range(i + 1, len(m)):
                if m[i] > m[j]:
                    inversions += 1
        return 1 if inversions % 2 == 0 else -1


# ---------------------------------------------------------------------------
# States and operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PureState:
    """Dense amplitude vector on (C^d)^{tensor n}."""

    d: int
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        dim = check_dense_dim(self.d, self.n)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (dim,):
            raise ValueError(f"amplitude vector has shape {amps.shape}, expected ({dim},)")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_digits(cls, digits, d: int) -> "PureState":
        n = len(digits)
        amps = np.zeros(d**n, dtype=np.complex128)
        amps[encode_basis(digits, d)] = 1.0
        return cls(d, n, amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        nrm = self.norm
        if nrm < 1e-14:
            raise ValueError("cannot normalize a (numerically) zero state")
        return PureState(self.d, self.n, self.amplitudes / nrm)

    def check_normalized(self, atol: float = DEFAULT_ATOL) -> None:
        if abs(self.norm - 1.0) > atol:
            raise ValueError(f"state norm {self.norm} deviates from 1 beyond {atol}")

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape((self.d,) * self.n)

    def outer(self) -> "OperatorGrid":
        """Rank-1 density operator |s><s|."""
        return OperatorGrid(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class OperatorGrid:
    """Dense complex matrix with optional hermiticity validation."""

    entries: np.ndarray
    hermitian: bool = field(default=False)

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=np.complex128)
        if ent.ndim != 2:
            raise ValueError("operator entries must be a 2-d array")
        object.__setattr__(self, "entries", ent)
        if self.hermitian:
            dev = hermiticity_deviation(ent)
            if dev > DEFAULT_ATOL:
                raise ValueError(f"matrix declared Hermitian deviates by {dev}")

    @classmethod
    def identity(cls, dim: int) -> "OperatorGrid":
        return cls(np.eye(dim, dtype=np.complex128), hermitian=True)


def hermiticity_deviation(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix - matrix.conj().T))) if matrix.size else 0.0


def unitarity_deviation(matrix: np.ndarray) -> float:
    dim = matrix.shape[0]
    return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim))))


# ---------------------------------------------------------------------------
# Reproducible randomness
# ---------------------------------------------------------------------------


class RngStream:
    """Seeded random stream addressed by (master_seed, stream path).

    Identical (master_seed, stream_id) always reproduce the same draw
    sequence. A stream is single-owner: code that fans out work derives
    independent children with :meth:`child` instead of sharing one stream.
    """

    def __init__(self, master_seed: int, stream_id: int = 0, _path: tuple[int, ...] = ()):
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)
        self._path = _path + (int(stream_id),)
        # ZigZag-encode so negative stream ids remain valid spawn keys.
        key = tuple(2 * k if k >= 0 else -2 * k - 1 for k in self._path)
        self.gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=self.master_seed, spawn_key=key))
        )

    def child(self, stream_id: int) -> "RngStream":
        """Derive an independent stream; deterministic in (self, stream_id)."""
        return RngStream(self.master_seed, stream_id, self._path)

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, path={self._path})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def apply_permutation(perm: Permutation, state: PureState) -> PureState:
    """Apply the tensor-factor permutation operator to a pure state."""
    if perm.size != state.n:
        raise ValueError(f"permutation on {perm.size} symbols applied to {state.n} qudits")
    inv = perm.inverse().mapping
    out = state.tensor_view().transpose(inv).reshape(-1)
    return PureState(state.d, state.n, np.ascontiguousarray(out))


def apply_local_unitary(unitary: OperatorGrid, state: PureState, atol: float = DEFAULT_ATOL) -> PureState:
    """Apply U tensored over every qudit; U must be d x d unitary."""
    mat = unitary.entries
    if mat.shape != (state.d, state.d):
        raise ValueError(f"unitary shape {mat.shape} does not match local dimension {state.d}")
    dev = unitarity_deviation(mat)
    if dev > atol:
        raise ValueError(f"matrix is not unitary (deviation {dev})")
    return PureState(state.d, state.n, local_unitary_action(mat, state.amplitudes, state.n))


def local_unitary_action(mat: np.ndarray, amplitudes: np.ndarray, n: int) -> np.ndarray:
    """U^{tensor n} applied along axis 0 of a (d^n, ...) array; U is not checked."""
    d = mat.shape[0]
    out = amplitudes
    for axis in range(n):
        # Axis 1 of the reshape is the digit of this qudit.
        out = mat @ out.reshape(d**axis, d, -1)
    return out.reshape(amplitudes.shape)


def partial_trace_keep(rho: OperatorGrid, keep, d: int, m: int) -> OperatorGrid:
    """Trace out all qudits except ``keep`` from an m-qudit operator.

    Parameters
    ----------
    rho : OperatorGrid
        Operator on (C^d)^{tensor m}, shape (d**m, d**m).
    keep : sequence of int
        0-based qudit positions to keep, in the order they should appear
        in the output.
    """
    keep = list(keep)
    if not keep:
        raise ValueError("keep set must be non-empty")
    if any(not 0 <= q < m for q in keep):
        raise ValueError(f"keep indices {keep} out of range for m={m}")
    if len(set(keep)) != len(keep):
        raise ValueError("keep indices must be distinct")
    if rho.entries.shape != (d**m, d**m):
        raise ValueError("operator shape does not match (d, m)")

    tensor = rho.entries.reshape((d,) * (2 * m))
    # einsum subscripts: traced qudits share one axis label between the row
    # and column sides; kept qudits get distinct row/col labels.
    row = [0] * m
    col = [0] * m
    next_label = 0
    out_labels = []
    for q in keep:
        row[q] = next_label
        col[q] = next_label + 1
        out_labels += [next_label, next_label + 1]
        next_label += 2
    for q in range(m):
        if q not in keep:
            row[q] = next_label
            col[q] = next_label
            next_label += 1
    reduced = np.einsum(tensor, row + col, out_labels)
    dim_out = d ** len(keep)
    # interleaved (row, col) axis pairs -> (rows..., cols...)
    order = list(range(0, 2 * len(keep), 2)) + list(range(1, 2 * len(keep), 2))
    reduced = reduced.transpose(order).reshape(dim_out, dim_out)
    return OperatorGrid(np.ascontiguousarray(reduced))


def haar_pure_state(d: int, rng: RngStream) -> PureState:
    """Draw a Haar-random single-qudit pure state."""
    if d < 1:
        raise ValueError("d must be >= 1")
    vec = rng.gen.standard_normal(d) + 1j * rng.gen.standard_normal(d)
    vec /= np.linalg.norm(vec)
    return PureState(d, 1, vec)


def haar_pure_state_batch(d: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Draw ``count`` Haar-random d-dim unit vectors as a (count, d) array."""
    vecs = gen.standard_normal((count, d)) + 1j * gen.standard_normal((count, d))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs


def haar_unitary_batch(d: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Draw ``count`` Haar-random d x d unitaries (QR of Ginibre matrices) as a (count, d, d) array."""
    ginibre = gen.standard_normal((count, d, d)) + 1j * gen.standard_normal((count, d, d))
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r, axis1=1, axis2=2)
    # Phase correction makes the distribution exactly Haar.
    return q * (diag / np.abs(diag))[:, None, :]


def haar_unitary(d: int, rng: RngStream) -> OperatorGrid:
    """Draw a Haar-random d x d unitary: the one-draw batch."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return OperatorGrid(haar_unitary_batch(d, 1, rng.gen)[0])
