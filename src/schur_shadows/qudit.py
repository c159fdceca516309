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
(:func:`permuted_indices`), the local unitary action and the Haar draws;
the other modules call these rather than rebuilding them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Absolute tolerance used for norm / unitarity / hermiticity checks.
DEFAULT_ATOL = 1e-10

#: Hard cap on dense amplitude vectors (d**n must not exceed this).
MAX_DENSE_DIM = 2**24


class CapExceededError(RuntimeError):
    """Raised when an operation would exceed the dense-storage cap."""


def power_exceeds(d: int, n: int, cap: int) -> bool:
    """d**n > cap for d, n >= 0, decided by exponents first: d**n is formed
    only when n (bit_length(d) - 1) < bit_length(cap), where it has at most
    twice the cap's bits, and it is never converted to decimal."""
    return n * (d.bit_length() - 1) >= cap.bit_length() or d**n > cap


def check_dense_dim(d: int, n: int) -> int:
    """Return d**n, raising :class:`CapExceededError` beyond :data:`MAX_DENSE_DIM`."""
    if power_exceeds(d, n, MAX_DENSE_DIM):
        raise CapExceededError(f"dense dimension d**n = {d}**{n} exceeds cap {MAX_DENSE_DIM}")
    return d**n


# ---------------------------------------------------------------------------
# Basis indexing
# ---------------------------------------------------------------------------


def place_values(d: int, n: int) -> np.ndarray:
    """Big-endian place values d^(n-1), ..., d, 1: ``digits @ place_values(d, n)`` is the index."""
    return d ** np.arange(n - 1, -1, -1)


def digit_table(d: int, n: int) -> np.ndarray:
    """The (d^n, n) digit tuples, one per row in increasing index order."""
    return np.arange(d**n)[:, None] // place_values(d, n) % d


def permuted_indices(digits: np.ndarray, d: int, mappings: np.ndarray) -> np.ndarray:
    """out[g, r]: the index that digit tuple ``digits[r]`` moves to when
    qudit k goes to position ``mappings[g, k]``: the sum over k of digit k
    times the place value of position ``mappings[g, k]``, with no
    (rows, mappings, n) gather."""
    return place_values(d, digits.shape[1])[mappings] @ digits.T


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
        """The computational-basis state |digits>."""
        digits = np.asarray(digits, dtype=np.int64)
        if np.any((digits < 0) | (digits >= d)):
            raise ValueError(f"digits {digits.tolist()} out of range for d={d}")
        amps = np.zeros(d ** len(digits), dtype=np.complex128)
        amps[digits @ place_values(d, len(digits))] = 1.0
        return cls(d, len(digits), amps)

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


@dataclass(frozen=True)
class OperatorGrid:
    """Dense complex matrix."""

    entries: np.ndarray

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=np.complex128)
        if ent.ndim != 2:
            raise ValueError("operator entries must be a 2-d array")
        object.__setattr__(self, "entries", ent)


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
    The generator is built on the first read of :attr:`gen`, so a stream
    that only derives children builds none. A negative master seed raises
    ``ValueError`` at construction.
    """

    def __init__(self, master_seed: int, stream_id: int = 0, _path: tuple[int, ...] = ()):
        self.master_seed = int(master_seed)
        if self.master_seed < 0:
            raise ValueError(f"the master seed must be a non-negative integer, got {self.master_seed}")
        self._path = _path + (int(stream_id),)

    @cached_property
    def gen(self) -> np.random.Generator:
        # ZigZag-encode so negative stream ids remain valid spawn keys.
        key = tuple(2 * k if k >= 0 else -2 * k - 1 for k in self._path)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=self.master_seed, spawn_key=key)))

    def child(self, stream_id: int) -> "RngStream":
        """Derive an independent stream; deterministic in (self, stream_id)."""
        return RngStream(self.master_seed, stream_id, self._path)

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, path={self._path})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def apply_local_unitary(unitary: OperatorGrid, state: PureState) -> PureState:
    """Apply U tensored over every qudit; U must be d x d unitary."""
    mat = unitary.entries
    if mat.shape != (state.d, state.d):
        raise ValueError(f"unitary shape {mat.shape} does not match local dimension {state.d}")
    dev = unitarity_deviation(mat)
    if dev > DEFAULT_ATOL:
        raise ValueError(f"matrix is not unitary (deviation {dev})")
    out = state.amplitudes
    for axis in range(state.n):
        # Axis 1 of the reshape is the digit of this qudit.
        out = mat @ out.reshape(state.d**axis, state.d, -1)
    return PureState(state.d, state.n, out.reshape(-1))


def haar_pure_state_batch(d: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Draw ``count`` Haar-random d-dim unit vectors as a (count, d) array."""
    vecs = gen.standard_normal((count, d)) + 1j * gen.standard_normal((count, d))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs


def haar_unitary(d: int, rng: RngStream) -> OperatorGrid:
    """Draw a Haar-random d x d unitary: the QR of a Ginibre matrix."""
    if d < 1:
        raise ValueError("d must be >= 1")
    gen = rng.gen
    ginibre = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r)
    # Phase correction makes the distribution exactly Haar.
    return OperatorGrid(q * (diag / np.abs(diag)))
