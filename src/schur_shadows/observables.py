"""Named observable generators and the JSON matrix loader."""

from __future__ import annotations

import json

import numpy as np

from .protocol import Observable
from .qudit import RngStream


def pauli_z_observable(d: int) -> Observable:
    """diag(1, -1, 0, ..., 0): traceless, tr(O^2) = 2."""
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[0, 0] = 1.0
    mat[1, 1] = -1.0
    return Observable(mat, 2.0)


def off_diagonal_observable(d: int) -> Observable:
    """[[0, 1], [1, 0]] embedded in the top-left block; tr(O^2) = 2."""
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[0, 1] = 1.0
    mat[1, 0] = 1.0
    return Observable(mat, 2.0)


def random_projector_observable(d: int, rank: int, rng: RngStream) -> Observable:
    """Haar-random rank-s projector; spectral norm 1, tr(O^2) = s."""
    if not 1 <= rank <= d:
        raise ValueError(f"projector rank must be in 1..{d}")
    from .qudit import haar_unitary

    cols = haar_unitary(d, rng).entries[:, :rank]
    return Observable(cols @ cols.conj().T, float(rank))


def load_observable_json(path, frobenius_sq_bound: float | None = None) -> Observable:
    """Load a Hermitian matrix from JSON.

    Schema: {"matrix": [[...], ...]} with entries either numbers or
    [re, im] pairs; an optional "frobenius_sq_bound" field is overridden by
    the argument when given.
    """
    with open(path) as fh:
        payload = json.load(fh)
    rows = payload["matrix"]

    def to_complex(cell):
        if isinstance(cell, (list, tuple)):
            return complex(cell[0], cell[1])
        return complex(cell)

    mat = np.array([[to_complex(c) for c in row] for row in rows], dtype=np.complex128)
    bound = frobenius_sq_bound
    if bound is None:
        bound = float(payload.get("frobenius_sq_bound", np.trace(mat @ mat).real))
    return Observable(mat, bound)


def make_observable(spec: str, d: int, rng: RngStream, frobenius_sq_bound: float | None = None) -> Observable:
    """Dispatch an observable spec: a generator name or ``@file.json``.

    Recognized names: ``pauli-z``, ``off-diagonal``, ``projector`` or
    ``projector:<rank>`` (default rank d // 2). A loaded matrix must be d x d.
    """
    if spec.startswith("@"):
        out = load_observable_json(spec[1:], frobenius_sq_bound)
    elif spec == "pauli-z":
        out = pauli_z_observable(d)
    elif spec == "off-diagonal":
        out = off_diagonal_observable(d)
    elif spec == "projector" or spec.startswith("projector:"):
        rank = max(1, d // 2)
        if ":" in spec:
            rank = int(spec.split(":", 1)[1])
        out = random_projector_observable(d, rank, rng)
    else:
        raise ValueError(f"unknown observable spec {spec!r}")
    if out.d != d:
        raise ValueError(f"{spec} gives a {out.d} x {out.d} matrix, expected {d} x {d}")
    if frobenius_sq_bound is not None:
        # re-validate against the caller's declared bound
        out = Observable(out.matrix, frobenius_sq_bound)
    return out


GENERATOR_FAMILIES = ("pauli-z", "off-diagonal", "projector")
