from functools import lru_cache

import pytest

from schur_shadows.basis import SchurBasis, build_basis, build_q_bases
from schur_shadows.moments import random_protocol_state
from schur_shadows.qudit import PureState, RngStream
from schur_shadows.young import Partition


_BASIS_CACHE: dict[tuple[int, int], SchurBasis] = {}


@pytest.fixture(scope="session")
def basis_for():
    """Session-memoized basis factory: basis_for(d, n)."""

    def factory(d: int, n: int) -> SchurBasis:
        key = (d, n)
        if key not in _BASIS_CACHE:
            _BASIS_CACHE[key] = build_basis(d, n)
        return _BASIS_CACHE[key]

    return factory


@pytest.fixture(scope="session")
def protocol_state_for():
    """Random weight-pure state in the symmetrizer image of a partition.

    Returns (state, weight); deterministic in (lam, d, seed).
    """

    def factory(lam: Partition, d: int, seed: int) -> tuple[PureState, tuple[int, ...]]:
        return random_protocol_state(lam, _stage1(d, lam.n)[lam], d, RngStream(seed).gen)

    return factory


@lru_cache(maxsize=None)
def _stage1(d: int, n: int):
    return build_q_bases(d, n)
