import pytest

from schur_shadows.basis import SchurBasis, build_basis
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
def protocol_state_for(basis_for):
    """Random weight-pure state in the symmetrizer image of a partition.

    Returns (state, weight); deterministic in (lam, d, seed).
    """

    def factory(lam: Partition, d: int, seed: int) -> tuple[PureState, tuple[int, ...]]:
        block = basis_for(d, lam.n).blocks[lam]
        vectors = [block.vectors[(i, 0)] for i in range(block.dim_q)]
        return random_protocol_state(lam, block.weight_of_i, vectors, d, RngStream(seed).gen)

    return factory
