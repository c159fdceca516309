"""Independent oracles used by the tests.

Everything here is computed by a route disjoint from the package code:
exact Beta integrals for single-row POVM moments at d = 2, brute-force
enumeration for combinatorics, backtracking counts for standard and
semistandard tableaux, the Schur-Weyl distribution of the partition label,
Schur measurement probabilities summed over the sparse basis vectors (no
dense basis matrix), and a chi-square tail. ``dense_basis_matrix`` lays the
basis out as one d^n x d^n matrix, for the tests that read whole blocks.
``product_basis_state`` builds the dense input that the reference
measurement path takes.
``young_symmetrizer_terms`` lists the Young symmetrizer's (row o column)
permutation terms, from which ``young_symmetrizer_apply_digits`` and
``young_symmetrizer_apply`` compute the symmetrizer images that the
symmetrizer and basis tests inspect. ``dicke_map_brute_force`` builds the
POVM's Dicke coordinates from an enumeration of the digit tuples. ``permutation_symmetrizer`` averages the s! slot
permutation operators, and ``second_moment_dense`` is the exact second moment
built from those d^(n+2)-square matrices, the reference for the class-mean
computation in ``moments``. ``population_shadow_dense`` runs the joint
protocol's segments on the whole (d^n', rest) matrix, the reference for the
factored segments of ``protocol.population_shadow``, and
``save_basis_records`` writes a basis file one ``struct`` record per
amplitude, the reference for the file layout of ``basis.save_basis``.
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib
from functools import lru_cache, reduce
from math import comb, factorial

import numpy as np

from schur_shadows.basis import FORMAT_VERSION, schur_measure
from schur_shadows.protocol import ShadowEstimate, _povm_sample, segment_count, shadow_matrix
from schur_shadows.qudit import OperatorGrid, Permutation, PureState, apply_local_unitary
from schur_shadows.young import BoxLayout, Partition, column_group, row_group, symmetric_dim


def beta_int(a: int, b: int) -> float:
    """integral_0^1 t^a (1-t)^b dt for non-negative integers."""
    return factorial(a) * factorial(b) / factorial(a + b + 1)


def dicke_amplitudes(p: int, q: int) -> np.ndarray:
    """Uniform superposition of all arrangements of p zeros and q ones (d=2)."""
    n = p + q
    amps = np.zeros(2**n, dtype=np.complex128)
    for bits in itertools.product((0, 1), repeat=n):
        if sum(bits) == q:
            amps[int("".join(map(str, bits)), 2)] = 1.0
    return amps / np.linalg.norm(amps)


def dicke_map_brute_force(d: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compositions of m into d parts, largest first, sqrt(multinom(m; v)), and
    the (kappa_m, d^m) map onto the normalised Dicke states, by enumerating the
    digit tuples in index order."""
    tuples = list(itertools.product(range(d), repeat=m))
    weights = [tuple(digits.count(sym) for sym in range(d)) for digits in tuples]
    comps = sorted(set(weights), reverse=True)
    row = {v: k for k, v in enumerate(comps)}
    sqrt_multinom = np.array([math.sqrt(factorial(m) / math.prod(factorial(x) for x in v)) for v in comps])
    proj = np.zeros((len(comps), d**m))
    for idx, v in enumerate(weights):
        proj[row[v], idx] = 1.0 / sqrt_multinom[row[v]]
    return np.array(comps), sqrt_multinom, proj


def single_row_first_moment_quadrature(obs: np.ndarray, p: int, q: int) -> float:
    """E[tr(O Psi)] for the single-row POVM on the (p, q) Dicke state, d = 2.

    The accepted outcome has density (n+1) C(n, q) t^p (1-t)^q in
    t = |<0|psi>|^2 with a uniform independent relative phase, and
    tr(O Psi) = (n+2) <psi|O|psi>; the phase term integrates to zero.
    """
    n = p + q
    norm = (n + 1) * comb(n, q)
    o00, o11 = obs[0, 0].real, obs[1, 1].real
    val = o00 * beta_int(p + 1, q) + o11 * beta_int(p, q + 1)
    return (n + 2) * norm * val


def single_row_second_moment_quadrature(obs: np.ndarray, p: int, q: int) -> float:
    """E[tr(O Psi)^2] for the same setup; the phase average contributes
    2 t (1 - t) |O_01|^2."""
    n = p + q
    norm = (n + 1) * comb(n, q)
    o00, o11 = obs[0, 0].real, obs[1, 1].real
    cross = float(np.abs(obs[0, 1]) ** 2)
    val = (
        o00**2 * beta_int(p + 2, q)
        + 2 * o00 * o11 * beta_int(p + 1, q + 1)
        + o11**2 * beta_int(p, q + 2)
        + 2 * cross * beta_int(p + 1, q + 1)
    )
    return (n + 2) ** 2 * norm * val


def single_row_variance_quadrature(obs: np.ndarray, p: int, q: int) -> float:
    first = single_row_first_moment_quadrature(obs, p, q)
    return single_row_second_moment_quadrature(obs, p, q) - first**2


def standard_tableaux_count(parts: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of the given shape, by backtracking."""
    n = sum(parts)
    rows = len(parts)
    filling = [[0] * p for p in parts]

    def place(value: int) -> int:
        if value > n:
            return 1
        total = 0
        for r in range(rows):
            cols_filled = sum(1 for c in filling[r] if c)
            if cols_filled == parts[r]:
                continue
            c = cols_filled
            if r > 0 and (parts[r - 1] <= c or filling[r - 1][c] == 0):
                continue
            filling[r][c] = value
            total += place(value + 1)
            filling[r][c] = 0
        return total

    return place(1)


def brute_force_partitions(n: int, d: int) -> list[tuple[int, ...]]:
    """All partitions of n with at most d parts via exhaustive search."""
    found = set()
    for cuts in itertools.product(range(n + 1), repeat=d):
        if sum(cuts) == n and all(a >= b for a, b in zip(cuts, cuts[1:])):
            found.add(tuple(p for p in cuts if p))
    return sorted(found, reverse=True)


def product_basis_state(unitary: OperatorGrid, digits, d: int) -> PureState:
    """U^{tensor n}|e> built column-by-column (no d^n matrix)."""
    cols = [unitary.entries[:, dig] for dig in digits]
    return PureState(d, len(digits), reduce(np.kron, cols))


@lru_cache(maxsize=None)
def young_symmetrizer_terms(lam: Partition) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Composed (row o column) permutation terms of the Young symmetrizer.

    Each entry is (mapping, sign): the symmetrizer is the signed sum of the
    corresponding permutation operators, column pass first.
    """
    cols = list(column_group(lam))
    return tuple((tuple(a[k] for k in b), sign) for a in row_group(lam) for b, sign in cols)


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


def young_symmetrizer_apply(lam: Partition, state: PureState) -> PureState:
    """Apply the Young symmetrizer to a dense state (output unnormalized)."""
    if lam.n != state.n:
        raise ValueError(f"partition of {lam.n} applied to {state.n} qudits")
    tensor = state.tensor_view()
    out = np.zeros_like(tensor)
    for mapping, sign in young_symmetrizer_terms(lam):
        inv = Permutation(mapping).inverse().mapping
        out += sign * tensor.transpose(inv)
    return PureState(state.d, state.n, np.ascontiguousarray(out.reshape(-1)))


def permutation_symmetrizer(d: int, m: int, slots) -> np.ndarray:
    """Dense average of the permutation operators of the given slots of m qudits."""
    slots = list(slots)
    dim = d**m
    digits = np.array(list(itertools.product(range(d), repeat=m)), dtype=np.int64).reshape(dim, m)
    powers = d ** np.arange(m - 1, -1, -1)
    cols = np.arange(dim)
    mat = np.zeros((dim, dim))
    images = list(itertools.permutations(slots))
    for image in images:
        moved = digits.copy()
        moved[:, list(image)] = digits[:, slots]
        mat[moved @ powers, cols] += 1.0
    return mat / len(images)


def second_moment_dense(lam: Partition, tau: PureState, unitary: OperatorGrid | None, rows: str) -> np.ndarray:
    """E[Psi tensor Psi] from dense per-row symmetrizers on n+2 qudits.

    Output qudits occupy slots 0 and 1. For every ordered row pair (j, j')
    allowed by ``rows`` ("all", "cross" or "diagonal") the symmetrizers of the
    enlarged row slot sets are multiplied, applied to I (tensor) rho, and the
    last n qudits are traced out.
    """
    if rows not in ("all", "cross", "diagonal"):
        raise ValueError(f"rows must be 'all', 'cross', or 'diagonal', not {rows!r}")
    d, n = tau.d, tau.n
    state = tau if unitary is None else apply_local_unitary(unitary, tau)
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    layout = BoxLayout(lam)
    big = np.kron(np.eye(d * d, dtype=np.complex128), rho)

    row_slots = [[2 + layout.box_position(r, c) for c in range(lam.parts[r])] for r in range(lam.k)]
    sym_cache: dict[frozenset, np.ndarray] = {}

    def symmetrizer(slots) -> np.ndarray:
        key = frozenset(slots)
        if key not in sym_cache:
            sym_cache[key] = permutation_symmetrizer(d, n + 2, slots)
        return sym_cache[key]

    total = np.zeros((d * d, d * d), dtype=np.complex128)
    for j in range(lam.k):
        for jp in range(lam.k):
            if rows == "cross" and j == jp:
                continue
            if rows == "diagonal" and j != jp:
                continue
            coeff = float((lam.parts[j] + d) * (lam.parts[jp] + d))
            weight_op = None
            for r in range(lam.k):
                slots = list(row_slots[r])
                extra = (1 if r == j else 0) + (1 if r == jp else 0)
                if r == j:
                    slots.append(0)
                if r == jp:
                    slots.append(1)
                if not extra and lam.parts[r] == 1:
                    continue  # single-box row without outputs: identity factor
                coeff *= symmetric_dim(lam.parts[r], d) / symmetric_dim(lam.parts[r] + extra, d)
                block = symmetrizer(slots)
                weight_op = block if weight_op is None else weight_op @ block
            term = big if weight_op is None else weight_op @ big
            total += coeff * np.einsum("arbr->ab", term.reshape(d * d, d**n, d * d, d**n))
    return total


def dense_basis_matrix(basis) -> tuple[np.ndarray, dict]:
    """The d^n x d^n matrix whose columns are the basis vectors, grouped by
    (lam, j) in block order and then j, with i increasing inside a group,
    and the column slice of each (lam, j)."""
    mat = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    slices = {}
    col = 0
    for lam, block in basis.blocks.items():
        for j in range(block.dim_p):
            for i in range(block.dim_q):
                vec = block.vectors[(i, j)]
                mat[vec.indices, col + i] = vec.amplitudes
            slices[(lam, j)] = slice(col, col + block.dim_q)
            col += block.dim_q
    return mat, slices


def block_probabilities(basis, state: PureState) -> dict:
    """||Pi_{lam,j} s||^2 for every (lam, j), from the sparse basis vectors."""
    amps = state.amplitudes
    probs = {}
    for lam, block in basis.blocks.items():
        for j in range(block.dim_p):
            vectors = [block.vectors[(i, j)] for i in range(block.dim_q)]
            probs[(lam, j)] = sum(abs(np.vdot(v.amplitudes, amps[v.indices])) ** 2 for v in vectors)
    return probs


def _semistandard_fillings(parts: tuple[int, ...], d: int):
    """Yield the content (symbol counts) of every semistandard tableau of the
    shape with entries 0..d-1: rows weakly increase, columns strictly."""
    boxes = [(r, c) for r, p in enumerate(parts) for c in range(p)]
    filling: dict[tuple[int, int], int] = {}

    def place(pos: int):
        if pos == len(boxes):
            content = [0] * d
            for val in filling.values():
                content[val] += 1
            yield tuple(content)
            return
        r, c = boxes[pos]
        low = filling[(r, c - 1)] if c else 0
        if r:
            low = max(low, filling[(r - 1, c)] + 1)
        for val in range(low, d):
            filling[(r, c)] = val
            yield from place(pos + 1)
        filling.pop((r, c), None)

    yield from place(0)


def semistandard_tableaux_count(parts: tuple[int, ...], weight) -> int:
    """Kostka number K_{lam,w}: semistandard tableaux of shape lam, content w."""
    weight = tuple(int(x) for x in weight)
    return sum(1 for content in _semistandard_fillings(tuple(parts), len(weight)) if content == weight)


def schur_polynomial(parts: tuple[int, ...], x) -> float:
    """s_lam(x) as the sum over semistandard tableaux of x^content."""
    x = np.asarray(x, dtype=np.float64)
    return float(sum(np.prod(x ** np.array(c)) for c in _semistandard_fillings(tuple(parts), x.size)))


def schur_weyl_distribution(n: int, spectrum) -> dict[tuple[int, ...], float]:
    """Law of the partition label on n i.i.d. copies: f^lam s_lam(spectrum)."""
    d = len(spectrum)
    return {
        parts: standard_tableaux_count(parts) * schur_polynomial(parts, spectrum)
        for parts in brute_force_partitions(n, d)
    }


def lambda_given_weight(weight) -> dict[tuple[int, ...], float]:
    """P(lam | e) = f^lam K_{lam,w} / multinom(n; w) for a basis state of weight w."""
    n = sum(weight)
    multinom = factorial(n) // math.prod(factorial(x) for x in weight)
    out = {}
    for parts in brute_force_partitions(n, len(weight)):
        mass = standard_tableaux_count(parts) * semistandard_tableaux_count(parts, weight)
        if mass:
            out[parts] = mass / multinom
    return out


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X >= x) of the chi-square law with integer df >= 1.

    Built from the closed forms at df = 1 (erfc) and df = 2 (exp) and the
    recurrence Q(s + 1, y) = Q(s, y) + y^s e^{-y} / s! in s = df / 2.
    """
    y = x / 2.0
    s, q = (0.5, math.erfc(math.sqrt(y))) if df % 2 else (1.0, math.exp(-y))
    while s < df / 2.0:
        if y > 0:
            q += math.exp(s * math.log(y) - y - math.lgamma(s + 1))
        s += 1.0
    return min(1.0, q)


def chi_square(counts: dict, probs: dict) -> tuple[float, int]:
    """Pearson statistic and degrees of freedom of counts against probs.

    Categories expecting fewer than five counts are pooled into one bin.
    Categories outside ``probs`` must be checked by the caller.
    """
    total = sum(counts.values())
    stat, bins = 0.0, 0
    pooled_obs, pooled_exp = 0, 0.0
    for key, p in probs.items():
        exp = total * p
        if exp < 5:
            pooled_obs += counts.get(key, 0)
            pooled_exp += exp
            continue
        stat += (counts.get(key, 0) - exp) ** 2 / exp
        bins += 1
    if pooled_exp > 0:
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
        bins += 1
    return stat, bins - 1


def population_shadow_dense(basis, state: PureState, epsilon: float, rng):
    """``protocol.population_shadow`` with every segment measured on its whole
    (d^n', rest) matrix: no Gram factor and no back-map, so each segment's
    Schur coefficients, measured state and Dicke form are state-sized."""
    t_segments = segment_count(epsilon)
    seg_size = state.n // t_segments
    d = state.d
    rest = state.amplitudes
    acc = np.zeros((d, d), dtype=np.complex128)
    partitions = []
    proposals = 0
    for t in range(t_segments):
        sub = rng.child(t)
        lam, _j, tau = schur_measure(basis, rest.reshape(d**seg_size, -1), sub)
        psis, rests, trials = _povm_sample(lam, d, tau, 1, sub.gen)
        rest = rests[0] / np.linalg.norm(rests[0])
        acc += shadow_matrix(lam, psis, d) - lam.k * np.eye(d)
        partitions.append(lam.parts)
        proposals += trials
    return ShadowEstimate(
        matrix=acc / (t_segments * seg_size),
        t_segments=t_segments,
        segment_size=seg_size,
        master_seed=rng.master_seed,
        segment_partitions=partitions,
        povm_proposals=proposals,
    )


def save_basis_records(basis, path) -> None:
    """A basis file written one ``struct`` record per amplitude."""
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
    header = b"SCHB" + struct.pack("<IIIII", FORMAT_VERSION, basis.d, basis.n, len(basis.blocks), zlib.crc32(bytes(body)))
    with open(path, "wb") as fh:
        fh.write(header + bytes(body))
