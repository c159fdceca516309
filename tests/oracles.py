"""Independent oracles used by the tests.

Everything here is computed by a route disjoint from the package code:
Python loops for the index <-> digits codec (``encode_basis``,
``decode_basis``) and for weights (``weight_of``), ``itertools``
enumerations of the weights and of the digit tuples of one weight
(``weights_brute_force``, ``digit_tuples_brute_force``), a tensor transpose
for qudit permutations (``apply_permutation``), exact Beta integrals for
single-row POVM moments at d = 2, brute-force
enumeration for combinatorics, backtracking counts for standard and
semistandard tableaux, the Schur-Weyl distribution of the partition label,
and a chi-square tail. ``block_frames`` builds each (lam, j) block of the
nice basis from its definition (the Young symmetrizer image, and the
standard-tableau permutations of a lattice-word enumeration), without the
package's basis; ``block_probabilities`` measures a state on those frames,
and ``isotypic_probabilities`` gives the partition law from the S_n
characters (Murnaghan-Nakayama) where a dense frame would not fit.
``dense_basis_matrix`` lays the basis's weight slices out as one d^n x d^n
matrix, for the tests that read whole blocks, ``dense_stage1`` lays out
stage 1's blocks, ``edited_basis`` copies a basis with one slice edited
(``rotate`` is such an edit), and ``verify_per_slice`` computes the
residuals of ``basis.verify_nice_basis`` one slice, generator and
transposition at a time, the reference for its batched products, against
the dense rho(s_k) of Young's orthogonal form that ``orthogonal_form_dense``
builds from the brute-force tableaux and their contents
(``tableau_content``).
``product_basis_state`` builds the dense input that the reference
measurement path takes.
``row_group`` enumerates the row-stabilizing permutations as a product of
each row's permutations, and ``row_group_projector`` averages their
operators, the reference for the row symmetrizers of ``moments``.
``rotated`` applies U^{tensor n} to a state, for the exact moments of a
rotated measurement.
``young_symmetrizer_terms`` lists the Young symmetrizer's (row o column)
permutation terms, from which ``young_symmetrizer_apply_digits`` and
``young_symmetrizer_apply`` compute the symmetrizer images that the
symmetrizer and basis tests inspect. ``dicke_map_brute_force`` builds the
POVM's Dicke coordinates from an enumeration of the digit tuples. ``permutation_symmetrizer`` averages the s! slot
permutation operators, and ``second_moment_dense`` is the exact second moment
built from those d^(n+2)-square matrices, the reference for the class-mean
computation in ``moments``. ``population_shadow_dense`` runs the joint
protocol's segments on the whole (d^n', rest) matrix, the reference for the
factored segments of ``protocol.population_shadow``,
``random_basis_shadow`` is the single-copy baseline as its definition reads:
each copy measured in its own Haar-random basis (QR of a Ginibre matrix),
the reference for ``protocol.baseline_single_copy_shadow``.
``save_basis_records`` writes a basis file one ``struct`` record at a time,
the reference for the file layout of ``basis.save_basis``, and
``write_old_format_file`` writes a file of the retired format version 1
or 2.
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
from schur_shadows.protocol import ShadowEstimate, _povm_sample, _RowLaw, segment_count, shadow_matrix
from schur_shadows.qudit import OperatorGrid, PureState, apply_local_unitary
from schur_shadows.young import BoxLayout, Partition, column_group, symmetric_dim


def encode_basis(digits, d: int) -> int:
    """A digit sequence as a big-endian base-d integer: qudit 0 is the most
    significant digit, so ``encode_basis((1, 1, 0), 2) == 6``."""
    value = 0
    for dig in digits:
        if not 0 <= dig < d:
            raise ValueError(f"digit {dig} out of range for d={d}")
        value = value * d + int(dig)
    return value


def decode_basis(value: int, d: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_basis` for a length-n sequence."""
    digits = []
    for _ in range(n):
        digits.append(value % d)
        value //= d
    return tuple(reversed(digits))


def weight_of(digits, d: int) -> tuple[int, ...]:
    """Occurrence count of each symbol 0..d-1 in a digit sequence."""
    counts = [0] * d
    for dig in digits:
        counts[dig] += 1
    return tuple(counts)


def weights_brute_force(n: int, d: int) -> list[tuple[int, ...]]:
    """The weights of the n-digit tuples, lexicographically largest first."""
    return sorted({weight_of(e, d) for e in itertools.product(range(d), repeat=n)}, reverse=True)


def digit_tuples_brute_force(weight) -> list[tuple[int, ...]]:
    """The digit tuples of one weight, in increasing index order."""
    d, n = len(weight), sum(weight)
    return [e for e in itertools.product(range(d), repeat=n) if weight_of(e, d) == tuple(weight)]


def apply_permutation(mapping, state: PureState) -> PureState:
    """The qudit permutation moving qudit k to position ``mapping[k]``, as a
    transpose of the state's (d,) * n tensor."""
    out = state.amplitudes.reshape((state.d,) * state.n).transpose(np.argsort(mapping))
    return PureState(state.d, state.n, np.ascontiguousarray(out).reshape(-1))


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
    """All partitions of n with at most d parts via exhaustive search over
    the non-increasing d-tuples of 0..n."""
    found = set()
    for cuts in itertools.combinations_with_replacement(range(n, -1, -1), d):
        if sum(cuts) == n:
            found.add(tuple(p for p in cuts if p))
    return sorted(found, reverse=True)


def product_basis_state(unitary: OperatorGrid, digits, d: int) -> PureState:
    """U^{tensor n}|e> built column-by-column (no d^n matrix)."""
    cols = [unitary.entries[:, dig] for dig in digits]
    return PureState(d, len(digits), reduce(np.kron, cols))


def row_group(lam: Partition):
    """Iterate the mapping tuples of the row-stabilizing permutations of the
    canonical tableau, each row's orderings taken lexicographically and the
    last row fastest."""
    rows = [itertools.permutations(block) for block in BoxLayout(lam).row_blocks()]
    return (sum(combo, ()) for combo in itertools.product(*rows))


def row_group_projector(lam: Partition, d: int) -> np.ndarray:
    """Average of the permutation operators of :func:`row_group` on n qudits."""
    n = lam.n
    digits = np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64).reshape(d**n, n)
    powers = d ** np.arange(n - 1, -1, -1)
    cols = np.arange(d**n)
    mat = np.zeros((d**n, d**n))
    perms = list(row_group(lam))
    for mapping in perms:
        mat[digits[:, list(mapping)] @ powers, cols] += 1.0
    return mat / len(perms)


def rotated(tau: PureState, unitary: OperatorGrid | None) -> PureState:
    """U^{tensor n} tau, or tau itself when ``unitary`` is None."""
    return tau if unitary is None else apply_local_unitary(unitary, tau)


@lru_cache(maxsize=None)
def young_symmetrizer_terms(lam: Partition) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Composed (row o column) permutation terms of the Young symmetrizer.

    Each entry is (mapping, sign): the symmetrizer is the signed sum of the
    corresponding permutation operators, column pass first.
    """
    mappings, signs = column_group(lam)
    cols = list(zip(mappings.tolist(), signs.tolist()))
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
    tensor = state.amplitudes.reshape((state.d,) * state.n)
    out = np.zeros_like(tensor)
    for mapping, sign in young_symmetrizer_terms(lam):
        out += sign * tensor.transpose(np.argsort(mapping))
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
    state = rotated(tau, unitary)
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
    and the column slice of each (lam, j); laid out from the weight slices
    by their (block, i, j) keys."""
    slices, col = {}, 0
    for lam, block in basis.blocks.items():
        for j in range(block.dim_p):
            slices[(lam, j)] = slice(col, col + block.dim_q)
            col += block.dim_q
    lams = list(basis.blocks)
    mat = np.zeros((basis.dim, basis.dim))
    for piece in basis.slices.values():
        for c, (b, i, j) in enumerate(piece.keys.tolist()):
            mat[piece.indices, slices[(lams[b], j)].start + i] = piece.matrix[:, c]
    return mat, slices


def dense_stage1(images, dim: int) -> tuple[list[tuple[int, ...]], list[np.ndarray]]:
    """Stage 1's blocks of one partition as its (lam, i, 0) weights and dense vectors, i in order."""
    weights, vectors = [], []
    for image in images:
        for col in image.columns.T:
            dense = np.zeros(dim)
            dense[image.indices] = col
            weights.append(image.weight)
            vectors.append(dense)
    return weights, vectors


def edited_basis(basis, lam: Partition, i, edit):
    """A copy of ``basis`` whose slice holding the vectors (lam, i, j) is
    edited, or with ``i`` None every slice holding vectors of lam:
    ``edit(matrix, column)`` changes a copy of the slice's matrix in place,
    where ``column[(i', j)]`` is the column of (lam, i', j)."""
    b = list(basis.blocks).index(lam)
    weight_of_i = basis.blocks[lam].weight_of_i
    matrices = dict(basis.matrices)
    for w in dict.fromkeys(weight_of_i if i is None else [weight_of_i[i]]):
        piece = basis.slices[tuple(w)]
        column = {(k, j): c for c, (owner, k, j) in enumerate(piece.keys.tolist()) if owner == b}
        matrices[tuple(w)] = piece.matrix.copy()
        edit(matrices[tuple(w)], column)
    return type(basis)(basis.d, basis.n, matrices)


def rotate(first, second, angle=0.3):
    """An edit for :func:`edited_basis` that rotates the columns of vectors
    ``first`` and ``second`` (each an (i, j)) into each other."""

    def edit(matrix, column):
        a, b = matrix[:, column[first]].copy(), matrix[:, column[second]].copy()
        matrix[:, column[first]] = np.cos(angle) * a + np.sin(angle) * b
        matrix[:, column[second]] = np.cos(angle) * b - np.sin(angle) * a

    return edit


def verify_per_slice(basis) -> dict[str, float]:
    """The Gram, weight-purity, U-closure and pi-closure residuals of
    ``verify_nice_basis``, with one product per slice, per generator
    E_{a,a+1}, E_{a+1,a} on a slice and per adjacent transposition on a
    slice, and purity read one vector key at a time. For a basis whose slices
    are its blocks' vectors.

    ``pi_closure_residual`` is max ||P_k V_w - V_w R_k|| over columns, R_k the
    dense rho(s_k) of :func:`orthogonal_form_dense` on each (lam, i)'s j
    columns, and ``u_closure_residual`` the distance of E_ab of each
    (lam, i, 0) column from the target's (lam, 0) columns. The closures of
    any nice Schur basis are kept under their own keys: ``u_block_closure``,
    the distance of E_ab of every column from its (lam, j) block, and
    ``pi_block_closure``, that of P_k of every column from its (lam, i)
    block."""
    d, n, blocks, view = basis.d, basis.n, list(basis.blocks.values()), basis.slices
    place = d ** np.arange(n - 1, -1, -1)
    # rho(s_k) of every (lam, j) pair, block diagonal over the outcomes.
    sizes = [block.dim_p for block in blocks]
    forms = [np.zeros((sum(sizes), sum(sizes))) for _ in range(n - 1)]
    for b, block in enumerate(blocks):
        at = slice(sum(sizes[:b]), sum(sizes[: b + 1]))
        for k, form in enumerate(forms):
            form[at, at] = orthogonal_form_dense(block.lam.parts, k)

    def outside(target, moved, keep):
        rest = moved - target.matrix @ (keep * (target.matrix.T @ moved))
        return float(np.max(np.linalg.norm(rest, axis=0), initial=0.0))

    impure = [
        np.abs(p.matrix[:, c]).max()
        for p in view.values()
        for c, (b, i, _) in enumerate(p.keys.tolist())
        if tuple(blocks[b].weight_of_i[i]) != p.weight
    ]
    gram = max(float(np.max(np.abs(p.matrix.T @ p.matrix - np.eye(len(p.indices))))) for p in view.values())
    u_residual = pi_residual = u_block = pi_block = 0.0
    for w, piece in view.items():
        slice_digits = piece.indices[:, None] // place % d
        layer0 = piece.keys[:, 2] == 0
        for src, dst in [step for a in range(d - 1) for step in ((a + 1, a), (a, a + 1))]:
            # E_{dst,src}: each digit src, in turn, becomes dst.
            rows, pos = np.nonzero(slice_digits == src)
            if rows.size:
                target = view[tuple(w[s] - (s == src) + (s == dst) for s in range(d))]
                lift = np.zeros((target.indices.size, piece.indices.size))
                lift[np.searchsorted(target.indices, piece.indices[rows] + (dst - src) * place[pos]), rows] = 1.0
                same_lam_j = target.outcome[:, None] == piece.outcome
                moved = lift @ piece.matrix
                u_block = max(u_block, outside(target, moved, same_lam_j))
                u_residual = max(u_residual, outside(target, moved[:, layer0], same_lam_j[:, layer0]))
        same_lam_i = np.all(piece.keys[:, None, :2] == piece.keys[:, :2], axis=2)
        for k in range(n - 1):
            swapped = slice_digits.copy()
            swapped[:, [k, k + 1]] = slice_digits[:, [k + 1, k]]
            moved = piece.matrix[np.searchsorted(piece.indices, swapped @ place)]
            pi_block = max(pi_block, outside(piece, moved, same_lam_i))
            rho = same_lam_i * forms[k][np.ix_(piece.outcome, piece.outcome)]
            pi_residual = max(pi_residual, float(np.max(np.linalg.norm(moved - piece.matrix @ rho, axis=0))))
    return {
        "gram_deviation": gram,
        "weight_purity_violation": float(max(impure, default=0.0)),
        "u_closure_residual": u_residual,
        "pi_closure_residual": pi_residual,
        "u_block_closure": u_block,
        "pi_block_closure": pi_block,
    }


def orthogonal_form_dense(parts: tuple[int, ...], k: int) -> np.ndarray:
    """rho(s_k) of Young's orthogonal form on the tableaux of
    :func:`standard_tableaux_brute_force`, in their order: column T holds
    1/r at T and sqrt(1 - 1/r^2) at s_k T, where r = c_T(k + 1) - c_T(k) and
    c = column - row of the box holding an entry."""
    tableaux = standard_tableaux_brute_force(parts)
    rho = np.zeros((len(tableaux), len(tableaux)))
    for t, tableau in enumerate(tableaux):
        r = tableau_content(parts, tableau, k + 1) - tableau_content(parts, tableau, k)
        rho[t, t] = 1.0 / r
        swapped = tuple({k: k + 1, k + 1: k}.get(e, e) for e in tableau)
        if swapped in tableaux:
            rho[tableaux.index(swapped), t] = math.sqrt(1.0 - 1.0 / r**2)
    return rho


def tableau_content(parts: tuple[int, ...], tableau: tuple[int, ...], entry: int) -> int:
    """Column minus row of the box of ``tableau`` (entries at the row-major
    boxes) that holds ``entry``."""
    box = tableau.index(entry)
    row = next(r for r in range(len(parts)) if box < sum(parts[: r + 1]))
    return box - sum(parts[:row]) - row


def standard_tableaux_brute_force(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Standard tableaux as the entries of the row-major boxes, from the
    lattice words of an ``itertools.product`` enumeration: entry e sits in
    row word[e]. Ordered by the row of entry 0, then of entry 1, and so on."""
    found = []
    for word in itertools.product(range(len(parts)), repeat=sum(parts)):
        counts = [0] * len(parts)
        for r in word:
            counts[r] += 1
            if counts[r] > parts[r] or (r and counts[r] > counts[r - 1]):
                break
        else:
            rows = [[e for e, r in enumerate(word) if r == row] for row in range(len(parts))]
            found.append(tuple(e for row in rows for e in row))
    return found


@lru_cache(maxsize=None)
def block_frames(d: int, n: int) -> dict:
    """An orthonormal frame (columns) of each (lam, j) block of the nice
    basis, from its definition and without the package's basis.

    The (lam, 0) block is the image of ``young_symmetrizer_apply``. Its one
    vector of weight lam is |(lam, 0, 0)> up to sign; with P_T the permutation
    of ``apply_permutation`` for the standard tableaux T of
    ``standard_tableaux_brute_force`` and [P_T |(lam, 0, 0)>]_T = QR, R with
    a positive diagonal, block (lam, j) is sum_T (R^-1)[T, j] P_T applied to
    the (lam, 0) block.
    """
    dim = d**n
    frames = {}
    for parts in brute_force_partitions(n, d):
        lam = Partition(parts)
        image = np.stack([young_symmetrizer_apply(lam, PureState(d, n, e)).amplitudes for e in np.eye(dim)], axis=1)
        left, singular, _ = np.linalg.svd(image)
        base = left[:, singular > 1e-9 * singular[0]]
        top = np.array([weight_of(decode_basis(x, d, n), d) == parts + (0,) * (d - len(parts)) for x in range(dim)])
        head = np.linalg.svd(base * top[:, None])[0][:, 0]
        tableaux = standard_tableaux_brute_force(parts)
        _, r = np.linalg.qr(np.stack([apply_permutation(t, PureState(d, n, head)).amplitudes for t in tableaux], axis=1))
        coeffs = np.linalg.inv(r) * (np.diagonal(r) / np.abs(np.diagonal(r)))
        for j in range(len(tableaux)):
            block = sum(
                c * np.stack([apply_permutation(t, PureState(d, n, v)).amplitudes for v in base.T], axis=1)
                for c, t in zip(coeffs[:, j], tableaux)
            )
            frames[(lam, j)] = np.linalg.qr(block)[0]
    return frames


def block_probabilities(state: PureState) -> dict:
    """||Pi_{lam,j} s||^2 for every (lam, j), on the frames of :func:`block_frames`."""
    return {key: float(np.linalg.norm(frame.conj().T @ state.amplitudes) ** 2) for key, frame in block_frames(state.d, state.n).items()}


def character(parts: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """chi^lam at a permutation of cycle lengths ``cycles``, by the
    Murnaghan-Nakayama rule on beta numbers: removing a rim hook of length r
    moves one bead b to b - r, signed by the beads it passes."""
    if not cycles:
        return 1
    k = len(parts)
    beads = [p + k - 1 - t for t, p in enumerate(parts)]
    total = 0
    for t, b in enumerate(beads):
        if b - cycles[0] >= 0 and b - cycles[0] not in beads:
            sign = (-1) ** sum(b - cycles[0] < x < b for x in beads)
            moved = sorted(beads[:t] + [b - cycles[0]] + beads[t + 1 :], reverse=True)
            rest = tuple(x - (k - 1 - s) for s, x in enumerate(moved))
            total += sign * character(tuple(p for p in rest if p), cycles[1:])
    return total


def isotypic_probabilities(amps: np.ndarray, d: int, n: int) -> dict[tuple[int, ...], float]:
    """||Pi_lam A||^2 for every partition lam of a (d^n, rest) matrix A, with
    Pi_lam = (f^lam / n!) sum_sigma chi^lam(sigma) P_sigma the isotypic
    projector of S_n: no basis is read."""
    cols = amps.reshape(d**n, -1)
    overlaps = {}
    for perm in itertools.permutations(range(n)):
        seen, cycles = set(), []
        for start in range(n):
            length = 0
            while start not in seen:
                seen.add(start)
                start, length = perm[start], length + 1
            if length:
                cycles.append(length)
        moved = np.stack([apply_permutation(perm, PureState(d, n, col)).amplitudes for col in cols.T], axis=1)
        key = tuple(sorted(cycles, reverse=True))
        overlaps[key] = overlaps.get(key, 0.0) + float(np.vdot(cols, moved).real)
    return {
        parts: standard_tableaux_count(parts) / factorial(n) * sum(character(parts, c) * v for c, v in overlaps.items())
        for parts in brute_force_partitions(n, d)
    }


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
        psis, rests, trials = _povm_sample(lam, d, _RowLaw.row_one(lam, d, tau[None]), [1], sub.gen)
        rest = rests[0] / np.linalg.norm(rests[0])
        acc += shadow_matrix(lam, psis, d) - lam.k * np.eye(d)
        partitions.append(lam.parts)
        proposals += trials
    return ShadowEstimate(
        matrix=acc / (t_segments * seg_size),
        t_segments=t_segments,
        segment_size=seg_size,
        segment_partitions=partitions,
        povm_proposals=proposals,
    )


def save_basis_records(basis, path) -> None:
    """A basis file written one ``struct`` record at a time: the header, then
    each weight slice's matrix entry by entry, row-major."""
    body = bytearray()
    for piece in basis.slices.values():
        rows, cols = piece.matrix.shape
        for r in range(rows):
            for c in range(cols):
                body += struct.pack("<d", float(piece.matrix[r, c]))
    header = b"SCHB" + struct.pack("<IIII", FORMAT_VERSION, basis.d, basis.n, zlib.crc32(bytes(body)))
    with open(path, "wb") as fh:
        fh.write(header + bytes(body))


def write_old_format_file(path, version: int) -> None:
    """The d = 2, n = 1 basis in a retired format, 1 or 2: after the magic,
    version, d, n, block count and CRC32 as u32, the block header of (1)
    (part count, part, dim_q, dim_p, the weights of i), then per vector a u64
    count and (u64 index, f64 re, f64 im) records (version 1), or per weight
    slice its u32 shape and f64 entries (version 2)."""
    body = struct.pack("<I", 1) + struct.pack("<I", 1) + struct.pack("<II", 2, 1) + struct.pack("<4I", 1, 0, 0, 1)
    for index in (0, 1):
        if version == 1:
            body += struct.pack("<Q", 1) + struct.pack("<Qdd", index, 1.0, 0.0)
        else:
            body += struct.pack("<II", 1, 1) + struct.pack("<d", 1.0)
    with open(path, "wb") as fh:
        fh.write(b"SCHB" + struct.pack("<IIIII", version, 2, 1, 1, zlib.crc32(body)) + body)


def random_basis_shadow(chi, n: int, rng) -> np.ndarray:
    """The average over n copies of (d + 1) V|b><b|V^dag - I, with V a
    Haar-random unitary per copy and b the outcome of measuring V^dag chi V
    in the computational basis: the eigenindex i is drawn from chi's
    spectrum, then b from the column overlaps |(V^dag U)[b, i]|^2."""
    d, gen = chi.d, rng.gen
    ginibre = gen.standard_normal((n, d, d)) + 1j * gen.standard_normal((n, d, d))
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r, axis1=1, axis2=2)
    v = q * (diag / np.abs(diag))[:, None, :]
    eigen_idx = gen.choice(d, size=n, p=chi.eigenvalues)
    rotated_cols = np.einsum("cba,bi->cai", v.conj(), chi.eigenvectors.entries)  # V^dag U per copy
    probs = np.abs(rotated_cols[np.arange(n), :, eigen_idx]) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    outcomes = (gen.random((n, 1)) < np.cumsum(probs, axis=1)).argmax(axis=1)
    cols = v[np.arange(n), :, outcomes]
    return (d + 1) * np.einsum("ca,cb->ab", cols, cols.conj()) / n - np.eye(d)
