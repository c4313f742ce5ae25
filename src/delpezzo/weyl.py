"""Lattice isometries: Weyl groups, orbits, and monodromy-style subgroups.

Every search in this module goes through one closure routine, one action
kernel and one row index.  The row index is a pair of helpers: `_row_keys`
views each row of an integer array as one fixed-width byte key, and `_find`
looks keys up in a sorted key array.  `generate_group` closes a set of int8
matrices by Dimino's algorithm: a tower of subgroups, each a union of right
cosets of the one before, found one level of the coset graph at a time with
membership read off the smaller subgroup's sorted table, so every element is
built once.  It keeps the group as one table, a read-only int8 array of its
elements sorted by their row-major bytes.  Every product is one float32
matrix product per chunk (`_product_chunks`), with the right factors laid
side by side: the factors are int8, so each partial sum is an integer of size
at most rank * 128 * 128 < 2**24, which float32 holds exactly.  The closure
is budgeted, so one that would pass the cap raises CapExceeded instead of
thrashing memory, and the blow-up-count-8 Weyl group (order 696729600, see
`WEYL_ORDERS`) is refused by default.  `_permutation_action` maps matrices
to the permutations they induce on a finite class set, exactly in int64,
with the classes keyed by the same helpers, and `_orbit_labels` reads orbits
off such permutations.  `orbits_under_generators` needs the generators'
permutations only, so orbits stay available for groups too large to
materialize; the conic bundle analysis reads its subgroups off one
multiplication table of the signed permutation group on 4 letters (as 4 x 4
matrices), as orbits of the identity.  The Weyl groups and the
diagonal-cubic subgroup search use the same pieces.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import curves
from .errors import CapExceeded, DomainError, NotFound, ToolkitError
from .linalg import _int64_operands, integer_kernel
from .picard import PicardLattice, Vec

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_CAP = 4_000_000

# |W(E_n)| for n = 0..8 blow-ups, the Weyl group of the roots in K^perp:
# trivial for n <= 1, then A1, A2 x A1, A4, D5, E6, E7, E8
WEYL_ORDERS = (1, 1, 2, 12, 120, 1920, 51840, 2903040, 696729600)


def check_cap(count: int, cap: int) -> None:
    """Raise CapExceeded when a closure of `count` elements passes `cap`."""
    if count > cap:
        raise CapExceeded(f"group closure passed the cap of {cap} elements")


def validate_isometry(lat: PicardLattice, M: Matrix) -> None:
    """Check M preserves the pairing and fixes the canonical class: two
    guarded int64 products, G folded into the columns of M and into K, then
    M^T G M and M^T G K.  G is unimodular, so once M^T G M = G, M K = K holds
    exactly when M^T G K = G K."""
    r = lat.rank
    if len(M) != r or any(len(row) != r for row in M):
        raise DomainError(f"matrix shape does not match rank {r}")
    G, C = _int64_operands(lat.gram, [*zip(*M), lat.canonical], "isometry check")
    folded, C = _int64_operands(C @ G.T, C[:r], "isometry check")
    P = C @ folded.T
    if (P[:, :r] != G).any():
        raise DomainError("matrix does not preserve the pairing")
    if (P[:, r] != folded[r]).any():
        raise DomainError("matrix does not fix the canonical class")


def _reflection(lat: PicardLattice, root: Vec) -> Matrix:
    """x -> x + pair(x, root) * root for a (-2)-root."""
    r = lat.rank
    functional = (root[0],) + tuple(-x for x in root[1:])
    return tuple(
        tuple(
            (1 if i == j else 0) + root[i] * functional[j] for j in range(r)
        )
        for i in range(r)
    )


def simple_roots(lat: PicardLattice) -> list[Vec]:
    """E_i - E_{i+1} differences plus, from n = 3 on, H - E1 - E2 - E3."""
    n = lat.n
    roots: list[Vec] = []
    for i in range(1, n):
        root = [0] * lat.rank
        root[i] = 1
        root[i + 1] = -1
        roots.append(tuple(root))
    if n >= 3:
        roots.append((1, -1, -1, -1) + (0,) * (n - 3))
    return roots


def weyl_generators(lat: PicardLattice) -> list[Matrix]:
    """Reflections in the simple roots; empty for n <= 1."""
    out = []
    for root in simple_roots(lat):
        M = _reflection(lat, root)
        validate_isometry(lat, M)
        out.append(M)
    return out


def _as_matrix(g) -> Matrix:
    """A generator as a tuple of rows of Python ints.  Raises DomainError
    unless it is a nonempty square matrix of integers within int8."""
    try:
        rows = tuple(tuple(operator.index(x) for x in row) for row in g)
    except TypeError:
        raise DomainError("generator entries must be integers") from None
    if not rows or any(len(row) != len(rows) for row in rows):
        raise DomainError("generator is not a nonempty square matrix")
    if any(not -128 <= x <= 127 for row in rows for x in row):
        raise DomainError("generator entry outside int8")
    return rows


_ACTION_ROWS = 1 << 15
_PRODUCT_ENTRIES = 1 << 22


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row (last axis) of an array as one fixed-width void key, so that
    sorting and `searchsorted` order rows by their bytes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[-1])))[..., 0]


def _find(sorted_keys: np.ndarray, keys: np.ndarray):
    """(insertion positions, present mask) of keys in a sorted key array."""
    pos = np.searchsorted(sorted_keys, keys)
    return pos, sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == keys


def _sorted_table(mats: np.ndarray) -> np.ndarray:
    """Sort a writable stack of matrices in place by the bytes of their rows."""
    _row_keys(mats.reshape(len(mats), -1)).sort()
    return mats


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite matrix group as one table: `elements` is a read-only int8
    array of shape (order, rank, rank), sorted by the bytes of its rows."""

    elements: np.ndarray
    generators: tuple[Matrix, ...]

    def __post_init__(self):
        self.elements.flags.writeable = False

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_matrices(self) -> np.ndarray:
        return self.elements.astype(np.int64)


def trivial_group(rank: int) -> FiniteGroup:
    return FiniteGroup(np.eye(rank, dtype=np.int8)[None], ())


def _product_chunks(left: np.ndarray, right: np.ndarray):
    """Yield (lo, P) with P[a, b] = left[lo + a] @ right[b] as int8, for int8
    stacks of square matrices of one rank.  The right factors are laid side by
    side, so each chunk is one float matrix product, exact: both factors are
    int8, so every partial sum is an integer of size at most
    rank * 128 * 128 < 2**24, which float32 holds (float64 from rank 1024 on).
    A chunk holds at most 2**22 output entries, however many right factors
    there are.  Raises ToolkitError for an entry outside int8."""
    m, rank = len(right), right.shape[-1]
    exact = np.float32 if rank * 128 * 128 < 2**24 else np.float64
    # R[i, b * rank + j] = right[b][i][j]: block b of the columns of x @ R is
    # x @ right[b]
    R = right.transpose(1, 0, 2).reshape(rank, m * rank).astype(exact)
    step = max(1, _PRODUCT_ENTRIES // max(1, m * rank * rank))
    for lo in range(0, len(left), step):
        chunk = left[lo : lo + step]
        P = chunk.reshape(-1, rank).astype(exact) @ R
        if P.size and (P.min() < -128 or P.max() > 127):
            raise ToolkitError("matrix entry outside int8 range; encoding invalid")
        yield lo, P.astype(np.int8).reshape(len(chunk), rank, m, rank).transpose(0, 2, 1, 3)


def _products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Every product left[a] @ right[b], as an int8 array of shape
    (len(left), len(right), rank, rank) (see `_product_chunks`)."""
    out = np.empty((len(left), len(right)) + right.shape[1:], dtype=np.int8)
    for lo, P in _product_chunks(left, right):
        out[lo : lo + len(P)] = P
    return out


def _in_table(sorted_keys: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Bool array: whether left[a] @ right[b] lies in the table whose sorted
    row keys are given, one chunk of products at a time."""
    out = np.empty((len(left), len(right)), dtype=bool)
    for lo, P in _product_chunks(left, right):
        out[lo : lo + len(P)] = _find(sorted_keys, _row_keys(P.reshape(*P.shape[:2], -1)))[1]
    return out


def _cyclic(g: np.ndarray, cap: int):
    """(the powers g, g^2, ..., 1 of an int8 matrix, its inverse).  The
    inverse is the last power before the identity.  Raises DomainError when a
    power repeats before the identity appears (g is singular), CapExceeded
    as soon as the powers pass `cap`."""
    eye = np.eye(len(g), dtype=np.int8)
    powers, seen = [g], {g.tobytes()}
    while not np.array_equal(powers[-1], eye):
        check_cap(len(powers) + 1, cap)
        p = _products(powers[-1][None], g[None])[0, 0]
        if p.tobytes() in seen:
            raise DomainError("generator is not invertible")
        seen.add(p.tobytes())
        powers.append(p)
    return np.stack(powers), powers[-2] if len(powers) > 1 else eye


def generate_group(gens, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Close a generating set under products by Dimino's algorithm.

    Generators must be invertible square integer matrices of one rank with
    entries within int8; anything else raises DomainError (a singular one
    once its powers repeat without reaching the identity).  Raises
    CapExceeded as soon as a lower bound on the order passes `cap`, and
    ToolkitError when a product has an entry outside int8, the type the
    elements are stored in.

    H_1 is the cyclic group of the powers of the first generator; H_i =
    <H_{i-1}, g_i> is a union of right cosets H_{i-1} x, and g_i is skipped
    when it already lies in H_{i-1}.  The coset representatives grow one level
    of the coset graph at a time: the candidates a g for the last level's
    representatives a and the generators g so far and their inverses are one
    batched product, and a candidate y is new when y x_j^-1 lies outside
    H_{i-1} for every representative x_j of the last two levels (the graph is
    undirected, so no other level is one step away), looked up in H_{i-1}'s
    sorted table; two new candidates in one coset are merged by the same
    test, with (a g)^-1 = g^-1 a^-1.  Each new coset is one product
    H_{i-1} y, so every element is built once; the finished table of each
    step is sorted once by its row keys.  Both tests cost products quadratic
    in the width of a level, which suits towers of small index such as the
    parabolic subgroups of a Weyl group along its simple roots.
    """
    mats = list(dict.fromkeys(_as_matrix(g) for g in gens))
    if not mats:
        raise DomainError("generate_group needs at least one generator")
    rank = len(mats[0])
    if any(len(m) != rank for m in mats):
        raise DomainError("generators have different ranks")
    arr = np.array(mats, dtype=np.int8)
    cyclic = [_cyclic(g, cap) for g in arr]
    table = _sorted_table(cyclic[0][0])
    eye = np.eye(rank, dtype=np.int8)[None]
    used = [0]
    for i in range(1, len(arr)):
        keys = _row_keys(table.reshape(len(table), -1))
        if _find(keys, _row_keys(arr[i].reshape(1, -1)))[1][0]:
            continue
        used.append(i)
        # the generators so far and their inverses: with both, the coset
        # graph is undirected, so a coset reached from level L lies in level
        # L - 1, L or L + 1, and only the last two levels are tested
        both = {}
        for j in used:
            g, g_inv = arr[j], cyclic[j][1]
            both.setdefault(g.tobytes(), (g, g_inv))
            both.setdefault(g_inv.tobytes(), (g_inv, g))
        S, S_inv = (np.stack(x) for x in zip(*both.values()))
        cosets, count = [table], 1
        frontier, frontier_inv, last_inv = eye, eye, eye[:0]
        while True:
            Y = _products(frontier, S).reshape(-1, rank, rank)
            new = ~_in_table(keys, Y, np.concatenate((last_inv, frontier_inv))).any(axis=1)
            # (a g)^-1 = g^-1 a^-1, in the order of Y's (a, g) pairs
            Y_inv = _products(S_inv, frontier_inv).transpose(1, 0, 2, 3).reshape(-1, rank, rank)
            Y, Y_inv = Y[new], Y_inv[new]
            # keep the first new candidate of each coset
            first = ~np.tril(_in_table(keys, Y, Y_inv), -1).any(axis=1)
            last_inv, frontier, frontier_inv = frontier_inv, Y[first], Y_inv[first]
            if not len(frontier):
                break
            count += len(frontier)
            check_cap(len(table) * count, cap)
            cosets.append(_products(table, frontier).reshape(-1, rank, rank))
        table = _sorted_table(np.concatenate(cosets))
    return FiniteGroup(table, tuple(mats))


@dataclass(frozen=True)
class OrbitPartition:
    """Orbits as sorted tuples of classes, sorted by their first element."""

    orbits: tuple[tuple[Vec, ...], ...]

    @property
    def sizes(self) -> list[int]:
        return sorted(len(o) for o in self.orbits)

    @property
    def representatives(self) -> list[Vec]:
        return [o[0] for o in self.orbits]


def _permutation_action(mats, classes) -> np.ndarray:
    """Permutations induced on a closed class set, one int32 row per matrix.

    Row g maps class index k to the index of mats[g] @ classes[k].  Classes
    are keyed by the bytes of their int64 rows (`_row_keys`, sorted, then
    searched with `_find`), and each image row is found exactly, so any
    integer classes work as long as every image provably stays inside int64;
    an input that could leave it is refused before any product.  Images are
    built at most 2**15 rows at a time, so a signed integer array of matrices
    (such as a group's int8 table) is used as it is, without a copy.
    Raises DomainError for duplicate classes or an image outside the set.
    """
    mats, arr = _int64_operands(mats, classes, "class images")
    k, r = arr.shape
    mats = mats.reshape(-1, r, r) if mats.size == 0 else mats
    if mats.ndim != 3 or mats.shape[1:] != (r, r):
        raise DomainError(f"matrices do not act on classes of length {r}")
    out = np.empty((len(mats), k), dtype=np.int32)
    if not len(mats):
        return out
    keys = _row_keys(arr)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    if (sorted_keys[1:] == sorted_keys[:-1]).any():
        raise DomainError("class set contains duplicates")
    step = min(k, _ACTION_ROWS)
    per = max(1, _ACTION_ROWS // step)
    mats_t = mats.transpose(0, 2, 1)
    for lo in range(0, k, step):
        rows = arr[lo : lo + step]
        for g in range(0, len(mats), per):
            pos, hit = _find(sorted_keys, _row_keys(rows @ mats_t[g : g + per]))
            if not hit.all():
                c = tuple(int(x) for x in rows[np.argwhere(~hit)[0][1]])
                raise DomainError(
                    f"class set is not closed: a matrix moves {c} outside"
                )
            out[g : g + per, lo : lo + step] = order[pos]
    return out


def _orbit_labels(perms: np.ndarray) -> np.ndarray:
    """Label every point by the least point of its orbit under a stack of
    permutations (one row each).  Each orbit is a union of cycles of every
    permutation, so hooking the larger label of each moved pair onto the
    smaller and shortcutting until no permutation moves a label leaves every
    point labelled by the least index in its orbit."""
    label = np.arange(perms.shape[-1], dtype=perms.dtype)
    while True:
        ends = label[perms]
        hi, lo = np.maximum(label, ends), np.minimum(label, ends)
        moved = hi != lo
        if not moved.any():
            return label
        np.minimum.at(label, hi[moved], lo[moved])
        while (label[label] != label).any():
            label = label[label]


def orbits_under_generators(gens, classes) -> OrbitPartition:
    """Orbit partition of a class set closed under the generated action.

    Only the generators' permutations are computed (`_permutation_action`) and
    the orbits are read off them (`_orbit_labels`), so this works for groups
    too large to materialize.  Raises DomainError for duplicate classes or a
    generator image outside the set.
    """
    classes = [tuple(c) for c in classes]
    if not classes:
        return OrbitPartition(())
    label = _orbit_labels(_permutation_action(list(gens), classes))
    by_label: dict[int, list[Vec]] = {}
    for c, root in zip(classes, label.tolist()):
        by_label.setdefault(root, []).append(c)
    return OrbitPartition(tuple(sorted(tuple(sorted(o)) for o in by_label.values())))


def orbits(group: FiniteGroup, classes) -> OrbitPartition:
    return orbits_under_generators(group.generators, classes)


def invariant_sublattice(group: FiniteGroup, lat: PicardLattice) -> list[Vec]:
    """Z-basis of the sublattice fixed by every group element.

    The fixed space of the group equals the joint kernel of (M - I) over the
    generators.  Kernels of integer matrices are saturated, so the basis spans
    the full invariant sublattice, not a finite-index piece.  Basis rows are
    sign-normalized (first nonzero entry positive).
    """
    r = lat.rank
    if not group.generators:
        return [tuple(int(i == j) for j in range(r)) for i in range(r)]
    rows = []
    for M in group.generators:
        for i in range(r):
            rows.append(
                tuple(M[i][j] - (1 if i == j else 0) for j in range(r))
            )
    basis = integer_kernel(rows)
    out = []
    for v in basis:
        lead = next((x for x in v if x != 0), 1)
        out.append(tuple(-x for x in v) if lead < 0 else v)
    return sorted(out)


def find_diagonal_cubic_subgroup(
    group: FiniteGroup, lat: PicardLattice
) -> FiniteGroup:
    """Search a full blow-up-count-6 Weyl group for an order-27 abelian
    subgroup of exponent 3 whose line orbits and conic orbits both have sizes
    {9, 9, 9}.

    Deterministic: elements are scanned in canonical byte order, so repeated
    runs return the identical subgroup.  Raises NotFound when the scan
    exhausts (it does not for the genuine Weyl group).
    """
    if lat.n != 6:
        raise DomainError("the diagonal cubic search needs blow-up count 6")
    lines = curves.enumerate_neg_one_curves(lat)
    conics = curves.enumerate_conic_classes(lat)
    mats = group.elements
    P = _permutation_action(mats, lines)
    ident = np.arange(len(lines), dtype=P.dtype)

    P2 = np.take_along_axis(P, P, axis=1)
    P3 = np.take_along_axis(P, P2, axis=1)
    is_id = (P == ident).all(axis=1)
    order3 = (P3 == ident).all(axis=1) & ~is_id
    cand = np.flatnonzero(order3)
    Pc = P[cand]
    Pc2 = P2[cand]

    target = [9, 9, 9]
    for i1 in range(len(cand)):
        A, A2 = Pc[i1], Pc2[i1]
        comm = (A[Pc] == Pc[:, A]).all(axis=1)
        comm_idx = np.flatnonzero(comm)
        comm_idx = comm_idx[comm_idx > i1]
        pool = [
            j
            for j in comm_idx
            if not (Pc[j] == A).all() and not (Pc[j] == A2).all()
        ]
        for pi2, i2 in enumerate(pool):
            B = Pc[i2]
            sub9 = {
                np.take_along_axis(pa, pb, axis=0).tobytes()
                for pa in (ident, A, A2)
                for pb in (ident, B, Pc2[i2])
            }
            if len(sub9) != 9:
                continue
            for i3 in pool[pi2 + 1 :]:
                C = Pc[i3]
                if not (B[C] == C[B]).all():
                    continue
                if C.tobytes() in sub9:
                    continue
                Ms = [mats[cand[i]] for i in (i1, i2, i3)]
                if orbits_under_generators(Ms, lines).sizes != target:
                    continue
                if orbits_under_generators(Ms, conics).sizes != target:
                    continue
                sub = generate_group(Ms, cap=27)
                if sub.order != 27:
                    continue
                return sub
    raise NotFound(
        "no order-27 exponent-3 subgroup with 9/9/9 line and conic orbits"
    )


def _signed_perm_matrix(perm, signs) -> Matrix:
    """4 x 4 matrix of a signed permutation acting on sign vectors by
    (g.v)_i = signs_i * v_{perm^-1(i)}, where perm maps position j to perm[j]."""
    M = [[0] * 4 for _ in range(4)]
    for j in range(4):
        M[perm[j]][j] = signs[perm[j]]
    return tuple(tuple(row) for row in M)


def conic_bundle_extension_analysis() -> dict:
    """Classify the order-48 subgroups G of the signed permutation group on 4
    letters that contain the global sign flip, meet the diagonal in exactly
    {1, sigma}, and surject onto the full symmetric group downstairs.

    For each G the report records whether the extension splits (an order-24
    complement exists) and the orbit sizes on the 16 sign vectors, and checks
    two claims: a non-split G has a single orbit of size 16, and a split G has
    an orbit of size 2, 4, or 8.  Any counterexample raises ToolkitError.

    Every such G is generated by sigma together with one lift of each of the
    transposition (0 1) and the 4-cycle (0 1 2 3); the scan over the 16 x 16
    lifts is therefore exhaustive.  The ambient group is closed once, and each
    candidate G and each candidate complement is read off its multiplication
    table as the orbit of the identity under left multiplication.
    """
    t_perm = (1, 0, 2, 3)
    c_perm = (1, 2, 3, 0)
    ident_perm = (0, 1, 2, 3)
    plus = (1, 1, 1, 1)
    sigma = _signed_perm_matrix(ident_perm, (-1, -1, -1, -1))
    basis_flips = [
        _signed_perm_matrix(ident_perm, tuple(-1 if j == i else 1 for j in range(4)))
        for i in range(4)
    ]
    b4 = generate_group(
        [_signed_perm_matrix(t_perm, plus), _signed_perm_matrix(c_perm, plus)]
        + basis_flips,
        cap=384,
    )
    elems = b4.elements
    b4_mats = b4.element_matrices()
    sig = np.array(sigma, dtype=np.int64)
    sigma_central = bool((b4_mats @ sig == sig @ b4_mats).all())

    # left[e, f] = index of elems[e] @ elems[f]: elems[e] acts on the
    # row-major flattened elements as kron(elems[e], I_4)
    flat = elems.reshape(len(elems), -1)
    left = _permutation_action(np.kron(elems, np.eye(4, dtype=np.int8)), flat)
    keys = _row_keys(flat)

    def index(M: Matrix) -> int:
        return int(_find(keys, _row_keys(np.array(M, dtype=np.int8).reshape(1, -1)))[0][0])

    one, sigma_index = index(_signed_perm_matrix(ident_perm, plus)), index(sigma)

    def subgroup(*gens: int) -> np.ndarray:
        """Sorted indices of <gens>: the orbit of the identity under left
        multiplication."""
        label = _orbit_labels(left[list(gens)])
        return np.flatnonzero(label == label[one])

    # perms[e][j] = perm[j] of element e: the row of column j's entry
    perms = [tuple(p) for p in np.abs(elems).argmax(axis=1).tolist()]
    sign_choices = list(product((-1, 1), repeat=4))
    found: dict[bytes, dict] = {}
    for st in sign_choices:
        a = _signed_perm_matrix(t_perm, st)
        for sc in sign_choices:
            b = _signed_perm_matrix(c_perm, sc)
            members = subgroup(index(a), index(b), sigma_index)
            key = members.tobytes()
            if len(members) != 48 or key in found:
                continue
            # sigma is a generator, so two diagonal elements means {1, sigma}
            if [perms[e] for e in members].count(ident_perm) != 2:
                continue
            lifts_t = [e for e in members if perms[e] == t_perm]
            lifts_c = [e for e in members if perms[e] == c_perm]
            split = any(
                len(subgroup(at, bc)) == 24 for at in lifts_t for bc in lifts_c
            )
            sizes = orbits_under_generators([a, b, sigma], sign_choices).sizes
            if not split and sizes != [16]:
                raise ToolkitError(
                    f"claim falsified: non-split subgroup with orbits {sizes}"
                )
            if split and not any(s in (2, 4, 8) for s in sizes):
                raise ToolkitError(
                    f"claim falsified: split subgroup with orbits {sizes}"
                )
            found[key] = {
                "order": 48,
                "split": split,
                "orbit_sizes": sizes,
            }
    subgroups = sorted(
        found.values(),
        key=lambda d: (d["split"], d["orbit_sizes"]),
    )
    return {
        "ambient_order": b4.order,
        "sigma_central": sigma_central,
        "subgroup_count": len(subgroups),
        "subgroups": subgroups,
        "claims_verified": True,
    }
