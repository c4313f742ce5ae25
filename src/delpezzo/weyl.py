"""Lattice isometries: Weyl groups, orbits, and monodromy-style subgroups.

Every search in this module goes through one closure routine, one action
kernel and one row index.  The row index is a pair of helpers: `_row_keys`
views each row of an integer array as one fixed-width byte key, and `_find`
looks keys up in a sorted key array.  `generate_group` closes a set of int8
matrices under products, breadth first, and keeps the group as one table, a
read-only int8 array of its elements sorted by their row-major bytes; each
level's new elements are inserted where `_find` placed them.  A level's
products come from one float32 matrix product per chunk of the frontier,
with every generator laid side by side: the factors are int8, so each
partial sum is an integer of size at most rank * 128 * 128 < 2**24, which
float32 holds exactly.  The closure is budgeted, so one that would pass the
cap raises CapExceeded instead of thrashing memory, and the blow-up-count-8
Weyl group (order 696729600, see `WEYL_ORDERS`) is refused by default.
`_permutation_action` maps matrices to the permutations they induce on a
finite class set, exactly in int64, with the classes keyed by the same
helpers.  `orbits_under_generators` reads orbits off the generators'
permutations, so orbits stay available for groups too large to materialize.
The Weyl groups, the diagonal-cubic subgroup search and the signed
permutation groups of the conic bundle analysis (as 4 x 4 matrices) all use
these.
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


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row (last axis) of an array as one fixed-width void key, so that
    sorting and `searchsorted` order rows by their bytes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[-1])))[..., 0]


def _find(sorted_keys: np.ndarray, keys: np.ndarray):
    """(insertion positions, present mask) of keys in a sorted key array."""
    pos = np.searchsorted(sorted_keys, keys)
    return pos, sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == keys


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


def _products(frontier: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Every product frontier[f] @ mats[g] as an int8 array of shape
    (len(frontier), k, rank, rank), for the k generators `mats` laid side by
    side in G as `generate_group` builds it: one matrix product per chunk of
    at most 2**15 stacked rows.  Raises ToolkitError for an entry outside
    int8."""
    rank = G.shape[0]
    k = G.shape[1] // rank
    level = np.empty((len(frontier), k, rank, rank), dtype=np.int8)
    step = max(1, _ACTION_ROWS // rank)
    for lo in range(0, len(frontier), step):
        chunk = frontier[lo : lo + step]
        P = chunk.reshape(-1, rank).astype(G.dtype) @ G
        if P.min() < -128 or P.max() > 127:
            raise ToolkitError("matrix entry outside int8 range; encoding invalid")
        level[lo : lo + len(chunk)] = P.reshape(len(chunk), rank, k, rank).transpose(0, 2, 1, 3)
    return level


def generate_group(gens, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Close a generating set under products, breadth first.

    Generators must be square integer matrices of one rank with entries
    within int8; anything else raises DomainError before any product.
    Raises CapExceeded as soon as the element count would pass `cap`, and
    ToolkitError when a product has an entry outside int8, the type the
    elements are stored in.  Each level multiplies its frontier by every
    generator at once (`_products`), exactly in float32: both factors are
    int8, so every partial sum is an integer of size at most
    rank * 128 * 128 < 2**24 (float64 from rank 1024 on).  The elements live
    in one sorted table of row keys: each level is deduplicated, looked up in
    the table, and its new rows are inserted where the lookup found their
    place, so the level sets never live as Python objects.
    """
    mats = list(dict.fromkeys(_as_matrix(g) for g in gens))
    if not mats:
        raise DomainError("generate_group needs at least one generator")
    rank, k = len(mats[0]), len(mats)
    if any(len(m) != rank for m in mats):
        raise DomainError("generators have different ranks")
    # |partial sum| <= rank * 128 * 128; float32 is exact on integers to 2**24
    exact = np.float32 if rank * 128 * 128 < 2**24 else np.float64
    # G[m, g * rank + j] = mats[g][m][j]: block g of the columns of x @ G is
    # x @ mats[g]
    G = np.array(mats, dtype=exact).transpose(1, 0, 2).reshape(rank, k * rank)
    frontier = np.eye(rank, dtype=np.int8)[None]
    seen = _row_keys(frontier.reshape(1, -1))
    while len(frontier):
        level = _products(frontier, G)
        # dedupe in place: sort the level's row keys, keep each key that
        # differs from its predecessor
        level = _row_keys(level.reshape(-1, rank * rank))
        level.sort()
        level = level[np.concatenate(([True], level[1:] != level[:-1]))]
        pos, hit = _find(seen, level)
        new = ~hit
        fresh = level[new]
        check_cap(len(seen) + len(fresh), cap)
        seen = np.insert(seen, pos[new], fresh)
        frontier = fresh.view(np.int8).reshape(-1, rank, rank)
    return FiniteGroup(seen.view(np.int8).reshape(-1, rank, rank), tuple(mats))


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


def orbits_under_generators(gens, classes) -> OrbitPartition:
    """Orbit partition of a class set closed under the generated action.

    Only the generators' permutations are computed (`_permutation_action`), so
    this works for groups too large to materialize.  Each orbit is a union of
    cycles of every generator, so hooking the larger label of each moved pair
    onto the smaller and shortcutting until no generator moves a label leaves
    every class labelled by the least index in its orbit.  Raises DomainError
    for duplicate classes or a generator image outside the set.
    """
    classes = [tuple(c) for c in classes]
    if not classes:
        return OrbitPartition(())
    perms = _permutation_action(list(gens), classes)
    label = np.arange(len(classes), dtype=perms.dtype)
    while True:
        ends = label[perms]
        hi, lo = np.maximum(label, ends), np.minimum(label, ends)
        moved = hi != lo
        if not moved.any():
            break
        np.minimum.at(label, hi[moved], lo[moved])
        while (label[label] != label).any():
            label = label[label]
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
    lifts is therefore exhaustive.
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
    b4_mats = b4.element_matrices()
    sig = np.array(sigma, dtype=np.int64)
    sigma_central = bool((b4_mats @ sig == sig @ b4_mats).all())

    sign_choices = list(product((-1, 1), repeat=4))
    found: dict[bytes, dict] = {}
    for st in sign_choices:
        a = _signed_perm_matrix(t_perm, st)
        for sc in sign_choices:
            b = _signed_perm_matrix(c_perm, sc)
            group = generate_group([a, b, sigma], cap=384)
            key = group.elements.tobytes()
            if group.order != 48 or key in found:
                continue
            mats = group.element_matrices()
            # perms[e, j] = perm[j] of element e: the row of column j's entry
            perms = [tuple(p) for p in np.abs(mats).argmax(axis=1).tolist()]
            # sigma is a generator, so two diagonal elements means {1, sigma}
            if perms.count(ident_perm) != 2:
                continue
            lifts_t = [m for m, p in zip(mats, perms) if p == t_perm]
            lifts_c = [m for m, p in zip(mats, perms) if p == c_perm]
            split = any(
                generate_group([at, bc], cap=384).order == 24
                for at in lifts_t
                for bc in lifts_c
            )
            sizes = orbits_under_generators(group.generators, sign_choices).sizes
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
