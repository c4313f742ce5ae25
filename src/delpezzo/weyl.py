"""Lattice isometries: Weyl groups, orbits, and monodromy-style subgroups.

Every group in this module is a table, or the cosets of one that are written
as a table on first access, acted on by one action kernel; all but the signed
permutation group, built in the order of its definition, are sorted, searched
through one row index and closed by one routine.
The row index is a pair of helpers: `_row_keys`
views each row of an integer array as one fixed-width byte key, and `_find`
looks keys up in a sorted key array.  `generate_group` closes a set of int8
matrices by Dimino's algorithm: a tower of subgroups from the identity, each
a union of right cosets of the one before, found one level of the coset graph
at a time with membership read off the smaller subgroup's sorted table.  A
step's cosets are written once its representatives are complete, and only
when the next generator's membership test reads them, so a step the cap
refuses writes none.  The closure keeps its last step: the subgroup's table
and the coset representatives, whose count gives the order.  The group's own
table, a read-only int8 array of its elements sorted by their row-major
bytes, is written on first access to `FiniteGroup.elements`, each element
once.  The kernels share the one working-set bound of `linalg`, `_BLOCK`
entries: class images and the traces of the order-3 search are tiles of its
one exact product (`linalg._exact_tiles`), and group products
(`_product_chunks`), cubes and orbit labels take their rows from
`linalg._block_rows`.  The closure is budgeted, so one that would pass the
cap raises CapExceeded instead of thrashing memory, and the blow-up-count-8
Weyl group (order 696729600, see `WEYL_ORDERS`) is refused by default.
`_permutation_action` maps matrices to the permutations they induce on a
finite class set, keyed by the same helpers in the narrowest signed integer
dtype that holds the classes' entries (int8 for the lines, conics and cubics
of a del Pezzo lattice), and `_orbit_labels` reads orbits off such
permutations, so `orbits_under_generators` works for groups too large to
materialize.  The two subgroup searches compute their permutation
tables once and read every group question off rows of them, orbit sizes
through `_orbit_sizes`: the diagonal-cubic search off the actions on lines
and on conics of the order-3 elements of W(E6), found by cubes of the coset
products h x whose trace admits order 3, with no table written; the conic
bundle analysis off the action of the signed permutation group on 4 letters
(4 x 4 matrices, every permutation with every sign) on its own flattened
elements, left multiplication by the 33 elements it reads and right
multiplication by sigma, whose subgroups are orbits of the identity, the 256
candidates labelled a block at a time, and off its action on sign vectors.
Every product, cube and image is exact by the one rule of `linalg`, which
picks its dtype from a bound on its values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from operator import mul

from . import curves
from .errors import DomainError, NotFound, ToolkitError, _ints
from .linalg import _block_rows, _exact_dtype, _exact_tiles, _integer_kernel, _integer_operands, np
from .picard import DEFAULT_CAP, PicardLattice, Vec, _lattice, check_cap

Matrix = tuple[tuple[int, ...], ...]


def validate_isometry(lat: PicardLattice, M: Matrix) -> None:
    """Check M preserves the pairing and fixes the canonical class, in Python
    ints, so exact at any size: every pair of columns of M pairs as the gram
    G says (M^T G M = G, with G folded into each column), and M K = K.  M is
    read by `errors._ints`."""
    r, M = _lattice(lat).rank, _ints(M, "isometry entries must be integers", 2)
    if len(M) != r or any(len(row) != r for row in M):
        raise DomainError(f"matrix shape does not match rank {r}")
    cols = list(zip(*M))
    folded = [[sum(map(mul, g, c)) for g in lat.gram] for c in cols]
    if any(sum(map(mul, c, f)) != g for c, row in zip(cols, lat.gram) for f, g in zip(folded, row)):
        raise DomainError("matrix does not preserve the pairing")
    if any(sum(map(mul, row, lat.canonical)) != k for row, k in zip(M, lat.canonical)):
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
    n = _lattice(lat).n
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
    """A finite matrix group, as the right cosets H x of one subgroup H: the
    group is the disjoint union of H and of H x for every coset representative
    x in `levels` (a tuple of stacks), so its order is |H| (1 + their count).
    `subgroup` is H's table, a read-only int8 array of shape (|H|, rank, rank)
    sorted by the bytes of its rows; with no levels it is the group's own, and
    `FiniteGroup(elements, generators)` is a group given by its table.

    `elements` is the group's table in the same form, written on first access
    (`_coset_table`) and cached; only `element_matrices` reads it, so `order`
    and the diagonal-cubic search never form the whole table."""

    subgroup: np.ndarray
    generators: tuple[Matrix, ...]
    levels: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        self.subgroup.flags.writeable = False

    @property
    def order(self) -> int:
        return len(self.subgroup) * (1 + sum(len(x) for x in self.levels))

    @cached_property
    def elements(self) -> np.ndarray:
        table = _coset_table(self.subgroup, self.levels)
        table.flags.writeable = False
        return table

    def element_matrices(self) -> np.ndarray:
        return self.elements.astype(np.int64)


def _product_chunks(left: np.ndarray, right: np.ndarray):
    """Yield (lo, P) with P[a, b] = left[lo + a] @ right[b] as int8, for int8
    stacks of square matrices of one rank.  The right factors are laid side by
    side, so each chunk is one matrix product, exact by the rule of `linalg`
    for the bound rank * 128 * 128 on its partial sums.  A chunk holds at most
    `_BLOCK` output entries, or one left factor's products where those alone
    are more.  Raises ToolkitError for an entry outside int8."""
    m, rank = len(right), right.shape[-1]
    exact = _exact_dtype(rank * 128 * 128)
    # R[i, b * rank + j] = right[b][i][j]: block b of the columns of x @ R is
    # x @ right[b]
    R = right.transpose(1, 0, 2).reshape(rank, m * rank).astype(exact)
    step = _block_rows(m * rank * rank)
    for lo in range(0, len(left), step):
        chunk = left[lo : lo + step]
        P = chunk.reshape(-1, rank).astype(exact) @ R
        if P.size and (P.min() < -128 or P.max() > 127):
            raise ToolkitError("matrix entry outside int8 range; encoding invalid")
        yield lo, P.astype(np.int8).reshape(len(chunk), rank, m, rank).transpose(0, 2, 1, 3)


def _products(left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Every product left[a] @ right[b], as an int8 array of shape
    (len(left), len(right), rank, rank) (see `_product_chunks`), written into
    `out` when it is given."""
    if out is None:
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


def _coset_table(subgroup: np.ndarray, levels) -> np.ndarray:
    """The sorted table of the union of H and its right cosets H x, for H a
    sorted int8 table and x the representatives in `levels`, which lie in
    distinct cosets other than H: one int8 array of the known order, each
    level's products H x written into its own slice, then sorted in place by
    the bytes of its rows.  With no levels, H itself."""
    if not levels:
        return subgroup
    h, shape = len(subgroup), subgroup.shape[1:]
    table = np.empty((h * (1 + sum(len(x) for x in levels)),) + shape, dtype=np.int8)
    table[:h] = subgroup
    lo = h
    for x in levels:
        _products(subgroup, x, out=table[lo : lo + h * len(x)].reshape(h, len(x), *shape))
        lo += h * len(x)
    _row_keys(table.reshape(len(table), -1)).sort()
    return table


def _inverse(g: np.ndarray, cap: int) -> np.ndarray:
    """The inverse of an int8 matrix: its last power before the identity.
    Raises DomainError when a power repeats before the identity appears (g is
    singular), CapExceeded as soon as the powers pass `cap`."""
    eye = np.eye(len(g), dtype=np.int8)
    last, p, seen = eye, g, {g.tobytes()}
    while not np.array_equal(p, eye):
        check_cap(len(seen) + 1, cap)
        last, p = p, _products(p[None], g[None])[0, 0]
        if p.tobytes() in seen:
            raise DomainError("generator is not invertible")
        seen.add(p.tobytes())
    return last


def generate_group(gens, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Close a generating set under products by Dimino's algorithm.

    Generators must be invertible square integer matrices of one rank with
    entries within int8; anything else raises DomainError (a singular one
    once its powers repeat without reaching the identity).  Raises
    CapExceeded as soon as a lower bound on the order passes `cap`, and
    ToolkitError when a product has an entry outside int8, the type the
    elements are stored in.

    The tower starts at H_0 = {I}; H_i = <H_{i-1}, g_i> is a union of right
    cosets H_{i-1} x, and g_i is skipped when it already lies in H_{i-1},
    read off H_{i-1}'s sorted table.
    The coset representatives grow one level of the coset graph at a time:
    the candidates a g for the last level's representatives a and the
    generators g so far and their inverses are one batched product, and a
    candidate y is new when y x_j^-1 lies outside H_{i-1} for every
    representative x_j of the last two levels (the graph is undirected, so
    no other level is one step away), looked up in H_{i-1}'s sorted table;
    two new candidates in one coset are merged by the same test, with
    (a g)^-1 = g^-1 a^-1.  The cap is checked at H_0 and after each level,
    so a refused step writes none of its elements.  A complete step's cosets
    are written (`_coset_table`) only when the next generator's membership
    test needs H_i's table; the last step's never are.  The group returned
    holds the last subgroup's table and that step's representatives, level
    by level: its order is their product, and its table is written on first
    access to `elements`.  Both tests cost products quadratic in the width
    of a level, which suits towers of small index such as the parabolic
    subgroups of a Weyl group along its simple roots: W(E7)'s order is 576
    cosets of S_7, counted from a table of 5,040 elements.

    The products the closure forms are checked to stay within int8; the
    last step's cosets are formed, and checked, when `elements` is read.
    """
    mats = list(dict.fromkeys(_ints(gens, "generator entries must be integers", 3)))
    if not mats:
        raise DomainError("generate_group needs at least one generator")
    rank = len(mats[0])
    if any(len(m) != rank for m in mats):
        raise DomainError("generators have different ranks")
    if not rank or any(len(row) != rank for m in mats for row in m):
        raise DomainError("generator is not a nonempty square matrix")
    if any(not -128 <= x <= 127 for m in mats for row in m for x in row):
        raise DomainError("generator entry outside int8")
    arr = np.array(mats, dtype=np.int8)
    inverses = [_inverse(g, cap) for g in arr]
    table = eye = np.eye(rank, dtype=np.int8)[None]
    check_cap(len(table), cap)
    # the generators so far and their inverses: with both, the coset graph is
    # undirected, so a coset reached from level L lies in level L - 1, L or
    # L + 1, and only the last two levels are tested
    both, levels = {}, []
    for g, g_inv in zip(arr, inverses):
        # the next generator's membership test reads the last step's table
        table, levels = _coset_table(table, levels), []
        keys = _row_keys(table.reshape(len(table), -1))
        if _find(keys, _row_keys(g.reshape(1, -1)))[1][0]:
            continue
        both.setdefault(g.tobytes(), (g, g_inv))
        both.setdefault(g_inv.tobytes(), (g_inv, g))
        S, S_inv = (np.stack(x) for x in zip(*both.values()))
        count = 1
        frontier, frontier_inv, last_inv = eye, eye, eye[:0]
        while len(frontier):
            Y = _products(frontier, S).reshape(-1, rank, rank)
            new = ~_in_table(keys, Y, np.concatenate((last_inv, frontier_inv))).any(axis=1)
            # (a g)^-1 = g^-1 a^-1, in the order of Y's (a, g) pairs
            Y_inv = _products(S_inv, frontier_inv).transpose(1, 0, 2, 3).reshape(-1, rank, rank)
            Y, Y_inv = Y[new], Y_inv[new]
            # keep the first new candidate of each coset
            first = ~np.tril(_in_table(keys, Y, Y_inv), -1).any(axis=1)
            last_inv, frontier, frontier_inv = frontier_inv, Y[first], Y_inv[first]
            count += len(frontier)
            check_cap(len(table) * count, cap)
            if len(frontier):
                levels.append(frontier)
    return FiniteGroup(table, tuple(mats), tuple(levels))


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

    Row g maps class index k to the index of mats[g] @ classes[k].  Images
    are exact products by the rule of `linalg` (`_integer_operands`), formed a
    tile of classes by whole matrices at a time (`_exact_tiles`); classes and
    images are keyed by the bytes of their rows in the narrowest signed
    integer dtype (int8 to int64) that holds every entry of the classes
    (`_row_keys`, sorted, then searched with `_find`).  An image with an
    entry outside the classes' range is no class, so it is a miss and is
    never narrowed, where it would wrap onto a class.  So this is the one
    place where an integer input is refused for its size: DomainError,
    before any product, where the rule's bound reaches 2**62 and an image
    could leave int64, the widest key (keying rows by tuples of Python ints
    would be a second index).
    Raises DomainError too for a ragged or non-integer input, a class set that
    is not two-dimensional, duplicate classes or an image outside the set.
    """
    mats, arr, exact = _integer_operands(mats, classes, "class images need integer entries")
    if arr.ndim != 2:
        raise DomainError(f"the class set is not two-dimensional: {arr.ndim} axes")
    if exact is object:
        raise DomainError("class images could leave int64, the width of a row key")
    k, r = arr.shape
    mats = mats.reshape(-1, r, r) if mats.size == 0 else mats
    if mats.ndim != 3 or mats.shape[1:] != (r, r):
        raise DomainError(f"matrices do not act on classes of length {r}")
    out = np.empty((len(mats), k), dtype=np.int32)
    if not len(mats):
        return out
    least, most = int(arr.min(initial=0)), int(arr.max(initial=0))
    key = next(t for t in (np.int8, np.int16, np.int32, np.int64)
               if np.iinfo(t).min <= least and most <= np.iinfo(t).max)
    keys = _row_keys(arr.astype(key))
    order = np.argsort(keys)
    keys = keys[order]  # sorted, and the unsorted copy of the classes is freed
    if (keys[1:] == keys[:-1]).any():
        raise DomainError("class set contains duplicates")
    # row g * r + i of the stack is row i of mats[g], so P[k, g * r + i] is
    # entry i of the image of class k under mats[g]; the images are keyed
    # matrix by matrix, whose lookups of a sorted class set run faster
    for lo, g, P in _exact_tiles(arr, mats.reshape(-1, r), exact, width=r):
        images = P.reshape(len(P), -1, r).transpose(1, 0, 2)
        if least <= P.min() and P.max() <= most:  # so no entry wraps as it is narrowed
            pos, hit = _find(keys, _row_keys(images.astype(key, order="C")))
        else:  # the images with an entry outside the range are no class
            hit = ((images >= least) & (images <= most)).all(axis=2)
        if not hit.all():
            c = tuple(int(x) for x in arr[lo + np.argwhere(~hit)[0][1]])
            raise DomainError(f"class set is not closed: a matrix moves {c} outside")
        out[g // r : g // r + len(images), lo : lo + len(P)] = order[pos]
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
        moved = ends != label
        if not moved.any():
            return label
        ends, starts = ends[moved], np.broadcast_to(label, perms.shape)[moved]
        np.minimum.at(label, np.maximum(starts, ends), np.minimum(starts, ends))
        while (label[label] != label).any():
            label = label[label]


def _orbit_sizes(perms: np.ndarray) -> list[int]:
    """Sorted orbit sizes under a stack of permutations (one row each)."""
    return sorted(np.unique(_orbit_labels(perms), return_counts=True)[1].tolist())


def orbits_under_generators(gens, classes) -> OrbitPartition:
    """Orbit partition of a class set closed under the generated action.

    Only the generators' permutations are computed (`_permutation_action`) and
    the orbits are read off them (`_orbit_labels`), so this works for groups
    too large to materialize.  Raises DomainError for a class set that is not
    two-dimensional, duplicate classes or a generator image outside the set.
    """
    classes = list(classes)
    if not classes:
        return OrbitPartition(())
    label = _orbit_labels(_permutation_action(list(gens), classes))
    by_label: dict[int, list[Vec]] = {}
    for c, root in zip(map(tuple, classes), label.tolist()):
        by_label.setdefault(root, []).append(c)
    return OrbitPartition(tuple(sorted(tuple(sorted(o)) for o in by_label.values())))


def orbits(group: FiniteGroup, classes) -> OrbitPartition:
    return orbits_under_generators(group.generators, classes)


def _check_rank(group: FiniteGroup, lat: PicardLattice) -> None:
    rank = group.subgroup.shape[-1]
    if rank != _lattice(lat).rank:
        raise DomainError(f"a group of rank {rank} does not act on a lattice of rank {lat.rank}")


def invariant_sublattice(group: FiniteGroup, lat: PicardLattice) -> list[Vec]:
    """Z-basis of the sublattice fixed by every group element.

    The fixed space of the group equals the joint kernel of (M - I) over the
    generators, read by `errors._ints`.  Kernels of integer matrices are
    saturated, so the basis spans the full invariant sublattice, not a
    finite-index piece.  Basis rows are sign-normalized (first nonzero entry
    positive).  Raises DomainError when the group's rank is not the
    lattice's, or a generator is not a rank x rank integer matrix.
    """
    _check_rank(group, lat)
    gens = _ints(group.generators, "generator entries must be integers", 3)
    r = lat.rank
    if any(len(M) != r or any(len(row) != r for row in M) for M in gens):
        raise DomainError(f"generator shape does not match rank {r}")
    if not gens:
        return [tuple(int(i == j) for j in range(r)) for i in range(r)]
    rows = []
    for M in gens:
        for i in range(r):
            rows.append(
                tuple(M[i][j] - (1 if i == j else 0) for j in range(r))
            )
    basis = _integer_kernel(rows)
    out = []
    for v in basis:
        lead = next((x for x in v if x != 0), 1)
        out.append(tuple(-x for x in v) if lead < 0 else v)
    return sorted(out)


def _order3_indices(elems: np.ndarray) -> np.ndarray:
    """Indices, in table order, of the int8 matrices M with M^3 = I != M, by
    cubes over blocks of `_BLOCK` entries, exact by the rule of `linalg` for
    the bound rank**2 * 128**3 on their entries."""
    exact = _exact_dtype(elems.shape[-1] ** 2 * 128**3)
    eye = np.eye(elems.shape[-1])
    found, step = [], _block_rows(elems.shape[-1] ** 2)
    for lo in range(0, len(elems), step):
        M = elems[lo : lo + step].astype(exact)
        hit = ((M @ M @ M) == eye).all(axis=(1, 2)) & ~(M == eye).all(axis=(1, 2))
        found.append(lo + np.flatnonzero(hit))
    return np.concatenate(found)


def _order3_elements(group: FiniteGroup) -> np.ndarray:
    """The int8 M in a group with M^3 = I != M, in table order: cubes, a coset
    at a time, of the h x (h in H, x = I or in a level) whose trace, from one
    product, is r - 3k for k >= 1 eigenvalue pairs w, w-bar (Carter, 1972).
    The traces are the tiles of one exact product (`linalg._exact_tiles`),
    kept as one bool per product."""
    H, r = group.subgroup, group.subgroup.shape[-1]
    X = np.concatenate((np.eye(r, dtype=np.int8)[None], *group.levels))
    # tr(h x) = sum h_ij x_ji
    tiles = _exact_tiles(H.reshape(-1, r * r), X.transpose(0, 2, 1).reshape(len(X), -1),
                         _exact_dtype(r * r * 128**2))
    keep = np.empty((len(H), len(X)), dtype=bool)
    for a, b, T in tiles:
        keep[a : a + len(T), b : b + T.shape[1]] = (T < r) & ((r - T) % 3 == 0)
    found = [H[:0]]
    for j in np.flatnonzero(keep.any(axis=0)):
        block = _products(H[keep[:, j]], X[j : j + 1])[:, 0]
        found.append(block[_order3_indices(block)])
    found = np.concatenate(found)
    _row_keys(found.reshape(len(found), r * r)).sort()
    return found


def find_diagonal_cubic_subgroup(
    group: FiniteGroup, lat: PicardLattice
) -> FiniteGroup:
    """Search a full blow-up-count-6 Weyl group for an order-27 abelian
    subgroup of exponent 3 whose line orbits and conic orbits both have sizes
    {9, 9, 9}.

    Deterministic: elements are scanned in canonical byte order, so repeated
    runs return the identical subgroup.  Raises DomainError unless the
    lattice has blow-up count 6 and the group its rank, and NotFound when
    the scan exhausts (it does not for the genuine Weyl group).

    The candidates are the 800 elements M of order 3, M^3 = I != M, read off
    the group's cosets in table order (`_order3_elements`), no table written.
    Every group question is read off two permutation tables of the
    candidates, computed once: their faithful action on the lines and their
    action on the conics.  B and C come after A in the scan (so neither is
    A), commute with A and lie outside <A>, and C commutes with B and lies
    outside <A, B>: so <A, B> has order 9 and <A, B, C> order 27, and its
    orbits are those of its generators' rows (`_orbit_sizes`).
    """
    if _lattice(lat).n != 6:
        raise DomainError("the diagonal cubic search needs blow-up count 6")
    _check_rank(group, lat)
    cand = _order3_elements(group)
    Pc = _permutation_action(cand, curves.enumerate_neg_one_curves(lat))
    Pc2 = np.take_along_axis(Pc, Pc, axis=1)
    Qc = _permutation_action(cand, curves.enumerate_conic_classes(lat))
    ident = np.arange(Pc.shape[1], dtype=Pc.dtype)

    target = [9, 9, 9]
    for i1 in range(len(cand)):
        A, A2 = Pc[i1], Pc2[i1]
        comm = (A[Pc] == Pc[:, A]).all(axis=1)
        comm_idx = np.flatnonzero(comm)
        comm_idx = comm_idx[comm_idx > i1]
        pool = [j for j in comm_idx if not (Pc[j] == A2).all()]
        for pi2, i2 in enumerate(pool):
            B = Pc[i2]
            sub9 = {
                np.take_along_axis(pa, pb, axis=0).tobytes()
                for pa in (ident, A, A2)
                for pb in (ident, B, Pc2[i2])
            }
            for i3 in pool[pi2 + 1 :]:
                C = Pc[i3]
                if not (B[C] == C[B]).all():
                    continue
                if C.tobytes() in sub9:
                    continue
                idx = [i1, i2, i3]
                if _orbit_sizes(Pc[idx]) != target:
                    continue
                if _orbit_sizes(Qc[idx]) != target:
                    continue
                return generate_group(cand[idx], cap=27)
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


def _signed_perm_table() -> np.ndarray:
    """The int8 matrices of every permutation p of 4 letters with every sign
    vector s, in product order: row 16 i + j is _signed_perm_matrix(p, s) for
    p the i-th of permutations(range(4)) and s the j-th of
    product((-1, 1), repeat=4)."""
    signed = product(permutations(range(4)), product((-1, 1), repeat=4))
    return np.array([_signed_perm_matrix(p, s) for p, s in signed], dtype=np.int8)


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
    lifts is therefore exhaustive.  The ambient group is every permutation
    with every sign, in product order (`_signed_perm_table`).  Its tables are
    two `_permutation_action` calls: its action on its row-major flattened
    elements, where left multiplication by e is kron(e, I_4) and right
    multiplication by sigma kron(I_4, sigma^T), for the 33 elements the scan
    reads (the lifts and sigma) and sigma on the right, and its action on the
    16 sign vectors.  Each candidate G and complement is the orbit of the
    identity under left multiplication by its generators: one `_orbit_labels`
    call labels a block of candidates G, each on its own copy of the
    elements, in the narrowest dtype that holds the block's positions, and
    one the complements of each G found.  The orbits of G on sign vectors are
    those of its generators' rows (`_orbit_sizes`); sigma is central when its
    left and right rows are equal.
    """
    elems = _signed_perm_table()
    lifts, perms = np.arange(len(elems)).reshape(24, 16), list(permutations(range(4)))
    # permutation 0 is the identity; the signs run from all -1 to all +1
    one, sigma = lifts[0, -1], lifts[0, 0]
    diagonal, lifts_t, lifts_c = (
        lifts[perms.index(p)] for p in ((0, 1, 2, 3), (1, 0, 2, 3), (1, 2, 3, 0))
    )
    # rows of left: e x for e in lifts_t, lifts_c and sigma, then x sigma
    eye = np.eye(4, dtype=np.int8)
    mats = np.kron(elems[np.concatenate((lifts_t, lifts_c, [sigma]))], eye)
    mats = np.concatenate((mats, np.kron(eye, elems[sigma].T)[None]))
    left = _permutation_action(mats, elems.reshape(len(elems), -1))
    left = left.astype(np.min_scalar_type(len(elems)))
    signs = _permutation_action(elems, list(product((-1, 1), repeat=4)))
    sigma_central = bool((left[32] == left[33]).all())

    def generated(*axes) -> np.ndarray:
        """Bool rows: for each choice of one row of left per axis, in the
        order of `product`, the members of the group they generate, the orbit
        of the identity.  A block of choices is labelled at once, choice k of
        the block on copy k of the elements, in a dtype that holds the
        block's positions."""
        gens = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(len(axes), -1)
        n, out = len(elems), []
        per = _block_rows(len(axes) * n)
        for lo in range(0, gens.shape[1], per):
            block = left[gens[:, lo : lo + per]]
            k = block.shape[1]
            block = block + n * np.arange(k, dtype=np.min_scalar_type(n * k))[:, None]
            label = _orbit_labels(block.reshape(len(axes), -1)).reshape(k, n)
            out.append(label == label[:, [one]])
        return np.concatenate(out)

    found: dict[bytes, dict] = {}
    candidates = generated(range(16), range(16, 32), [32])
    for (a, b), members in zip(product(lifts_t, lifts_c), candidates):
        key = members.tobytes()
        if members.sum() != 48 or key in found:
            continue
        # sigma is a generator, so two diagonal elements means {1, sigma}
        if members[diagonal].sum() != 2:
            continue
        t, c = np.flatnonzero(members[lifts_t]), 16 + np.flatnonzero(members[lifts_c])
        split = bool((generated(t, c).sum(axis=1) == 24).any())
        sizes = _orbit_sizes(signs[[a, b, sigma]])
        if not split and sizes != [16]:
            raise ToolkitError(f"claim falsified: non-split subgroup with orbits {sizes}")
        if split and not any(s in (2, 4, 8) for s in sizes):
            raise ToolkitError(f"claim falsified: split subgroup with orbits {sizes}")
        found[key] = {"order": 48, "split": split, "orbit_sizes": sizes}
    subgroups = sorted(found.values(), key=lambda d: (d["split"], d["orbit_sizes"]))
    return {
        "ambient_order": len(elems),
        "sigma_central": sigma_central,
        "subgroup_count": len(subgroups),
        "subgroups": subgroups,
        "claims_verified": True,
    }
