"""Lattice isometries: Weyl groups, orbits, and monodromy-style subgroups.

Every search in this module goes through two routines.  `generate_group`
closes a set of integer matrices under products, breadth first, with the
elements stored as canonical int8 byte strings (row-major); it is budgeted,
so a closure that would pass the cap raises CapExceeded instead of thrashing
memory, and the blow-up-count-8 Weyl group (order 696729600) is refused by
default.  `orbits_under_generators` partitions a closed class set by applying
only the generators, so orbits stay available for groups too large to
materialize.  The Weyl groups, the diagonal-cubic subgroup search and the
signed permutation groups of the conic bundle analysis (as 4 x 4 matrices)
all use these two.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import curves
from .errors import CapExceeded, DomainError, NotFound, ToolkitError
from .linalg import integer_kernel
from .picard import PicardLattice, Vec, pair

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_CAP = 4_000_000


def mat_apply(M: Matrix, v) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in M)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def identity_matrix(rank: int) -> Matrix:
    return tuple(
        tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)
    )


@dataclass(frozen=True)
class IsometryElement:
    """An integer matrix acting on lattice vectors by left multiplication."""

    matrix: Matrix

    def apply(self, v) -> Vec:
        return mat_apply(self.matrix, v)


def validate_isometry(lat: PicardLattice, M: Matrix) -> None:
    """Check M preserves the pairing and fixes the canonical class."""
    r = lat.rank
    if len(M) != r or any(len(row) != r for row in M):
        raise DomainError(f"matrix shape does not match rank {r}")
    basis = identity_matrix(r)
    cols = [mat_apply(M, e) for e in basis]
    for i in range(r):
        for j in range(r):
            if pair(lat, cols[i], cols[j]) != lat.gram[i][j]:
                raise DomainError("matrix does not preserve the pairing")
    if mat_apply(M, lat.canonical) != lat.canonical:
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


def weyl_generators(lat: PicardLattice) -> list[IsometryElement]:
    """Reflections in the simple roots; empty for n <= 1."""
    out = []
    for root in simple_roots(lat):
        M = _reflection(lat, root)
        validate_isometry(lat, M)
        out.append(IsometryElement(M))
    return out


def _as_matrix(g) -> Matrix:
    if isinstance(g, IsometryElement):
        return g.matrix
    return tuple(tuple(int(x) for x in row) for row in g)


def _encode_batch(mats: np.ndarray) -> np.ndarray:
    small = mats.astype(np.int8)
    if not (small == mats).all():
        raise ToolkitError("matrix entry outside int8 range; encoding invalid")
    return small.reshape(len(mats), -1)


@dataclass(frozen=True)
class FiniteGroup:
    """A finite matrix group, stored as canonical byte keys of its elements."""

    rank: int
    element_keys: frozenset[bytes]
    generators: tuple[Matrix, ...]

    @property
    def order(self) -> int:
        return len(self.element_keys)

    def __contains__(self, g) -> bool:
        M = np.array(_as_matrix(g), dtype=np.int64)
        return _encode_batch(M[None, :, :])[0].tobytes() in self.element_keys

    def element_matrices(self) -> np.ndarray:
        keys = sorted(self.element_keys)
        arr = np.frombuffer(b"".join(keys), dtype=np.int8)
        return arr.reshape(len(keys), self.rank, self.rank).astype(np.int64)


def trivial_group(rank: int) -> FiniteGroup:
    I = np.eye(rank, dtype=np.int64)[None, :, :]
    return FiniteGroup(rank, frozenset({_encode_batch(I)[0].tobytes()}), ())


_CHUNK = 200_000


def generate_group(gens, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Close a generating set under products, breadth first.

    Raises CapExceeded as soon as the element count would pass `cap`.
    Products are batched through numpy in int64 and stored as int8 byte keys;
    entries must stay within int8, which holds for every Weyl group this
    package generates in full.  Deduplication runs at C speed on fixed-width
    byte rows, so the level sets never live as Python objects.
    """
    mats = []
    seen_gen = set()
    for g in gens:
        M = _as_matrix(g)
        if M not in seen_gen:
            seen_gen.add(M)
            mats.append(M)
    if not mats:
        raise DomainError("generate_group needs at least one generator")
    rank = len(mats[0])
    nb = rank * rank
    vdt = np.dtype((np.void, nb))
    gen_arr = np.array(mats, dtype=np.int64)
    ident = np.eye(rank, dtype=np.int64)[None, :, :]

    def as_void(rows_i8: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(rows_i8).view(vdt).ravel()

    seen_v = np.sort(as_void(_encode_batch(ident)))
    frontier = ident.astype(np.int8)
    while len(frontier):
        parts = []
        for g in gen_arr:
            for lo in range(0, len(frontier), _CHUNK):
                block = frontier[lo : lo + _CHUNK].astype(np.int64) @ g
                parts.append(_encode_batch(block))
        level = as_void(np.concatenate(parts, axis=0))
        del parts
        uniq = np.unique(level)
        pos = np.searchsorted(seen_v, uniq)
        pos[pos == len(seen_v)] = 0
        fresh = uniq[seen_v[pos] != uniq]
        if len(seen_v) + len(fresh) > cap:
            raise CapExceeded(
                f"group closure passed the cap of {cap} elements"
            )
        seen_v = np.sort(np.concatenate([seen_v, fresh]))
        frontier = fresh.view(np.int8).reshape(-1, rank, rank)
    blob = seen_v.view(np.int8).tobytes()
    keys = frozenset(blob[i * nb : (i + 1) * nb] for i in range(len(seen_v)))
    return FiniteGroup(rank, keys, tuple(mats))


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


def orbits_under_generators(gens, classes) -> OrbitPartition:
    """Orbit partition of a class set closed under the generated action.

    Only the generators are applied (breadth first per orbit), so this works
    for groups too large to materialize.  A generator image falling outside
    the class set raises DomainError: the set was not closed.
    """
    mats = [_as_matrix(g) for g in gens]
    classes = [tuple(c) for c in classes]
    class_set = set(classes)
    if len(class_set) != len(classes):
        raise DomainError("class set contains duplicates")
    for M in mats:
        for c in classes:
            if mat_apply(M, c) not in class_set:
                raise DomainError(
                    f"class set is not closed: generator moves {c} outside"
                )
    unassigned = set(classes)
    orbs = []
    for c in classes:
        if c not in unassigned:
            continue
        orbit = {c}
        queue = [c]
        while queue:
            x = queue.pop()
            for M in mats:
                y = mat_apply(M, x)
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        unassigned -= orbit
        orbs.append(tuple(sorted(orbit)))
    return OrbitPartition(tuple(sorted(orbs)))


def orbits(group: FiniteGroup, classes) -> OrbitPartition:
    if not group.generators:
        classes = [tuple(c) for c in classes]
        return OrbitPartition(tuple(sorted((c,) for c in classes)))
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
        return [tuple(row) for row in identity_matrix(r)]
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


_LINE_CODE_BASE = 41
_LINE_CODE_SHIFT = 20


def _permutation_action(mats: np.ndarray, classes: list[Vec]) -> np.ndarray:
    """Permutations induced on a closed class set, one row per matrix.

    Classes are keyed by a positional code Sum (x_i + 20) * 41^i, injective on
    integer vectors with |entries| <= 20; every class and every image stays in
    that box for the groups handled here, and membership of each image code is
    checked exactly.
    """
    arr = np.array(classes, dtype=np.int64)
    if np.abs(arr).max() >= _LINE_CODE_SHIFT:
        raise DomainError("class entries outside the code box")
    w = _LINE_CODE_BASE ** np.arange(arr.shape[1], dtype=np.int64)
    codes = arr @ w
    order = np.argsort(codes)
    sorted_codes = codes[order]
    if len(np.unique(sorted_codes)) != len(classes):
        raise ToolkitError("class code collision; box bound violated")
    images = np.einsum("nij,kj->nki", mats, arr)
    if np.abs(images).max() >= _LINE_CODE_SHIFT:
        raise DomainError("image entries outside the code box")
    img_codes = images @ w
    pos = np.searchsorted(sorted_codes, img_codes)
    pos[pos == len(classes)] = 0
    if not (sorted_codes[pos] == img_codes).all():
        raise DomainError("class set is not closed under the matrices")
    return order[pos].astype(np.int16)


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
    mats = group.element_matrices()
    P = _permutation_action(mats, lines)
    m = len(lines)
    ident = np.arange(m, dtype=np.int16)

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
    found: dict[frozenset, dict] = {}
    for st in sign_choices:
        a = _signed_perm_matrix(t_perm, st)
        for sc in sign_choices:
            b = _signed_perm_matrix(c_perm, sc)
            group = generate_group([a, b, sigma], cap=384)
            if group.order != 48 or group.element_keys in found:
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
            found[group.element_keys] = {
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
