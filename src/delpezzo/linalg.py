"""Exact integer/rational linear algebra helpers.

Everything here is over Z or Q (fractions.Fraction); no floating point.
The double description routine is the single source of cone duality for the
whole package: given inequality normals h_i it returns the extreme rays of
{x : h_i . x >= 0 for all i} under the standard dot product (callers fold any
bilinear form into the normals first).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import DomainError

Vec = tuple[int, ...]


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def primitive(v) -> Vec:
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise DomainError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def row_echelon_transform(rows):
    """Integer row echelon form with transform.

    Returns (H, U, rank) with U unimodular, U*A = H, and H in echelon form
    (pivot entries positive).  Rows of U beyond `rank` span the left kernel
    of A over Z (a genuine Z-basis, since U is unimodular).
    """
    H = [list(r) for r in rows]
    m = len(H)
    n = len(H[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pr = 0
    for col in range(n):
        if pr == m:
            break
        while True:
            nz = [i for i in range(pr, m) if H[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(H[i][col]), i))
            H[pr], H[i0] = H[i0], H[pr]
            U[pr], U[i0] = U[i0], U[pr]
            p = H[pr][col]
            clean = True
            for i in range(pr + 1, m):
                if H[i][col]:
                    q = H[i][col] // p
                    if q:
                        H[i] = [a - q * b for a, b in zip(H[i], H[pr])]
                        U[i] = [a - q * b for a, b in zip(U[i], U[pr])]
                    if H[i][col]:
                        clean = False
            if clean:
                break
        if H[pr][col] != 0:
            if H[pr][col] < 0:
                H[pr] = [-a for a in H[pr]]
                U[pr] = [-a for a in U[pr]]
            pr += 1
    return H, U, pr


def integer_kernel(rows) -> list[Vec]:
    """Z-basis of {x : A x = 0} for an integer matrix A given as rows."""
    if not rows:
        raise DomainError("integer_kernel needs at least one row")
    ncols = len(rows[0])
    transpose = [tuple(r[j] for r in rows) for j in range(ncols)]
    _, U, rank = row_echelon_transform(transpose)
    return [tuple(U[i]) for i in range(rank, ncols)]


def mat_rank(rows) -> int:
    return row_echelon_transform(rows)[2]


def _initial_simplicial_rays(normals):
    """Pick a spanning subset of normals; its simplicial cone seeds the DD run.

    Seed ray j spans the kernel of the other picked normals, oriented so that
    picked normal j is positive on it (a column of the inverse matrix, made
    primitive).
    """
    dim = len(normals[0])
    picked: list[int] = []
    acc: list[Vec] = []
    for idx, h in enumerate(normals):
        if mat_rank(acc + [h]) > len(acc):
            acc.append(h)
            picked.append(idx)
        if len(acc) == dim:
            break
    if len(acc) < dim:
        raise DomainError(
            "inequality normals do not span the ambient space; "
            "the dual cone is not pointed"
        )
    rays = []
    for j in range(dim):
        others = acc[:j] + acc[j + 1 :]
        ray = integer_kernel(others)[0] if others else (1,)
        rays.append(ray if dot(acc[j], ray) > 0 else tuple(-x for x in ray))
    return picked, rays


def dual_cone_rays(normals) -> list[Vec]:
    """Extreme rays of {x : n . x >= 0 for every normal n}, exact.

    Double description over the integers: seed with a simplicial subcone from
    a spanning subset of the normals, then cut by the remaining inequalities,
    combining adjacent rays across each new hyperplane.  Adjacency is the
    combinatorial test on exact tight sets.  Requires the normals to span
    (pointed dual cone).  Returns primitive integer rays, lexicographically
    sorted, as a fresh list.  Memoized on the normals, so every caller that
    dualizes the same cone (the nef cone and the a-invariant facets of a
    lattice, a counting cone slice after slice) shares one run.
    """
    return list(_dual_cone_rays(tuple(tuple(h) for h in normals)))


@lru_cache(maxsize=None)
def _dual_cone_rays(normals: tuple[Vec, ...]) -> tuple[Vec, ...]:
    seen = set()
    cleaned = []
    for h in normals:
        h = primitive(tuple(h))
        if h not in seen:
            seen.add(h)
            cleaned.append(h)
    normals = cleaned
    dim = len(normals[0])

    picked, rays = _initial_simplicial_rays(normals)
    processed = list(picked)

    # tight sets as bitmasks over normal indices: bit j set iff normal j
    # is tight on the ray
    def tightset(ray):
        mask = 0
        for j in processed:
            if dot(normals[j], ray) == 0:
                mask |= 1 << j
        return mask

    current = [(r, tightset(r)) for r in rays]

    for idx, h in enumerate(normals):
        if idx in picked:
            continue
        processed.append(idx)
        bit = 1 << idx
        pos, zero, neg = [], [], []
        for ray, tight in current:
            s = dot(h, ray)
            if s > 0:
                pos.append((ray, tight, s))
            elif s == 0:
                zero.append((ray, tight | bit))
            else:
                neg.append((ray, tight, s))
        if not neg:
            current = [(r, t) for r, t, _ in pos] + zero
            continue
        others = (
            [(r, t) for r, t, _ in pos]
            + zero
            + [(r, t) for r, t, _ in neg]
        )
        newly = []
        for rp, tp, sp in pos:
            for rn, tn, sn in neg:
                common = tp & tn
                if common.bit_count() < dim - 2:
                    continue
                blocked = False
                for ro, to in others:
                    if ro is rp or ro is rn:
                        continue
                    if common & ~to == 0:
                        blocked = True
                        break
                if blocked:
                    continue
                w = primitive(
                    tuple(sp * b - sn * a for a, b in zip(rp, rn))
                )
                newly.append(w)
        current = [(r, t) for r, t, _ in pos] + zero
        known = {r for r, _ in current}
        for w in newly:
            if w not in known:
                known.add(w)
                current.append((w, tightset(w)))

    return tuple(sorted(r for r, _ in current))


def cone_contains(facet_normals, x) -> bool:
    """Membership in {x : n . x >= 0} given the facet normals."""
    return all(dot(n, x) >= 0 for n in facet_normals)


def convex_hull_2d(points):
    """Andrew monotone chain over exact rationals; returns hull in CCW order.

    Accepts points as tuples of Fractions/ints.  Collinear interior points are
    dropped.  Degenerate inputs (all collinear) return the two extremes.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:
        return pts[:1] + pts[-1:]
    return hull
