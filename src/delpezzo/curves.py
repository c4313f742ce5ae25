"""Curve classes on blown-up planes: enumeration, cones, nef decompositions.

Enumeration is a depth-first search over the exceptional coordinates with a
Cauchy-Schwarz prune; it is exhaustive within the derived coefficient bounds,
so the outputs are complete lists, not samples.  Nefness is read from one
table per lattice, the pairing normals of the effective-cone generators (the
(-1)-curves from two blow-ups on): `is_nef`, `nef_classes_of_height`,
`nef_curve_cone`, `decompose_nef_integral` and `break_fiber_class` test
against it through `linalg.cone_contains`, each search testing all its
candidates in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from . import linalg
from .errors import DecompositionNotFound, DomainError
from .linalg import np
from .picard import PicardLattice, Vec, _check_vec, anticanonical_degree, pair


class CurveClassKind(Enum):
    NEG_ONE_CURVE = "NegOneCurve"
    CONIC = "Conic"
    CUBIC_LINE_PULLBACK = "CubicLinePullback"
    CUBIC_ANTICANONICAL = "CubicAnticanonical"


@dataclass(frozen=True)
class Cone:
    """A rational polyhedral cone, by its generators (at least one)."""

    generators: tuple[Vec, ...]

    def __post_init__(self):
        if not self.generators:
            raise DomainError("cone needs generators")


def _class_search(lat: PicardLattice, self_int: int, degree: int) -> list[Vec]:
    """All integral classes c with c.c = self_int and -K.c = degree.

    Writing c = (a, b_1..b_n): -K.c = 3a + sum(b) and c.c = a^2 - sum(b^2), so
    sum(b) = degree - 3a and sum(b^2) = a^2 - self_int.  Cauchy-Schwarz gives
    (degree - 3a)^2 <= n (a^2 - self_int), a quadratic in a with positive
    leading coefficient 9 - n, hence finitely many a.  For fixed a the b_i are
    found by DFS with the same prune on every suffix.
    """
    n = lat.n
    s, d = self_int, degree
    out: list[Vec] = []
    # (9-n) a^2 - 6 d a + (d^2 + n s) <= 0
    A, B, C = 9 - n, -6 * d, d * d + n * s
    disc = B * B - 4 * A * C
    if disc < 0:
        return out
    root = math.isqrt(disc)
    # widen by 1 against isqrt flooring; rec() reapplies the exact inequality
    lo = -(-(-B - root) // (2 * A)) - 1
    hi = (-B + root) // (2 * A) + 1

    def rec(prefix: list[int], k: int, target_sum: int, target_sq: int):
        if k == 0:
            if target_sum == 0 and target_sq == 0:
                out.append((a, *prefix))
            return
        if target_sq < 0 or target_sum * target_sum > k * target_sq:
            return
        bound = math.isqrt(target_sq)
        for b in range(-bound, bound + 1):
            prefix.append(b)
            rec(prefix, k - 1, target_sum - b, target_sq - b * b)
            prefix.pop()

    for a in range(lo, hi + 1):
        rec([], n, d - 3 * a, a * a - s)
    return sorted(out)


def enumerate_neg_one_curves(lat: PicardLattice) -> list[Vec]:
    """Classes with self-intersection -1 and anticanonical degree 1."""
    return _class_search(lat, -1, 1)


def enumerate_conic_classes(lat: PicardLattice) -> list[Vec]:
    """Classes with self-intersection 0 and anticanonical degree 2."""
    return _class_search(lat, 0, 2)


def enumerate_cubic_classes(
    lat: PicardLattice,
) -> list[tuple[Vec, CurveClassKind]]:
    """Degree-3 classes: square-1 pullbacks of plane lines, plus -K when the
    lattice degree is 3 (only there does -K itself have degree 3)."""
    out = [
        (c, CurveClassKind.CUBIC_LINE_PULLBACK)
        for c in _class_search(lat, 1, 3)
    ]
    if lat.degree == 3:
        out.append((lat.anticanonical, CurveClassKind.CUBIC_ANTICANONICAL))
    return sorted(out, key=lambda t: (t[0], t[1].value))


def classify_kind(lat: PicardLattice, c) -> CurveClassKind | None:
    c = tuple(c)
    s = pair(lat, c, c)
    d = anticanonical_degree(lat, c)
    if (s, d) == (-1, 1):
        return CurveClassKind.NEG_ONE_CURVE
    if (s, d) == (0, 2):
        return CurveClassKind.CONIC
    if (s, d) == (1, 3):
        return CurveClassKind.CUBIC_LINE_PULLBACK
    if c == lat.anticanonical and lat.degree == 3:
        return CurveClassKind.CUBIC_ANTICANONICAL
    return None


def effective_cone_generators(lat: PicardLattice) -> Cone:
    """Generators of the cone of effective curve classes.

    For 2 <= n <= 8 the (-1)-classes generate; n = 1 needs {E1, H - E1};
    n = 0 is the half-line on H.
    """
    if lat.n == 0:
        gens: tuple[Vec, ...] = ((1,),)
    elif lat.n == 1:
        gens = ((0, 1), (1, -1))
    else:
        gens = tuple(enumerate_neg_one_curves(lat))
    return Cone(generators=gens)


@lru_cache(maxsize=None)
def _nef_normals(lat: PicardLattice) -> np.ndarray:
    """The effective-cone generators with the gram folded in (a read-only int64
    table): the dot with row g is pair(., g), so x is nef iff each is >= 0."""
    N = np.array(effective_cone_generators(lat).generators, dtype=np.int64)
    N[:, 1:] *= -1
    N.flags.writeable = False
    return N


def is_nef(lat: PicardLattice, c) -> bool:
    return linalg.cone_contains(_nef_normals(lat), _check_vec(lat, c))


@lru_cache(maxsize=None)
def nef_curve_cone(lat: PicardLattice) -> Cone:
    """Dual of the effective cone under the pairing, by its extreme rays
    (primitive, sorted): the nef conics and square-1 cubics of the class
    search (Batyrev & Popov 2004).  Only -K + 2l, l a line, n = 8, is not nef."""
    found = _class_search(lat, 0, 2) + _class_search(lat, 1, 3)
    nef = linalg.cone_contains(_nef_normals(lat), found)
    return Cone(generators=tuple(sorted(c for c, ok in zip(found, nef) if ok)))


def _feasible_squares(lat: PicardLattice, height: int) -> list[int]:
    """Possible self-intersections of a nef class of given height.

    Parity: c.(c+K) is even, so c.c = height mod 2.  Hodge index on a lattice
    of signature (1, n): c nef nonzero forces 0 <= c.c and c.c * K.K <= height^2.
    """
    top = height * height // lat.degree
    start = height % 2
    return list(range(start, top + 1, 2))


def nef_classes_of_height(lat: PicardLattice, height: int) -> list[Vec]:
    """All nef integral classes with -K.c = height (complete, sorted)."""
    if height < 0:
        return []
    if height == 0:
        return [(0,) * lat.rank]
    found = [c for s in _feasible_squares(lat, height) for c in _class_search(lat, s, height)]
    nef = linalg.cone_contains(_nef_normals(lat), found) if found else []
    return sorted(c for c, ok in zip(found, nef) if ok)


@lru_cache(maxsize=None)
def _decomposition_generators(lat: PicardLattice) -> tuple[Vec, ...]:
    """Height-2 and height-3 nef classes plus -K, ordered by descending height."""
    gens = set(nef_classes_of_height(lat, 2))
    gens |= set(nef_classes_of_height(lat, 3))
    gens.add(lat.anticanonical)
    return tuple(sorted(gens, key=lambda g: (-anticanonical_degree(lat, g), g)))


def decompose_nef_integral(lat: PicardLattice, c) -> list[Vec]:
    """Write a nef integral class as a sum of height-2/height-3 nef classes
    and copies of -K, via memoized search in descending height order.

    Gated to lattice degree >= 2.  The returned list is the chosen multiset in
    search order (non-increasing).  An exhausted search raises
    DecompositionNotFound carrying the residual and the generating set size;
    the generating set is fixed, never extended silently.
    """
    if lat.degree < 2:
        raise DomainError(
            f"decomposition is defined for lattice degree >= 2, got {lat.degree}"
        )
    c = tuple(c)
    if not is_nef(lat, c):
        raise DomainError(f"class {c} is not nef")
    gens, normals = _decomposition_generators(lat), _nef_normals(lat)

    @lru_cache(maxsize=None)
    def search(residual: Vec, start: int):
        if not any(residual):
            return ()
        h = anticanonical_degree(lat, residual)
        if h < 2:
            return None
        rest = [tuple(a - b for a, b in zip(residual, g)) for g in gens[start:]]
        nef = linalg.cone_contains(normals, rest)
        for i, (g, nxt, ok) in enumerate(zip(gens[start:], rest, nef), start):
            if not ok or anticanonical_degree(lat, g) > h:
                continue
            tail = search(nxt, i)
            if tail is not None:
                return (g,) + tail
        return None

    plan = search(c, 0)
    search.cache_clear()
    if plan is None:
        raise DecompositionNotFound(
            f"no decomposition of {c} over the fixed generating set "
            f"({len(gens)} classes on degree {lat.degree}); the set is not "
            "extended silently"
        )
    total = tuple(sum(col) for col in zip(*plan)) if plan else (0,) * lat.rank
    assert total == c
    return list(plan)


def break_fiber_class(lat: PicardLattice, c) -> tuple[Vec, Vec]:
    """Split a nef class of height >= 4 as c0 + c1 with both parts nef of
    height >= 2, choosing the lexicographically smallest c0.

    Deterministic: candidates are scanned in increasing height and lex order,
    and the first valid c0 under the plain tuple order wins.
    """
    if lat.degree < 2:
        raise DomainError(
            f"fiber breaking is defined for lattice degree >= 2, got {lat.degree}"
        )
    c = tuple(c)
    if not is_nef(lat, c):
        raise DomainError(f"class {c} is not nef")
    h = anticanonical_degree(lat, c)
    if h < 4:
        raise DomainError(f"height {h} < 4; nothing to break")
    pieces = sorted(c0 for t in range(2, h - 1) for c0 in nef_classes_of_height(lat, t))
    rest = [tuple(a - b for a, b in zip(c, c0)) for c0 in pieces]
    nef = linalg.cone_contains(_nef_normals(lat), rest) if rest else []
    for c0, c1, ok in zip(pieces, rest, nef):
        if ok:
            return c0, c1
    raise DecompositionNotFound(f"no nef splitting of {c} with both heights >= 2")
