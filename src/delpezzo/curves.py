"""Curve classes on blown-up planes: enumeration, cones, nef decompositions.

Enumeration is a depth-first search over the exceptional coordinates.  Each
coordinate is scanned over the exact integer range that Cauchy-Schwarz leaves
for the rest, so every visited prefix has a real completion, and the last two
coordinates are solved in closed form.  The scans ascend, so the lists come
out in lexicographic order with no sort; they are complete, not samples,
and a search that would pass its work budget is refused instead.
Nefness is read from one table per lattice, the pairing normals of the
effective-cone generators (the (-1)-curves from two blow-ups on), through
`linalg.cone_contains`, each search testing its candidates in one call.
`break_fiber_class` runs no class search: it scans, one box per value of the
first coordinate, the classes that the pairings with E_i and H - E_i leave for
a part, under the same work budget.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from . import linalg
from .errors import DecompositionNotFound, DomainError, _check_budget, _index
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


# Work budget of the class search: the prefixes it visits, one for each
# self-intersection, one for each value of a, and one for each value of each
# b but the last pair, which is solved in closed form.  Every class is a
# visited last pair or its swap, so the search returns at most twice as many
# classes as it visits prefixes.  On a 2-CPU Xeon host, one CPU pinned, the
# slowest admitted search found (the largest admitted height for each n from
# 0 to 8), the nef classes of height 4 on 8 blow-ups (457,254 prefixes,
# 340,321 classes), takes 0.6-0.9 s; height 5 there would visit 2,285,202,
# and height 6 took 31 s without a budget.  On one blow-up the scan of a is
# wide and finds few classes: height 400 visits 676,702 prefixes for 101.
SEARCH_BUDGET = 2**19


def _class_search(lat: PicardLattice, self_int, degree: int) -> list[Vec]:
    """All integral classes c with c.c = self_int and -K.c = degree, sorted;
    for a range of self-intersections, those with c.c in it, each square's
    classes sorted and in the range's order, under one budget.

    Writing c = (a, b_1..b_n): -K.c = 3a + sum(b) and c.c = a^2 - sum(b^2), so
    the b_i have sum S = degree - 3a and square sum Q = a^2 - self_int.  k >= 2
    reals of sum S and square sum Q exist iff S^2 <= k Q (Cauchy-Schwarz), so
    a first coordinate b leaves a completion iff (S - b)^2 <= (k - 1)(Q - b^2).
    For integral b that reads |k b - S| <= isqrt((k - 1)(k Q - S^2)): each
    level scans exactly this range, so no visited prefix is dead over the
    reals.  With k = n it bounds a:
    |(9 - n) a - 3 degree| <= isqrt(n (degree^2 - (9 - n) self_int)).
    The last pair is solved in closed form, (b' - b)^2 = 2Q - S^2 with
    b + b' = S.  a and every b ascend, so the output is in lexicographic
    order with no sort.

    Each level adds the width of its range to the count of visited prefixes
    before it scans it, and the search raises CapExceeded once the count
    passes SEARCH_BUDGET: a refused search visits no prefix past the budget,
    and its list holds at most twice the budget.
    """
    n, d = lat.n, degree
    squares = range(self_int, self_int + 1) if isinstance(self_int, int) else self_int
    out: list[Vec] = []
    visited = 0
    refusal = (f"the class search for height {d} on {n} blow-ups would visit more "
               f"than {SEARCH_BUDGET} prefixes")

    def visit(width: int):
        nonlocal visited
        visited += width
        _check_budget(visited, SEARCH_BUDGET, refusal)

    def rec(prefix: Vec, k: int, S: int, Q: int):
        if k == 2:
            D = 2 * Q - S * S
            t = math.isqrt(D)
            if t * t == D:  # then t = S mod 2, as D = -S^2 mod 2
                b = (S - t) // 2
                out.append(prefix + (b, S - b))
                if t:
                    out.append(prefix + (S - b, b))
            return
        r = math.isqrt((k - 1) * (k * Q - S * S))
        lo, hi = -((r - S) // k), (S + r) // k
        visit(hi - lo + 1)
        for b in range(lo, hi + 1):
            rec(prefix + (b,), k - 1, S - b, Q - b * b)

    m = 9 - n
    for s in squares:
        visit(1)
        disc = n * (d * d - m * s)
        if disc < 0:
            continue
        r = math.isqrt(disc)
        lo, hi = -((r - 3 * d) // m), (3 * d + r) // m
        visit(hi - lo + 1)
        for a in range(lo, hi + 1):
            S, Q = d - 3 * a, a * a - s
            if n >= 2:
                rec((a,), n, S, Q)
            elif Q == S * S:  # b_1 = S, or no b at all (then S = 0 by the range)
                out.append((a, S) if n else (a,))
    return out


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
    if lat.degree == 3:  # -K has square 3, so it is none of the pullbacks
        anti = (lat.anticanonical, CurveClassKind.CUBIC_ANTICANONICAL)
        bisect.insort(out, anti, key=lambda t: t[0])
    return out


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


def _feasible_squares(lat: PicardLattice, height: int) -> range:
    """Possible self-intersections of a nef class of given height.

    Parity: c.(c+K) is even, so c.c = height mod 2.  Hodge index on a lattice
    of signature (1, n): c nef nonzero forces 0 <= c.c and c.c * K.K <= height^2.
    """
    return range(height % 2, height * height // lat.degree + 1, 2)


def nef_classes_of_height(lat: PicardLattice, height: int) -> list[Vec]:
    """All nef integral classes with -K.c = height (complete, sorted): one
    class search over the feasible squares, which raises CapExceeded past
    SEARCH_BUDGET visited prefixes, and DomainError for a non-integer height."""
    height = _index(height, "height")
    if height < 0:
        return []
    if height == 0:
        return [(0,) * lat.rank]
    found = _class_search(lat, _feasible_squares(lat, height), height)
    nef = linalg.cone_contains(_nef_normals(lat), found)
    return sorted(c for c, ok in zip(found, nef) if ok)


@lru_cache(maxsize=None)
def _decomposition_generators(lat: PicardLattice) -> tuple[Vec, ...]:
    """Height-2 and height-3 nef classes plus -K, ordered by descending height."""
    gens = set(nef_classes_of_height(lat, 2))
    gens |= set(nef_classes_of_height(lat, 3))
    gens.add(lat.anticanonical)
    return tuple(sorted(gens, key=lambda g: (-anticanonical_degree(lat, g), g)))


def _nef_input(lat: PicardLattice, c, task: str) -> Vec:
    """c as a tuple of Python ints, refused (DomainError) unless c is nef on a
    lattice of degree >= 2, where `task` is defined."""
    if lat.degree < 2:
        raise DomainError(f"{task} is defined for lattice degree >= 2, got {lat.degree}")
    c = _check_vec(lat, c)
    if not is_nef(lat, c):
        raise DomainError(f"class {c} is not nef")
    return c


def decompose_nef_integral(lat: PicardLattice, c) -> list[Vec]:
    """Write a nef integral class as a sum of height-2/height-3 nef classes
    and copies of -K, by a depth-first search in descending height order that
    remembers the states it has exhausted, on an explicit stack so that no
    plan length meets Python's recursion limit.

    Gated to lattice degree >= 2.  The returned list is the chosen multiset in
    search order (non-increasing).  An exhausted search raises
    DecompositionNotFound carrying the residual and the generating set size;
    the generating set is fixed, never extended silently.
    """
    c = _nef_input(lat, c, "decomposition")
    gens, normals = _decomposition_generators(lat), _nef_normals(lat)

    def steps(residual: Vec, start: int):
        """The (index, generator, next residual) moves from a search state,
        in the order they are tried: generators from `start` on whose height
        fits the residual's and that leave it nef."""
        h = anticanonical_degree(lat, residual)
        if h < 2:
            return ()
        rest = [tuple(a - b for a, b in zip(residual, g)) for g in gens[start:]]
        nef = linalg.cone_contains(normals, rest)
        return (
            (i, g, nxt)
            for i, (g, nxt, ok) in enumerate(zip(gens[start:], rest, nef), start)
            if ok and anticanonical_degree(lat, g) <= h
        )

    # depth-first on an explicit stack, one frame per chosen summand, so no
    # plan length meets the recursion limit; a state that failed once fails
    # again, so it is never re-entered
    plan: list[Vec] = []
    stack = [((c, 0), steps(c, 0))] if any(c) else []
    failed = set()
    while stack:
        state, moves = stack[-1]
        move = next(((i, g, nxt) for i, g, nxt in moves if (nxt, i) not in failed), None)
        if move is None:
            failed.add(state)
            stack.pop()
            if not stack:
                raise DecompositionNotFound(
                    f"no decomposition of {c} over the fixed generating set "
                    f"({len(gens)} classes on degree {lat.degree}); the set is not "
                    "extended silently"
                )
            plan.pop()
            continue
        i, g, nxt = move
        plan.append(g)
        if not any(nxt):
            break
        stack.append(((nxt, i), steps(nxt, i)))
    total = tuple(sum(col) for col in zip(*plan)) if plan else (0,) * lat.rank
    assert total == c
    return plan


def break_fiber_class(lat: PicardLattice, c) -> tuple[Vec, Vec]:
    """Split a nef class of height >= 4 as c0 + c1 with both parts nef of
    height >= 2, choosing the smallest c0 in plain tuple order.

    Write c0 = (a, b_1..b_n).  Pairing c0 with E_i and H - E_i, and c - c0
    with E_i (all effective), gives max(-a, c_i) <= b_i <= 0; so a nef class
    with a = 0 is zero, 1 <= a < c_0, and both parts, nonzero and nef, have
    height >= 2 (parity and Hodge index).  For each a in turn, the box of those
    b is built in lexicographic order; its first cell with both parts nef is
    the answer.  Each box's cells are counted before it is built, and past
    SEARCH_BUDGET the scan raises CapExceeded.
    """
    c = _nef_input(lat, c, "fiber breaking")
    h = anticanonical_degree(lat, c)
    if h < 4:
        raise DomainError(f"height {h} < 4; nothing to break")
    cells, normals = 0, _nef_normals(lat)
    refusal = f"breaking {c} would scan more than {SEARCH_BUDGET} classes"
    for a in range(1, c[0]):
        lo = [max(-a, x) for x in c[1:]]
        shape = [1 - x for x in lo]
        cells += (size := math.prod(shape))
        _check_budget(cells, SEARCH_BUDGET, refusal)
        c0 = np.full((size, lat.rank), a, dtype=np.int64)
        c0[:, 1:] = np.indices(shape, dtype=np.int64).reshape(lat.n, size).T + lo
        c1 = np.array(c, dtype=np.int64) - c0
        hit = np.flatnonzero(linalg.cone_contains(normals, c0) & linalg.cone_contains(normals, c1))
        if hit.size:
            return tuple(c0[hit[0]].tolist()), tuple(c1[hit[0]].tolist())
    raise DecompositionNotFound(f"no nef splitting of {c} with both heights >= 2")
