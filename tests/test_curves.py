import itertools
import math
import random
import time
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo import (
    CapExceeded,
    CurveClassKind,
    DecompositionNotFound,
    DomainError,
    anticanonical_degree,
    break_fiber_class,
    classify_kind,
    decompose_nef_integral,
    effective_cone_generators,
    enumerate_conic_classes,
    enumerate_cubic_classes,
    enumerate_neg_one_curves,
    generate_group,
    is_nef,
    make_lattice,
    nef_classes_of_height,
    nef_curve_cone,
    orbits_under_generators,
    pair,
    weyl_generators,
)
from delpezzo.curves import SEARCH_BUDGET, _class_search, _decomposition_generators, _nef_normals
from delpezzo.linalg import _integer_kernel, cone_contains, dual_cone_rays

LINE_COUNTS = [0, 1, 3, 6, 10, 16, 27, 56, 240]
CONIC_COUNTS = [0, 1, 2, 3, 5, 10, 27, 126, 2160]
NEF_RAY_COUNTS = [1, 2, 3, 5, 10, 26, 99, 702, 19440]


@pytest.mark.parametrize("n", range(9))
def test_line_counts(n):
    lat = make_lattice(n)
    lines = enumerate_neg_one_curves(lat)
    assert len(lines) == LINE_COUNTS[n]
    for c in lines:
        assert pair(lat, c, c) == -1
        assert anticanonical_degree(lat, c) == 1


@pytest.mark.parametrize("n", range(9))
def test_conic_counts(n):
    lat = make_lattice(n)
    conics = enumerate_conic_classes(lat)
    assert len(conics) == CONIC_COUNTS[n]
    for c in conics:
        assert pair(lat, c, c) == 0
        assert anticanonical_degree(lat, c) == 2


def test_cubics_degree_three():
    lat = make_lattice(6)
    cubics = enumerate_cubic_classes(lat)
    assert len(cubics) == 73
    tags = [kind for _, kind in cubics]
    assert tags.count(CurveClassKind.CUBIC_ANTICANONICAL) == 1
    assert tags.count(CurveClassKind.CUBIC_LINE_PULLBACK) == 72
    assert (lat.anticanonical, CurveClassKind.CUBIC_ANTICANONICAL) in cubics
    for c, kind in cubics:
        assert classify_kind(lat, c) == kind


def test_cubics_degree_two_omits_anticanonical():
    # height of -K equals the fiber degree, so it is a cubic only at degree 3
    lat = make_lattice(7)
    cubics = enumerate_cubic_classes(lat)
    classes = [c for c, _ in cubics]
    assert lat.anticanonical not in classes
    for c in classes:
        assert pair(lat, c, c) == 1
        assert anticanonical_degree(lat, c) == 3


def test_brute_force_oracle_small():
    # independent box search over a in 0..3, |b_i| <= 3
    lat = make_lattice(4)
    found = set()
    for a in range(0, 4):
        for b in itertools.product(range(-3, 4), repeat=4):
            c = (a, *b)
            if pair(lat, c, c) == -1 and anticanonical_degree(lat, c) == 1:
                found.add(c)
    assert found == set(enumerate_neg_one_curves(lat))


def _reference_class_search(n, s, d):
    # the earlier route: every coordinate over [-sqrt(Q), sqrt(Q)], pruned by
    # Cauchy-Schwarz in the child, with a final sort
    A, B, C = 9 - n, -6 * d, d * d + n * s
    disc = B * B - 4 * A * C
    if disc < 0:
        return []
    root = math.isqrt(disc)
    out = []

    def rec(prefix, k, target_sum, target_sq):
        if k == 0:
            if target_sum == 0 and target_sq == 0:
                out.append((a, *prefix))
            return
        if target_sq < 0 or target_sum * target_sum > k * target_sq:
            return
        bound = math.isqrt(target_sq)
        for b in range(-bound, bound + 1):
            rec(prefix + [b], k - 1, target_sum - b, target_sq - b * b)

    for a in range(-(-(-B - root) // (2 * A)) - 1, (-B + root) // (2 * A) + 2):
        rec([], n, d - 3 * a, a * a - s)
    return sorted(out)


GRID = [(s, d) for s in range(-2, 5) for d in range(-1, 5)]


@pytest.mark.parametrize(
    "n, pairs",
    [(n, GRID) for n in range(8)] + [(8, [(-1, 1), (0, 2), (1, 3), (3, 3)])],
)
def test_class_search_matches_reference_route(n, pairs):
    # same list, order included: the search ships unsorted
    lat = make_lattice(n)
    for s, d in pairs:
        assert _class_search(lat, s, d) == _reference_class_search(n, s, d)


def test_class_search_brute_force_box():
    # every class of the box, grouped by (c.c, -K.c); the box holds all
    # solutions of the grid, by the real bounds on a and on |b_i| <= sqrt(a^2 - s)
    bound = 0.0
    for n in range(5):
        for s, d in GRID:
            A, B, C = 9 - n, -6 * d, d * d + n * s
            if B * B - 4 * A * C >= 0:
                ends = [(-B + e * math.sqrt(B * B - 4 * A * C)) / (2 * A) for e in (-1, 1)]
                top = max(a * a for a in ends)
                bound = max(bound, *map(abs, ends), math.sqrt(max(top - s, 0)))
    box = range(-int(bound + 1e-9), int(bound + 1e-9) + 1)
    empty = 0
    for n in range(5):
        lat = make_lattice(n)
        found = {}
        for c in itertools.product(box, repeat=n + 1):
            key = (pair(lat, c, c), anticanonical_degree(lat, c))
            found.setdefault(key, []).append(c)
        for s, d in GRID:
            expected = sorted(found.get((s, d), []))
            empty += not expected
            assert _class_search(lat, s, d) == expected
    assert 0 < empty < 5 * len(GRID)


@pytest.mark.parametrize("n", range(9))
def test_enumerations_are_strictly_increasing(n):
    lat = make_lattice(n)
    cubics = enumerate_cubic_classes(lat)
    for classes in (
        enumerate_neg_one_curves(lat),
        enumerate_conic_classes(lat),
        [c for c, _ in cubics],
    ):
        assert all(x < y for x, y in zip(classes, classes[1:]))
    assert cubics == sorted(cubics, key=lambda t: (t[0], t[1].value))
    anti = (lat.anticanonical, CurveClassKind.CUBIC_ANTICANONICAL)
    assert (anti in cubics) == (n == 6)


def test_classify_kind():
    lat = make_lattice(6)
    assert classify_kind(lat, (0, 1, 0, 0, 0, 0, 0)) == CurveClassKind.NEG_ONE_CURVE
    assert classify_kind(lat, (1, -1, 0, 0, 0, 0, 0)) == CurveClassKind.CONIC
    assert classify_kind(lat, lat.anticanonical) == CurveClassKind.CUBIC_ANTICANONICAL
    assert classify_kind(lat, (1, 0, 0, 0, 0, 0, 0)) == CurveClassKind.CUBIC_LINE_PULLBACK
    assert classify_kind(lat, (2, 0, 0, 0, 0, 0, 0)) is None


def test_effective_cone_generators():
    assert effective_cone_generators(make_lattice(0)).generators == ((1,),)
    gens1 = effective_cone_generators(make_lattice(1)).generators
    assert sorted(gens1) == [(0, 1), (1, -1)]
    gens3 = effective_cone_generators(make_lattice(3)).generators
    assert sorted(gens3) == sorted(enumerate_neg_one_curves(make_lattice(3)))


@pytest.mark.parametrize("n", range(9))
def test_nef_cone_ray_counts(n):
    lat = make_lattice(n)
    rays = nef_curve_cone(lat).generators
    assert len(rays) == NEF_RAY_COUNTS[n]
    assert all(is_nef(lat, ray) for ray in rays)
    if n == 8:
        # the 2160 conics and the W(E8)-orbit of H among the cubics
        cubics = [c for c, _ in enumerate_cubic_classes(lat)]
        part = orbits_under_generators(weyl_generators(lat), cubics)
        orbit = next(o for o in part.orbits if (1,) + (0,) * 8 in o)
        assert len(orbit) == 17280
        assert list(rays) == sorted(enumerate_conic_classes(lat) + list(orbit))
        return
    # distinct, primitive, nef and tight on normals of rank dim - 1: extreme
    # rays, so with the known count they are all of them
    assert len(set(rays)) == len(rays)
    gens = effective_cone_generators(lat).generators
    for ray in rays:
        assert math.gcd(*ray) == 1
        tight = [g for g in gens if pair(lat, g, ray) == 0]
        # of rank lat.rank - 1, a kernel of one line (the zero row gives the
        # kernel its columns where no normal is tight, in rank 1)
        assert len(_integer_kernel([*tight, (0,) * lat.rank])) == 1


@pytest.mark.parametrize("n", range(8))
def test_nef_cone_matches_double_description(n):
    # the rays read off the class search against an independent route: the
    # dual of the effective-cone generators, with the pairing folded into
    # them, by double description
    lat = make_lattice(n)
    gens = effective_cone_generators(lat).generators
    normals = [(g[0], *(-x for x in g[1:])) for g in gens]
    assert list(nef_curve_cone(lat).generators) == dual_cone_rays(normals)


def test_is_nef():
    lat = make_lattice(2)
    assert is_nef(lat, (1, 0, 0))
    assert is_nef(lat, lat.anticanonical)
    assert not is_nef(lat, (0, 1, 0))
    assert not is_nef(lat, (1, -1, -1))
    for bad in ((1, 0), (1, 0, 0.5)):
        with pytest.raises(DomainError):
            is_nef(lat, bad)
    # the normal table is kept per lattice: n = 8 between two rounds of n = 2
    lat8 = make_lattice(8)
    assert is_nef(lat8, lat8.anticanonical)
    assert is_nef(lat8, (1, -1) + (0,) * 7)
    assert not is_nef(lat8, (1, -1, -1) + (0,) * 6)
    with pytest.raises(DomainError):
        is_nef(lat8, (1, 0, 0))
    assert is_nef(lat, (1, -1, 0)) and not is_nef(lat, (1, -1, -1))
    # numpy integers are read exactly; numpy floats are refused
    assert is_nef(lat, np.array([1, 0, 0], dtype=np.int64))
    assert not is_nef(lat, np.array([0, 1, 0], dtype=np.int64))
    with pytest.raises(DomainError):
        is_nef(lat, np.array([1.0, 0.0, 0.0]))
    # the images of -K under the group are -K, which is nef; a row of an
    # element matrix is nef exactly when its tuple of ints is
    lat4 = make_lattice(4)
    mats = generate_group(weyl_generators(lat4)).element_matrices()
    for M in mats:
        assert is_nef(lat4, M @ np.array(lat4.anticanonical))
        for row in M:
            assert is_nef(lat4, row) == is_nef(lat4, tuple(int(x) for x in row))


def test_nef_classes_of_height_brute_force():
    lat = make_lattice(3)
    for h in (2, 3, 4):
        mine = set(nef_classes_of_height(lat, h))
        brute = set()
        for a in range(0, h + 1):
            for b in itertools.product(range(-h, 1), repeat=3):
                c = (a, *b)
                if anticanonical_degree(lat, c) == h and is_nef(lat, c):
                    brute.add(c)
        assert mine == brute


def test_class_search_budget_is_exact(monkeypatch):
    # height 3 on 8 blow-ups, the decomposition generators' largest search,
    # visits 34,850 prefixes: 5 squares, then the values of a and of each b
    # but the last pair
    lat = make_lattice(8)
    monkeypatch.setattr("delpezzo.curves.SEARCH_BUDGET", 34_850)
    assert len(nef_classes_of_height(lat, 3)) == 26_401
    monkeypatch.setattr("delpezzo.curves.SEARCH_BUDGET", 34_849)
    with pytest.raises(CapExceeded, match="more than 34849 prefixes"):
        nef_classes_of_height(lat, 3)


def test_class_search_budget_admits_its_callers():
    # the decomposition generators (heights 2 and 3), the benchmark's
    # searches and the slowest admitted corner, height 4 on 8 blow-ups
    for n in range(9):
        _decomposition_generators(make_lattice(n))
    counts = {(8, 2): 2_401, (7, 3): 632, (8, 4): 188_641}
    for (n, h), count in counts.items():
        assert len(nef_classes_of_height(make_lattice(n), h)) == count
    with pytest.raises(CapExceeded, match=f"more than {SEARCH_BUDGET} prefixes"):
        nef_classes_of_height(make_lattice(8), 5)


@pytest.mark.parametrize("n, h", [(8, 6), (1, 10_000), (0, 10**9)])
def test_refused_class_search_stops_at_its_budget(monkeypatch, n, h):
    # height 6 on 8 blow-ups has 7,659,601 classes; on one blow-up the scan
    # of a is wide and finds few classes; on none, the 5.6e16 feasible
    # squares are never listed.  Each refusal comes within 2**14 visited
    # prefixes, so at most 2**15 classes; numpy reports its buffers to
    # tracemalloc, so the peak covers the arrays as well
    monkeypatch.setattr("delpezzo.curves.SEARCH_BUDGET", 2**14)
    lat = make_lattice(n)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            nef_classes_of_height(lat, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_decompose_nef_integral():
    lat = make_lattice(6)
    two_k = tuple(2 * x for x in lat.anticanonical)
    parts = decompose_nef_integral(lat, two_k)
    assert parts == [(1, 0, 0, 0, 0, 0, 0), (5, -2, -2, -2, -2, -2, -2)]
    total = tuple(sum(xs) for xs in zip(*parts))
    assert total == two_k
    for p in parts:
        assert is_nef(lat, p)
        assert anticanonical_degree(lat, p) in (2, 3)

    lat1 = make_lattice(1)
    assert decompose_nef_integral(lat1, (2, 0)) == [(1, 0), (1, 0)]


def _reference_decomposition(lat, gens, c):
    """The memoized recursive search over a generating set: the plan as a
    tuple, or None when the search exhausts."""
    normals = _nef_normals(lat)

    @lru_cache(maxsize=None)
    def search(residual, start):
        if not any(residual):
            return ()
        h = anticanonical_degree(lat, residual)
        if h < 2:
            return None
        rest = [tuple(a - b for a, b in zip(residual, g)) for g in gens[start:]]
        nef = cone_contains(normals, rest)
        for i, (g, nxt, ok) in enumerate(zip(gens[start:], rest, nef), start):
            if not ok or anticanonical_degree(lat, g) > h:
                continue
            tail = search(nxt, i)
            if tail is not None:
                return (g,) + tail
        return None

    return search(tuple(c), 0)


def _seeded_nef_classes(lat, rng):
    """Nef classes of heights 2..12: samples of every nef class of heights
    2..5, and seeded sums of those classes at each height."""
    pools = {h: nef_classes_of_height(lat, h) for h in range(2, 6)}
    out = []
    for h in range(2, 13):
        pool = pools.get(h, [])
        out += rng.sample(pool, min(4, len(pool)))
        for _ in range(4):
            rest, parts = h, []
            while rest:
                height = rng.choice([x for x in pools if x <= rest and rest - x != 1])
                parts.append(rng.choice(pools[height]))
                rest -= height
            out.append(tuple(map(sum, zip(*parts))))
    return out


@pytest.mark.parametrize("n", range(2, 8))
def test_decomposition_matches_recursive_reference(n, monkeypatch):
    # the full generating set never backtracks on these classes; a seeded
    # half of it makes the search backtrack and exhaust
    lat = make_lattice(n)
    rng = random.Random(n)
    classes = _seeded_nef_classes(lat, rng)
    full = _decomposition_generators(lat)
    half = tuple(g for g in full if rng.random() < 0.5)
    exhausted = 0
    for gens in (full, half):
        monkeypatch.setattr("delpezzo.curves._decomposition_generators", lambda lat: gens)
        for c in classes:
            want = _reference_decomposition(lat, gens, c)
            if want is None:
                exhausted += 1
                with pytest.raises(DecompositionNotFound):
                    decompose_nef_integral(lat, c)
            else:
                assert decompose_nef_integral(lat, c) == list(want)
    assert exhausted


@pytest.mark.parametrize("n", [2, 6])
def test_decomposition_past_the_recursion_limit(n):
    # the recursive search ran out of frames at 500 (n = 2) and 900 (n = 6)
    # copies of -K: a plan of 2000 summands needs no recursion
    lat = make_lattice(n)
    c = tuple(2000 * x for x in lat.anticanonical)
    plan = decompose_nef_integral(lat, c)
    assert len(plan) == 2000
    assert tuple(map(sum, zip(*plan))) == c


def test_decompose_errors():
    with pytest.raises(DomainError):
        decompose_nef_integral(make_lattice(8), (1, 0, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(DomainError):
        decompose_nef_integral(make_lattice(2), (0, 1, 0))


def test_break_fiber_class():
    lat = make_lattice(6)
    two_k = tuple(2 * x for x in lat.anticanonical)
    c0, rest = break_fiber_class(lat, two_k)
    assert c0 == (1, -1, 0, 0, 0, 0, 0)
    assert rest == (5, -1, -2, -2, -2, -2, -2)
    assert is_nef(lat, c0) and is_nef(lat, rest)
    assert anticanonical_degree(lat, c0) == 2

    lat1 = make_lattice(1)
    assert break_fiber_class(lat1, (2, 0)) == ((1, 0), (1, 0))

    with pytest.raises(DomainError):
        break_fiber_class(lat, lat.anticanonical)  # height 3 < 4


def test_anticanonical_breaks_as_two_nef_pieces():
    # the sum -K + -K is one admissible split of 2(-K); the chosen split is
    # the lex-least first part, but both halves of the naive split are nef
    lat = make_lattice(6)
    assert is_nef(lat, lat.anticanonical)
    assert anticanonical_degree(lat, lat.anticanonical) == 3


def _reference_break(lat, c):
    """The earlier route: every nef class of heights 2..h-2 from the class
    search, sorted, and the first whose complement is nef."""
    c = tuple(c)
    h = anticanonical_degree(lat, c)
    pieces = sorted(c0 for t in range(2, h - 1) for c0 in nef_classes_of_height(lat, t))
    rest = [tuple(a - b for a, b in zip(c, c0)) for c0 in pieces]
    nef = cone_contains(_nef_normals(lat), rest) if rest else []
    for c0, c1, ok in zip(pieces, rest, nef):
        if ok:
            return c0, c1
    raise DecompositionNotFound(f"no nef splitting of {c}")


def _outcome(f, lat, c):
    """f's split of c, or the type of the exception it raises."""
    try:
        return f(lat, c)
    except (CapExceeded, DecompositionNotFound) as exc:
        return type(exc)


@pytest.mark.parametrize("n", range(8))
def test_break_matches_reference_route(n):
    # seeded nef classes of heights 4..7: samples of every nef class of
    # heights 4 and 5, and seeded sums of smaller ones
    lat = make_lattice(n)
    if n == 0:
        classes = [(2,)]  # heights on P^2 are multiples of 3
    else:
        seeded = _seeded_nef_classes(lat, random.Random(100 + n))
        classes = [c for c in dict.fromkeys(seeded) if 4 <= anticanonical_degree(lat, c) <= 7]
    assert classes
    for c in classes:
        assert _outcome(break_fiber_class, lat, c) == _outcome(_reference_break, lat, c)


@pytest.mark.parametrize("n", range(4))
def test_break_brute_force_box(n):
    # every nef class of heights 4..12 against the first split of the full
    # box [0, c_0] x prod [c_i, 0] in tuple order, without the cut a + b_i >= 0
    lat = make_lattice(n)
    normals = _nef_normals(lat)
    for h in range(4, 13):
        for c in nef_classes_of_height(lat, h):
            box = [c0 for c0 in itertools.product(range(c[0] + 1), *(range(x, 1) for x in c[1:]))
                   if 2 <= anticanonical_degree(lat, c0) <= h - 2]
            rest = [tuple(a - b for a, b in zip(c, c0)) for c0 in box]
            ok = cone_contains(normals, box) & cone_contains(normals, rest) if box else []
            want = next(((c0, c1) for c0, c1, y in zip(box, rest, ok) if y), DecompositionNotFound)
            assert _outcome(break_fiber_class, lat, c) == want


def _conic_split(lat, c):
    """H - E1 and the rest: the split of every k(-K), k >= 2, for n >= 1."""
    c0 = (1, -1) + (0,) * (lat.n - 1)
    return c0, tuple(a - b for a, b in zip(c, c0))


def test_break_needs_no_class_search(monkeypatch):
    # the scan reads only the cached nef normals: no class search runs
    lat = make_lattice(6)
    c = tuple(5 * x for x in lat.anticanonical)
    is_nef(lat, c)

    def refuse(*args):
        raise AssertionError("class search called")

    monkeypatch.setattr("delpezzo.curves._class_search", refuse)
    monkeypatch.setattr("delpezzo.curves.nef_classes_of_height", refuse)
    assert break_fiber_class(lat, c) == _conic_split(lat, c)


@pytest.mark.parametrize("n, k", [(3, 16), (6, 8), (7, 6)] + [(n, 2000) for n in (2, 3, 6, 7)])
def test_break_multiples_of_anticanonical(n, k):
    # the per-height route refused the first three past the class search's
    # budget, after 4.1, 0.95 and 1.2 s
    lat = make_lattice(n)
    c = tuple(k * x for x in lat.anticanonical)
    c0, c1 = break_fiber_class(lat, c)
    assert (c0, c1) == _conic_split(lat, c)
    assert is_nef(lat, c0) and is_nef(lat, c1)
    assert tuple(a + b for a, b in zip(c0, c1)) == c


def test_break_refuses_before_its_box(monkeypatch):
    # 200(-K) on 7 blow-ups: the first box, at a = 1, has 2**7 cells, past a
    # budget of 2**4.  The refusal builds nothing: np.indices is taken away,
    # and the peak is the nef test of c (about 8.5 KB), where building the
    # box peaks at about 32 KB
    lat = make_lattice(7)
    c = tuple(200 * x for x in lat.anticanonical)
    is_nef(lat, c)
    monkeypatch.setattr("delpezzo.curves.SEARCH_BUDGET", 2**4)
    monkeypatch.setattr(np, "indices", None)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="more than 16 classes"):
            break_fiber_class(lat, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**10


def test_break_budget_is_exact(monkeypatch):
    # the answer lies in the second box: 2**4 cells at a = 1, then 3**3 * 2
    # at a = 2; the budget counts the cells of every box scanned
    lat = make_lattice(4)
    c = (4, -2, -2, -2, -1)
    monkeypatch.setattr("delpezzo.curves.SEARCH_BUDGET", 70)
    assert break_fiber_class(lat, c) == ((2, -1, -1, -1, -1), (2, -1, -1, -1, 0))
    monkeypatch.setattr("delpezzo.curves.SEARCH_BUDGET", 69)
    with pytest.raises(CapExceeded, match="more than 69 classes"):
        break_fiber_class(lat, c)


def test_decomposition_budget_is_exact(monkeypatch):
    # on two blow-ups -K comes first of the four generators, so each of the
    # three steps of 3(-K) tests all four: 12 candidates
    lat = make_lattice(2)
    c = tuple(3 * x for x in lat.anticanonical)
    _decomposition_generators(lat)  # its class searches run under the real budget
    monkeypatch.setattr("delpezzo.curves.SEARCH_BUDGET", 12)
    assert decompose_nef_integral(lat, c) == [lat.anticanonical] * 3
    monkeypatch.setattr("delpezzo.curves.SEARCH_BUDGET", 11)
    with pytest.raises(CapExceeded, match="more than 11 candidates"):
        decompose_nef_integral(lat, c)


def test_hopeless_decomposition_refused_at_once():
    # a plan of 2**40 (-K) has at least 2**40 summands, each step testing at
    # least one candidate: refused before the first step
    lat = make_lattice(2)
    c = tuple(2**40 * x for x in lat.anticanonical)
    _decomposition_generators(lat)  # its class searches are not timed
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"would test more than {SEARCH_BUDGET} candidates"):
        decompose_nef_integral(lat, c)
    assert time.perf_counter() - start < 0.5


def test_exact_past_int64(monkeypatch):
    # 2**70 (-K): membership in Python ints, so nothing is refused for its
    # size; its decomposition, whose steps grow with the height, ends at its
    # budget, here a small one, as products in Python ints are slow
    lat = make_lattice(7)
    c = tuple(2**70 * x for x in lat.anticanonical)
    assert is_nef(lat, c)
    c0, c1 = break_fiber_class(lat, c)
    assert tuple(map(sum, zip(c0, c1))) == c and is_nef(lat, c0) and is_nef(lat, c1)
    _decomposition_generators(lat)  # its class searches run under the real budget
    monkeypatch.setattr("delpezzo.curves.SEARCH_BUDGET", 2**12)
    with pytest.raises(CapExceeded, match="would test more than 4096 candidates"):
        decompose_nef_integral(lat, c)


def test_is_nef_past_int64_matches_small_classes():
    # seeded sums of two nef rays, moved by at most one in each entry
    rng = random.Random(70)
    seen = []
    for n in range(2, 8):
        lat = make_lattice(n)
        rays = nef_curve_cone(lat).generators
        for _ in range(20):
            c = tuple(a + b + rng.randint(-1, 1) for a, b in zip(*rng.sample(rays, 2)))
            seen.append(is_nef(lat, c))
            assert is_nef(lat, tuple(2**70 * x for x in c)) == seen[-1]
    assert 0 < sum(seen) < len(seen)


def test_numpy_input_gives_python_ints(monkeypatch):
    lat = make_lattice(6)
    c = np.array([2 * x for x in lat.anticanonical], dtype=np.int64)
    parts = break_fiber_class(lat, c)
    assert parts == ((1, -1, 0, 0, 0, 0, 0), (5, -1, -2, -2, -2, -2, -2))
    assert all(type(x) is int for part in parts for x in part)
    plan = decompose_nef_integral(lat, c)
    assert all(type(x) is int for part in plan for x in part)
    with pytest.raises(DomainError, match=r"class \(1, 1, 0, 0, 0, 0, 0\) is not nef"):
        decompose_nef_integral(lat, np.array([1, 1, 0, 0, 0, 0, 0]))
    monkeypatch.setattr("delpezzo.curves._decomposition_generators", lambda lat: ((1,) + (0,) * 6,))
    with pytest.raises(DecompositionNotFound, match=r"of \(6, -2, -2, -2, -2, -2, -2\) over"):
        decompose_nef_integral(lat, c)


@given(st.integers(2, 7), st.data())
@settings(max_examples=30, deadline=None)
def test_enumeration_permutation_invariance(n, data):
    lat = make_lattice(n)
    perm = data.draw(st.permutations(range(1, n + 1)))
    cubics = [c for c, _ in enumerate_cubic_classes(lat)]
    for classes in (enumerate_neg_one_curves(lat), enumerate_conic_classes(lat), cubics):
        permuted = {(c[0], *(c[p] for p in perm)) for c in classes}
        assert permuted == set(classes)


@given(st.integers(1, 5), st.integers(2, 6))
@settings(max_examples=20, deadline=None)
def test_nef_height_classes_are_nef(n, h):
    lat = make_lattice(n)
    for c in nef_classes_of_height(lat, h):
        assert is_nef(lat, c)
        assert anticanonical_degree(lat, c) == h


@given(st.integers(1, 4), st.data())
@settings(max_examples=25, deadline=None)
def test_decomposition_reassembles(n, data):
    lat = make_lattice(n)
    pool = nef_classes_of_height(lat, 2) + nef_classes_of_height(lat, 3)
    if not pool:
        return
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    total = tuple(sum(xs) for xs in zip(*picks))
    parts = decompose_nef_integral(lat, total)
    assert tuple(sum(xs) for xs in zip(*parts)) == total
    for p in parts:
        assert is_nef(lat, p)


def test_cone_contains_empty_list_of_classes():
    # the nef test of an empty candidate list, as `nef_classes_of_height`
    # makes it when the class search finds nothing, matches an empty array
    lat = make_lattice(6)
    as_list = cone_contains(_nef_normals(lat), [])
    as_array = cone_contains(_nef_normals(lat), np.empty((0, 7), dtype=np.int64))
    assert as_list.dtype == as_array.dtype == bool
    assert as_list.tolist() == as_array.tolist() == []
    assert nef_classes_of_height(lat, 1) == []


def test_nef_classes_of_height_refuses_a_float():
    with pytest.raises(DomainError, match="height must be an integer"):
        nef_classes_of_height(make_lattice(3), 2.5)


def test_nef_classes_of_height_reads_numpy_integers_as_ints():
    lat = make_lattice(4)
    for h in (np.int64(2), np.int8(3)):
        classes = nef_classes_of_height(lat, h)
        assert classes == nef_classes_of_height(lat, int(h))
        assert all(type(x) is int for c in classes for x in c)
