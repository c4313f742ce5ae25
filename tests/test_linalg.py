import itertools
import random
import tracemalloc
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from delpezzo import counting, linalg
from delpezzo.curves import enumerate_neg_one_curves
from delpezzo.errors import DomainError, ToolkitError
from delpezzo.fujita import a_invariant, hirzebruch_polarized
from delpezzo.linalg import (
    cone_contains,
    convex_hull_2d,
    dot,
    dual_cone_rays,
    integer_kernel,
    mat_rank,
    primitive,
)
from delpezzo.picard import make_lattice
from delpezzo.weyl import _permutation_action, validate_isometry


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, -5)) == (0, -1)
    assert primitive((7,)) == (1,)
    with pytest.raises(DomainError):
        primitive((0, 0))


def test_rank():
    assert mat_rank([(1, 0), (0, 1), (1, 1)]) == 2
    assert mat_rank([(2, 4), (1, 2)]) == 1
    assert mat_rank([]) == 0


def test_rank_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    for _ in range(200):
        ncols = rng.randint(1, 5)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(ncols))
            for _ in range(rng.randint(1, 5))
        ]
        assert mat_rank(rows) == sympy.Matrix(rows).rank()


def _rays_by_inverse(sympy, normals):
    """Reference rays of a simplicial cone: the columns of the inverse of the
    matrix of its normals, made primitive and sorted."""
    inv = sympy.Matrix(normals).inv()
    rays = []
    for j in range(len(normals)):
        col = list(inv.col(j))
        den = sympy.ilcm(1, *[c.q for c in col])
        rays.append(primitive(tuple(int(c * den) for c in col)))
    return sorted(rays)


def test_simplicial_cone_rays_against_matrix_inverse():
    # exactly dim spanning normals: each line of the start crosses one of
    # them, so no cut ever combines two rays
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    for dim in range(1, 10):
        done = 0
        while done < 6:
            normals = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim)]
            if sympy.Matrix(normals).rank() < dim:
                continue
            assert dual_cone_rays(normals) == _rays_by_inverse(sympy, normals)
            done += 1


def test_integer_kernel():
    ker = integer_kernel([(1, 1, 1)])
    assert len(ker) == 2
    for v in ker:
        assert sum(v) == 0


def test_dual_cone_quadrant():
    rays = dual_cone_rays([(1, 0), (0, 1)])
    assert sorted(rays) == [(0, 1), (1, 0)]


def test_dual_cone_3d_simplicial():
    rays = dual_cone_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert sorted(rays) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_dual_cone_nonsimplicial():
    # four facets of a square cone over (+-1, +-1, 1)
    normals = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
    rays = dual_cone_rays(normals)
    assert len(rays) == 4
    for r in rays:
        assert all(sum(a * b for a, b in zip(n, r)) >= 0 for n in normals)
    assert sorted(rays) == [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]


def test_cone_contains():
    normals = [(1, 0), (0, 1)]
    assert cone_contains(normals, (3, 5))
    assert cone_contains(normals, (0, 0))
    assert not cone_contains(normals, (-1, 2))
    # the rows of a matrix at once, each as it is alone
    points = [(3, 5), (0, 0), (-1, 2), (4, -1), (2**40, 2**40)]
    assert cone_contains(normals, points).tolist() == [
        cone_contains(normals, x) for x in points
    ]


def test_degenerate_cones_are_domain_errors():
    # no normals: the dual cone is the whole space, which has no extreme rays
    with pytest.raises(DomainError, match="no inequality normals"):
        dual_cone_rays([])
    # normals that do not span leave lines after the last cut, whether the
    # cuts kept rays or removed them all
    for normals in ([(1, 0, 0), (0, 1, 0), (-1, -1, 0)], [(1, 0), (-1, 0)], [(2, 0, 1)]):
        with pytest.raises(DomainError, match="do not span the ambient space; the dual cone "
                                              "is not pointed"):
            dual_cone_rays(normals)
    # normals and vectors of different lengths, one vector or a list of them
    for x in ((1, 2, 3), [(1, 2, 3)], [(1,)]):
        with pytest.raises(DomainError, match="normals of length 2 and vectors of length"):
            cone_contains([(1, 0)], x)
    # no normals cut nothing, and no vectors ask nothing
    assert cone_contains([], (1, 2, 3)) and cone_contains([(1, 0)], []).shape == (0,)


def test_cone_contains_in_blocks():
    # 5000 rows against 240 normals are 1.2 million product entries, more
    # than 36 blocks of _BLOCK entries; each row is decided as in one whole
    # product
    rng = np.random.default_rng(8)
    normals = rng.integers(0, 4, size=(240, 6))
    points = rng.integers(-1, 6, size=(5000, 6))
    assert len(points) * len(normals) > 36 * linalg._BLOCK
    whole = (points @ normals.T >= 0).all(axis=1)
    assert 0 < whole.sum() < len(points)
    assert cone_contains(normals, points).tolist() == whole.tolist()
    assert cone_contains(normals, points[:0]).shape == (0,)


@pytest.mark.parametrize(
    "m, n, width, d",
    # long on both sides, one row alone past the bound, a stack of 7 x 7
    # matrices against 27 classes, one matrix alone past the bound, and empty
    [(600, 3000, 1, 240), (5000, 240, 1, 6), (1, 40000, 1, 2), (27, 7 * 4000, 7, 7),
     (3, 2 * 20000, 20000, 2), (0, 5, 1, 3), (5, 0, 1, 3)],
)
def test_exact_tiles_cover_the_product(m, n, width, d):
    # every entry of X @ rows.T lies in exactly one tile, each tile holds at
    # most _BLOCK entries or one group of `width` rows, never split, and each
    # operand tile at most _BLOCK entries or isqrt(_BLOCK) rows
    rng = np.random.default_rng(m + n)
    X, rows = rng.integers(-3, 4, size=(m, d)), rng.integers(-3, 4, size=(n, d))
    whole, seen = X @ rows.T, np.zeros((m, n), dtype=np.intp)
    most = max(isqrt(linalg._BLOCK), linalg._BLOCK // d)
    for a, b, P in linalg._exact_tiles(X, rows, np.float64, width):
        assert P.dtype == np.float64 and (P == whole[a : a + len(P), b : b + P.shape[1]]).all()
        assert b % width == 0 and P.shape[1] % width == 0
        assert P.size <= max(linalg._BLOCK, width) and len(P) <= most
        assert P.shape[1] <= max(most, width)
        seen[a : a + len(P), b : b + P.shape[1]] += 1
    assert (seen == 1).all()


def _peak(f, *args) -> int:
    """The tracemalloc peak of f(*args) in bytes; numpy reports its buffers to
    tracemalloc, so the peak covers the arrays."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_peaks_in_blocks():
    # membership of 5000 rows against 240 normals took 2.1 MB in blocks of
    # 512 x 512 cells, and a rank-9 double description of 40 of the 240 lines
    # of eight blow-ups (the gram folded in, as in the benchmark) 1.4 MB
    rng = np.random.default_rng(8)
    normals = rng.integers(0, 4, size=(240, 6))
    points = rng.integers(-1, 6, size=(5000, 6))
    assert _peak(cone_contains, normals, points) < 2**20
    lines = random.Random(0).sample(enumerate_neg_one_curves(make_lattice(8)), 40)
    normals = [(g[0],) + tuple(-x for x in g[1:]) for g in lines]
    assert mat_rank(normals) == 9
    assert _peak(dual_cone_rays, normals) < 2**20


@pytest.mark.parametrize("where", ["first row", "last block", "normal"])
def test_cone_contains_refuses_nan(monkeypatch, where):
    # a NaN in a product block compares as outside; the block's values are
    # checked, in every block: 240 normals and 5000 rows make five blocks
    rng = np.random.default_rng(8)
    normals = rng.integers(0, 4, size=(240, 6))
    points = rng.integers(-1, 6, size=(5000, 6))
    integer_operands = linalg._integer_operands

    def inject(rows, X, what):
        rows, X, exact = integer_operands(rows, X, what)
        rows, X = rows.astype(np.float32), X.astype(np.float32)
        {"first row": X[0], "last block": X[-1], "normal": rows[7]}[where][2] = np.nan
        return rows, X, exact

    monkeypatch.setattr(linalg, "_integer_operands", inject)
    with pytest.raises(ToolkitError, match="not a number"):
        cone_contains(normals, points)
    monkeypatch.undo()
    assert cone_contains(normals, points).sum() > 0


def test_dual_cone_rays_past_int64_match_slice_facets():
    # seeded rank-3 cones with entries near 2**40: the Hadamard bound is far
    # past 2**62, so the rays are Python ints; the slice route reads the
    # facets off the hull of the height-1 slice, in Python ints, with no
    # double description
    rng = random.Random(40)
    past = 0
    for _ in range(20):
        gens = tuple((2**40 + rng.randint(0, 2**20), rng.randint(-(2**40), 2**40),
                      rng.randint(-(2**40), 2**40)) for _ in range(rng.randint(3, 6)))
        rays = dual_cone_rays(gens)
        assert rays == counting._slice_facets(gens, (1, 0, 0))
        past += max(abs(x) for ray in rays for x in ray) >= 2**63
    assert past == 20


def test_cone_contains_past_int64_matches_python_dot():
    # vectors past int64 against seeded normals of entries near 2**40, some
    # put at dot product -1, 0 or 1 with the first normal, which no float
    # product could tell apart
    rng = random.Random(63)
    normals = [tuple(rng.randint(-(2**40), 2**40) for _ in range(3)) + (1,) for _ in range(3)]
    xs = []
    for _ in range(300):
        x = [rng.randint(-(2**70), 2**70) for _ in range(4)]
        tight = rng.choice((-1, 0, 1, None))
        if tight is not None:  # the first normal ends in 1
            x[3] += tight - dot(normals[0], x)
        xs.append(tuple(x))
    want = [all(dot(h, x) >= 0 for h in normals) for x in xs]
    assert 0 < sum(want) < len(xs)
    assert cone_contains(normals, xs).tolist() == want
    assert [cone_contains(normals, x) for x in xs] == want


def test_int64_guard():
    # membership: max |x| times the largest row-abs-sum of the normals; in
    # int64 below 2**62, in Python ints from there, nothing truncated or wrapped
    assert cone_contains([(1, 1)], (2**60, 2**60))
    for x in ((2**61, 0), (2**70, 0), (2**63, 1), (2**70, -(2**70))):
        assert cone_contains([(1, 1)], x)
    assert not cone_contains([(1, 1)], (2**70, -(2**70) - 1))
    with pytest.raises(DomainError, match="not an integer"):
        cone_contains([(1, 1)], (1.5, 0))
    # double description: 2 * sqrt(dim) * H**(2 * dim - 1), H the largest
    # norm of a normal; in dim 2 it reaches 2**62 at H of about 2**20.2, and
    # the rays are Python ints from there
    for big in (2**20, 2**21, 2**70):
        assert dual_cone_rays([(1, 0), (big, 1)]) == [(0, 1), (1, -big)]
    # a-invariant: the facets (1, 0), (0, 1) of F0 paired with G L = L, in
    # Python ints, so exact past int64 too
    assert a_invariant(hirzebruch_polarized(0, (2**61, 2**61))) == Fraction(1, 2**60)
    assert a_invariant(hirzebruch_polarized(0, (2**62, 2**62))) == Fraction(1, 2**61)
    assert a_invariant(hirzebruch_polarized(0, (2**70, 2**70))) == Fraction(1, 2**69)
    # isometry check: diag(t, 1, 1) pairs H with itself to t**2, in Python
    # ints, so the exact answer comes past int64 too
    lat = make_lattice(2)
    for t in (2**30, -(2**30), 2**31, 2**62, 2**70):
        with pytest.raises(DomainError, match="does not preserve the pairing"):
            validate_isometry(lat, ((t, 0, 0), (0, 1, 0), (0, 0, 1)))


@pytest.mark.parametrize(
    "bound, dtype",
    [(2**24 - 1, np.float32), (2**24, np.float64), (2**53 - 1, np.float64), (2**53, np.int64),
     (2**62 - 1, np.int64), (2**62, object), (2**70, object)],
)
def test_exact_dtype_edges(bound, dtype):
    assert linalg._exact_dtype(bound) is dtype


@pytest.mark.parametrize("e", [24, 53])
def test_exact_products_at_dtype_edges(e):
    # each input holds 2**e + 1, which the dtype below the rule's (float32
    # past 2**24, float64 past 2**53) rounds to 2**e; every result must equal
    # the product in Python ints
    big = 2**e + 1
    normals = [(1, -1)]
    X = [(big - 1, big), (big, big - 1)]
    assert [cone_contains(normals, x) for x in X] == [dot(normals[0], x) >= 0 for x in X]
    assert cone_contains(normals, X).tolist() == [False, True]
    # F0 with L = (big, big): the facets (1, 0), (0, 1) pair with G L = L and
    # G K = (-2, -2), so a = 2 / big
    assert a_invariant(hirzebruch_polarized(0, (big, big))) == Fraction(2, big)
    # diag(t, 1, 1) pairs H with itself to t**2, past the edge, not 1; no
    # rounding can flip this check, as every isometry fixing K is small
    t = isqrt(2**e) + 1
    with pytest.raises(DomainError, match="does not preserve the pairing"):
        validate_isometry(make_lattice(2), ((t, 0, 0), (0, 1, 0), (0, 0, 1)))
    # the swap of the first two coordinates exchanges the two classes, which
    # would collide one dtype too narrow
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    classes = [(big, big - 1, 0), (big - 1, big, 0)]
    assert _permutation_action([swap], classes).tolist() == [[1, 0]]
    # a zero matrix makes every image 0, but the classes are still keys: the
    # bound counts each factor as at least 1, so their dtype holds them
    zero = [[0, 0, 0]] * 3
    assert _permutation_action([zero], [(0, 0, 0), *classes]).tolist() == [[0, 0, 0]]


def test_hull_square():
    pts = [
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(2), Fraction(2)),
        (Fraction(0), Fraction(2)),
        (Fraction(1), Fraction(1)),
    ]
    hull = convex_hull_2d(pts)
    assert len(hull) == 4
    assert (Fraction(1), Fraction(1)) not in hull


def _rays_by_brute_force(normals):
    """Extreme rays of a pointed cone {x : n . x >= 0}: the primitive
    feasible vectors on the kernel line of some dim - 1 normals of rank
    dim - 1, in both orientations."""
    dim = len(normals[0])
    found = set()
    for sub in itertools.combinations(normals, dim - 1):
        if sub and mat_rank(sub) < dim - 1:
            continue
        line = integer_kernel(sub)[0] if sub else (1,)
        for v in (line, tuple(-x for x in line)):
            if all(dot(n, v) >= 0 for n in normals):
                found.add(primitive(v))
    return sorted(found)


def _check_against_brute_force(normals):
    if mat_rank(normals) < len(normals[0]):
        with pytest.raises(DomainError):
            dual_cone_rays(normals)
        return False
    assert dual_cone_rays(normals) == _rays_by_brute_force(normals)
    return True


@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 6)),
        min_size=3,
        max_size=8,
    )
)
def test_dual_cone_rays_are_admissible(normals):
    _check_against_brute_force([tuple(n) for n in dict.fromkeys(normals)])


def test_dual_cone_rays_match_brute_force():
    # two rays of this cone share dim - 2 tight normals without being
    # adjacent: the third-ray check of the adjacency test must reject them
    degenerate = [(-1, 1, 1, -1), (1, -1, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1),
                  (-1, 0, 1, 0), (-1, 1, -1, 0), (1, 1, -1, 1)]
    assert _check_against_brute_force(degenerate)
    assert dual_cone_rays(degenerate) == [(-1, 0, 1, 2), (0, 1, 1, 0), (1, 2, 1, 0), (1, 2, 1, 2)]
    rng = random.Random(11)
    spanning = 0
    for k in range(600):
        dim = 1 + k % 5
        top = 1 + k // 5 % 3  # entries within 1 give the most degenerate cones
        count = dim + rng.randint(0, 4)
        normals = []
        while len(normals) < count:
            n = tuple(rng.randint(-top, top) for _ in range(dim))
            if any(n):
                normals.append(n)
        spanning += _check_against_brute_force(normals)
    assert spanning >= 500


def test_dual_cone_rays_cut_while_lines_remain(monkeypatch):
    # the first normals span a proper subspace, so cuts run while lines of the
    # start remain: the adjacency threshold is taken in the quotient by them
    thresholds = []
    adjacent_pairs = linalg._adjacent_pairs

    def spy(T, pos, neg, dim):
        thresholds.append(dim)
        return adjacent_pairs(T, pos, neg, dim)

    monkeypatch.setattr(linalg, "_adjacent_pairs", spy)
    rng = random.Random(21)
    spanning = with_lines = 0
    for k in range(120):
        dim = 3 + k % 3
        basis = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(2, dim - 1))]
        normals = []
        while len(normals) < len(basis) + 3:  # in the span of the basis
            coefficients = [rng.randint(-2, 2) for _ in basis]
            n = tuple(sum(a * b[i] for a, b in zip(coefficients, basis)) for i in range(dim))
            if any(n):
                normals.append(n)
        while len(normals) < len(basis) + 3 + dim:
            n = tuple(rng.randint(-2, 2) for _ in range(dim))
            if any(n):
                normals.append(n)
        thresholds.clear()
        spanning += _check_against_brute_force(normals)
        with_lines += any(t < dim for t in thresholds)
    assert spanning >= 110 and with_lines >= 100


@pytest.mark.parametrize("dim", range(2, 10))
def test_dual_cone_rays_read_any_integer_array(dim):
    # the same normals as a list and as an array of any integer dtype they
    # fit give the same rays: each is read as Python ints before the
    # Hadamard bound is taken, which an integer array would wrap
    # (positive on the first unit vector, so that the cone has rays)
    rng = random.Random(dim)
    for top in (100, 2**40):
        for _ in range(2):
            normals = [(rng.randint(1, top),) + tuple(rng.randint(-top, top) for _ in range(dim - 1))
                       for _ in range(dim + 2)]
            want = dual_cone_rays(normals)
            assert want and all(type(x) is int for ray in want for x in ray)
            for dtype in (np.int8, np.int16, np.int32, np.int64, object):
                if dtype is object or top <= np.iinfo(dtype).max:
                    assert dual_cone_rays(np.array(normals, dtype=dtype)) == want
