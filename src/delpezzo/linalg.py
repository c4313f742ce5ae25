"""Exact integer linear algebra and the cone layer.

The public functions are the cone layer, `dual_cone_rays` and
`cone_contains`, and both read their inputs by the integer rule of `errors`.
The exact helpers below them read nothing and are private, for callers that
pass vectors already read: `_dot`, `_primitive`, `_convex_hull_2d`, and one
integer kernel, `_integer_kernel`, exact over Z in Python, whose one caller
is `weyl.invariant_sublattice`.  `dual_cone_rays`, the general
route of cone duality, gives the extreme rays of {x : h . x >= 0 for every
normal h} (callers fold any bilinear form into the normals) by the double
description method on matrices (Motzkin, Raiffa, Thompson & Thrall, "The
double description method", 1953; Fukuda & Prodon, "Double description method
revisited", 1996); del Pezzo and Hirzebruch nef cones and counting cones read
their rays otherwise, checked against it by the tests.  It starts from the
whole space, a basis of lines and no rays, and cuts by each normal in turn:
a line that crosses it becomes a ray and the other rows are projected onto
its hyperplane, and otherwise adjacent rays across it are combined, each new
ray inheriting the common tight set of its two parents.  Lines and rays are
the rows of integer matrices and the rays' tight sets the rows of a bool
matrix.  Each row is, up to its gcd, a vector of minors of the normals on the
pivot coordinates (those of the lines that have crossed a normal so far), so
by Hadamard's bound every product a run forms is at most
2 * sqrt(dim) * H**(2 * dim - 1) in size, H the largest Euclidean norm of a
normal (about 4e16 for the 240 lines of eight blow-ups): a cut
s_i R_j - s_j R_i and a projection (n . l) x - (n . x) l have the same form.

One rule keeps every batch product of the package exact (the bounded-magnitude
products of Dumas, Giorgi & Pernet, "FFLAS/FFPACK", ACM TOMS 35(3), 2008):
given a bound on every value a product reads or forms, `_exact_dtype` runs it
on BLAS in float32 below 2**24 and in float64 below 2**53, in int64 below
2**62, or in Python ints (object arrays) past that, so no integer input is
refused for its size.  `_integer_operands` reads a pair of integer operands
and bounds them by their values (membership and the Weyl action kernel);
other bounds are structural: the number of normals for tight-set counts,
rank * 128**2, rank**2 * 128**2 and rank**2 * 128**3 for int8 group
products, traces and cubes, and the Hadamard bound above, which picks int64
rays (for `np.gcd`) or Python ints.  A result used as a value (key, list,
`Fraction`) or in another product is converted to an integer dtype first
(int64, or the narrower key dtype of the Weyl action kernel): -0.0 and 0.0
differ in their bytes.

One bound, `_BLOCK` entries, sets how much a batch kernel of the package
holds at once, and this module applies it.  `_exact_tiles` is the one tiled
exact product: it covers X @ rows.T with two-dimensional tiles of at most
`_BLOCK` entries, never splits a matrix of a stack of right factors, and
converts each operand tile to the product's dtype as it reads it.
Membership, both counts of the adjacency test (the second over only the rays
that can hold a candidate pair's common tight set: those on the cut's
hyperplane and the candidates' ends), the Weyl action kernel and the trace
scan of the order-3 search read it; every other blocked loop takes its rows
from `_block_rows`.

numpy is imported once, here, as `np` for the whole package, and executes on
its first attribute access: a command that never computes with it never
loads it, and runs where numpy is not installed.  There `np` is a stand-in
whose first attribute access raises ToolkitError, so a command that needs
numpy ends in one `error:` line.
"""

from __future__ import annotations

import importlib.util
import sys
from math import gcd, inf, isqrt, prod
from types import ModuleType

from .errors import DomainError, ToolkitError, _ints


def _lazy_import(name: str):
    """The module `name`, executed on its first attribute access (the loaded
    module itself once anything has imported it); where it is not installed, a
    stand-in whose first attribute access raises ToolkitError."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        def missing(attr):
            raise ToolkitError(f"this command needs {name}, which is not installed")
        module = ModuleType(name)
        module.__getattr__ = missing
        return module
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")

Vec = tuple[int, ...]

# the one working-set bound of the package: a product tile, a block of rows,
# cubes or orbit labels holds at most this many entries (128 KB in float32,
# 256 KB in float64/int64)
_BLOCK = 1 << 15


def _block_rows(width: int) -> int:
    """The rows of `width` entries that one block holds: at most _BLOCK
    entries, or one row where a row alone holds more."""
    return max(1, _BLOCK // max(1, width))


def _exact_dtype(bound):
    """The dtype of the rule (module docstring) for a product whose values are
    at most `bound` in size: object (Python ints) from 2**62 on, whose
    factor-2 margin under 2**63 covers the rounding of a float64 bound."""
    tiers = ((2**24, np.float32), (2**53, np.float64), (2**62, np.int64), (inf, object))
    return next(dtype for limit, dtype in tiers if bound < limit)


def _integer_operands(rows, X, what: str):
    """(rows, X) as integer arrays, and the rule's dtype for the products
    X @ rows.T, bounded by max |x| times the largest row-abs sum of the rows
    (last axis), each factor at least 1 so that it bounds every entry too;
    the sums are taken a block of rows at a time, in float64 (exact below
    2**53) or in Python ints.

    An operand that numpy reads as a signed integer array passes as it is;
    any other (past int64, unsigned, ragged, or not of integers) is read by
    `errors._ints` into an object array of Python ints, which raises
    DomainError("{what}: ...") for a ragged one or an entry that is not an
    integer."""
    def read(x):
        try:
            a = np.asarray(x)
        except ValueError:  # ragged: its rows as the entries of an object array
            a = np.asarray(x, dtype=object)
        return a if a.dtype.kind == "i" else np.array(_ints(x, what, a.ndim), dtype=object)

    rows, X = read(rows), read(X)
    top = max(1, int(X.max(initial=0)), -int(X.min(initial=0)))
    flat = np.atleast_2d(rows)
    step, sums = _block_rows(prod(flat.shape[1:])), np.float64 if rows.dtype.kind == "i" else object
    widest = max((np.abs(flat[lo : lo + step], dtype=sums).sum(axis=-1).max(initial=1)
                  for lo in range(0, len(flat), step)), default=1)
    return rows, X, _exact_dtype(top * int(widest))


def _exact_tiles(X, rows, exact, width: int = 1):
    """Yield (a, b, P) with P = X[a : a + p] @ rows[b : b + q].T in the dtype
    `exact`, over tiles that cover the product X @ rows.T, each operand tile
    converted as it is read.  A product tile holds at most _BLOCK entries, or
    one group of `width` rows where that alone holds more: the rows of `rows`
    come in groups of `width` (the rows of one matrix of a stack), never
    split.  An operand tile holds at most _BLOCK entries or isqrt(_BLOCK)
    rows, whichever is more.  Tiles are two-dimensional, near square where
    both operands are long, and the groups are spread evenly over the column
    tiles."""
    (m, d), groups = X.shape, len(rows) // width
    most = max(isqrt(_BLOCK), _block_rows(d))  # the rows of an operand tile
    per = min(_block_rows(min(m, isqrt(_BLOCK)) * width), max(1, most // width))
    q = width * max(1, -(-groups // max(1, -(-groups // per))))
    p = min(_block_rows(q), most)
    for a in range(0, m, p):
        A = X[a : a + p].astype(exact, copy=False)
        for b in range(0, len(rows), q):
            yield a, b, A @ rows[b : b + q].astype(exact, copy=False).T


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _primitive(v) -> Vec:
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = gcd(*v)
    if g == 0:
        raise DomainError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def _integer_kernel(rows) -> list[Vec]:
    """A Z-basis of {x : A x = 0} for the integer matrix A given as its
    (one or more) rows.

    The Euclidean reduction of A's transpose H, column by column, with its
    unimodular transform U (U A^T = H): the row with the least nonzero entry
    of the column in size is the pivot, and the rows below are reduced by
    pivots in turn until they are zero there.  The rows of U past the rank
    span the left kernel of A^T over Z, since U is unimodular."""
    H = [list(c) for c in zip(*rows)]
    m = len(H)
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    rank = 0
    for col in range(len(rows)):
        while nz := [i for i in range(rank, m) if H[i][col]]:
            k = min(nz, key=lambda i: (abs(H[i][col]), i))
            H[rank], H[k], U[rank], U[k] = H[k], H[rank], U[k], U[rank]
            for i in range(rank + 1, m):
                if q := H[i][col] // H[rank][col]:
                    H[i] = [a - q * b for a, b in zip(H[i], H[rank])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[rank])]
            if not any(H[i][col] for i in range(rank + 1, m)):
                rank += 1
                break
    return [tuple(u) for u in U[rank:]]


def dual_cone_rays(normals) -> list[Vec]:
    """Extreme rays of {x : n . x >= 0 for every normal n}, exact.

    Double description on matrices, one cut per normal in the order they are
    read, started from the whole space: the identity rows as lines and no
    rays.  Where a line crosses the normal n (the first line l with
    n . l != 0, signed so that n . l > 0), l becomes a ray, tight on every
    normal cut so far, and each other line and ray x is projected onto
    n . x = 0 as (n . l) x - (n . x) l, keeping its tight set.  Where none
    does, adjacent rays across n are combined; a new ray is tight on the
    common tight set of its two parents and on n.  Adjacency is the
    combinatorial test on exact tight sets in the quotient by the lines left.
    Lines left after the last normal mean the normals do not span (the dual
    cone is not pointed), which raises DomainError.  The normals are read by
    `errors._ints`; the rows are int64, or Python ints where the Hadamard
    bound of the module docstring reaches 2**62.  Returns primitive integer
    rays, lexicographically sorted.
    """
    normals = list(dict.fromkeys(map(_primitive, _ints(
        normals, "inequality normal entry must be an integer", 2))))
    if not normals:
        raise DomainError("no inequality normals: the dual cone is the whole space, not pointed")
    dim = len(normals[0])
    if any(len(h) != dim for h in normals):
        raise DomainError("inequality normals differ in length")
    # the Hadamard bound of the module docstring; int64 rows for `np.gcd` below 2**62
    exact = _exact_dtype(isqrt(4 * dim * max(_dot(h, h) for h in normals) ** (2 * dim - 1)) + 1)
    exact = object if exact is object else np.int64
    N = np.array(normals, dtype=exact)
    L, R, T = np.eye(dim, dtype=exact), np.empty((0, dim), dtype=exact), np.zeros((0, len(N)), bool)
    for c, n in enumerate(N):
        t, s = L @ n, R @ n
        if t.any():  # the first crossing line becomes a ray; the other rows lie on n . x = 0
            k = np.flatnonzero(t)[0]
            l, nl = (L[k], t[k]) if t[k] > 0 else (-L[k], -t[k])
            L = _primitive_rows(np.delete(nl * L - t[:, None] * l, k, axis=0))  # row k is 0
            R = _primitive_rows(nl * R - s[:, None] * l)
            T[:, c] = True
            R, T = np.concatenate([R, l[None]]), np.concatenate([T, [np.arange(len(N)) < c]])
            continue
        T[:, c] = s == 0  # no line crosses: adjacent rays across n are combined
        neg = s < 0
        if not neg.any():
            continue
        i, j = _adjacent_pairs(T[:, :c], np.flatnonzero(s > 0), np.flatnonzero(neg), dim - len(L))
        new = T[i] & T[j]
        new[:, c] = True
        R = np.concatenate([R[~neg], _primitive_rows(s[i, None] * R[j] - s[j, None] * R[i])])
        T = np.concatenate([T[~neg], new])
    if len(L):
        raise DomainError(
            "inequality normals do not span the ambient space; the dual cone is not pointed"
        )
    return sorted(map(tuple, R.tolist()))


def _primitive_rows(X):
    """The rows of the integer matrix X, each divided by the gcd of its entries."""
    return X // np.gcd.reduce(X, axis=1)[:, None]


def _adjacent_pairs(T, pos, neg, dim):
    """The adjacent pairs (i, j), i in `pos` and j in `neg`, among the rays
    whose tight sets are the rows of the bool matrix T: their common tight
    set Z has at least dim - 2 normals (the candidates) and exactly two rows
    of T (i and j) contain it.  Both counts are exact products over the tiles
    of `_exact_tiles`.

    The second count reads only the rows that can contain Z: a third ray k
    with T_k ⊇ Z lies on the cut's hyperplane (in neither `pos` nor `neg`),
    or it is positive and (k, j) is a candidate too, or negative and (i, k)
    is; so the rays on the hyperplane and the candidates' ends hold every
    such k."""
    exact = _exact_dtype(T.shape[1])
    pairs = [np.empty((0, 3), dtype=np.intp)]
    for a, b, P in _exact_tiles(T[pos], T[neg], exact):
        i, j = np.nonzero(P >= dim - 2)
        pairs.append(np.stack([pos[a + i], neg[b + j], P[i, j].astype(np.intp)], axis=1))
    # (i, j, the size of their common tight set), the size compared in the
    # products' dtype rather than promoted to float64 tile by tile
    i, j, size = np.concatenate(pairs).T
    size, holders = size[:, None].astype(exact), np.zeros(len(i), dtype=np.intp)
    can_hold = np.ones(len(T), dtype=bool)
    can_hold[pos] = can_hold[neg] = False
    can_hold[i] = can_hold[j] = True
    for a, _, P in _exact_tiles(T[i] & T[j], T[can_hold], exact):
        holders[a : a + len(P)] += (P == size[a : a + len(P)]).sum(axis=1)
    return i[holders == 2], j[holders == 2]


def cone_contains(normals, x):
    """Membership in {x : n . x >= 0 for every normal n}: a bool for one
    vector, a bool array for the rows of a matrix or the vectors of a list
    (empty for an empty list).

    Exact products over the tiles of `_exact_tiles`, in the dtype
    `_integer_operands` gives the operands (Python ints past int64), so a
    ragged operand or an entry that is not an integer raises DomainError,
    and a NaN in a float tile, which no comparison may read, ToolkitError.
    """
    N, X, exact = _integer_operands(normals, x, "cone membership entry is not an integer")
    if X.shape == (0,):  # an empty list of vectors
        return np.empty(0, dtype=bool)
    if N.size and N.shape[-1] != X.shape[-1]:
        raise DomainError(f"normals of length {N.shape[-1]} and vectors of length "
                          f"{X.shape[-1]} differ")
    rows = np.atleast_2d(X)
    inside = np.ones(len(rows), dtype=bool)
    for a, _, P in _exact_tiles(rows, N.reshape(-1, X.shape[-1]).astype(exact), exact):
        if P.dtype.kind == "f" and np.isnan(P).any():
            raise ToolkitError("cone membership product is not a number")
        inside[a : a + len(P)] &= (P >= 0).all(axis=1)
    return bool(inside[0]) if X.ndim == 1 else inside


def _convex_hull_2d(points):
    """Andrew monotone chain over exact rationals; returns hull in CCW order.

    Accepts points as tuples of Fractions/ints.  Collinear interior points are
    dropped.  Degenerate inputs (all collinear) return the two extremes.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    # the lower chain, then the upper one, each without its last point
    hull = []
    for run in (pts, pts[::-1]):
        chain = []
        for p in run:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    if len(hull) < 2:
        return pts[:1] + pts[-1:]
    return hull
