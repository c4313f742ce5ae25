"""Independent references for the correctness checks.

Nothing here calls the package under test: the Weyl group orders come from
the Coxeter product formula, the (-1)-curves from their closed-form families,
nefness from the pairing against those curves, and slice counts from a direct
scan of a bounding box with facets found by brute force.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

# (-1)-curves aH - sum b_i E_i on the plane blown up at up to 8 points:
# degree a and the multiset of nonzero b_i (E_i itself is a = 0, b_i = -1)
_LINE_FAMILIES = [
    (0, {-1: 1}),
    (1, {1: 2}),
    (2, {1: 5}),
    (3, {2: 1, 1: 6}),
    (4, {2: 3, 1: 5}),
    (5, {2: 6, 1: 2}),
    (6, {3: 1, 2: 7}),
]
LINE_COUNTS = [0, 1, 3, 6, 10, 16, 27, 56, 240]


def _placements(n: int, family: dict[int, int]):
    """Every way to put the multiset of exceptional coefficients on n points."""
    items = sorted(family.items())

    def assign(k, free):
        if k == len(items):
            yield ()
            return
        c, m = items[k]
        for pos in itertools.combinations(free, m):
            rest = [p for p in free if p not in pos]
            for tail in assign(k + 1, rest):
                yield ((c, pos),) + tail

    for assignment in assign(0, list(range(n))):
        b = [0] * n
        for c, pos in assignment:
            for p in pos:
                b[p] = c
        yield tuple(b)


def pairing(a, b) -> int:
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def height(c) -> int:
    """-K.c with -K = 3H - sum E_i."""
    return 3 * c[0] + sum(c[1:])


@functools.lru_cache(maxsize=None)
def lines(n: int) -> tuple[tuple[int, ...], ...]:
    """The (-1)-curves of the plane blown up at n <= 8 points, sorted."""
    out = []
    for a, family in _LINE_FAMILIES:
        for b in _placements(n, family):
            out.append((a,) + tuple(-x for x in b))
    return tuple(sorted(out))


def conics6() -> list[tuple[int, ...]]:
    """The 27 conic classes of the cubic surface: H - E_i, 2H - four E's,
    3H - 2E_i - the other five."""
    out = []
    for a, family in ((1, {1: 1}), (2, {1: 4}), (3, {2: 1, 1: 5})):
        for b in _placements(6, family):
            out.append((a,) + tuple(-x for x in b))
    return sorted(out)


def _gram_signs(rank: int) -> np.ndarray:
    return np.array([1] + [-1] * (rank - 1), dtype=np.int64)


def nef_mask(classes, n: int) -> np.ndarray:
    """Which classes pair non-negatively with every (-1)-curve (n >= 2)."""
    L = np.array(lines(n), dtype=np.int64) * _gram_signs(n + 1)
    C = np.array(classes, dtype=np.int64).reshape(-1, n + 1)
    return (C @ L.T >= 0).all(axis=1)


def exact_rank(rows) -> int:
    """Rank over Q by fraction-free Gaussian elimination."""
    M = [list(r) for r in rows]
    rank = 0
    cols = len(M[0]) if M else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        p = M[rank]
        for i in range(rank + 1, len(M)):
            if M[i][col]:
                f = M[i][col]
                M[i] = [p[col] * x - f * y for x, y in zip(M[i], p)]
        rank += 1
    return rank


def reflection(root) -> tuple[tuple[int, ...], ...]:
    """Matrix of x -> x + pair(x, root) root for a (-2)-root."""
    f = (root[0],) + tuple(-x for x in root[1:])
    r = len(root)
    return tuple(
        tuple((1 if i == j else 0) + root[i] * f[j] for j in range(r))
        for i in range(r)
    )


def simple_roots(n: int) -> list[tuple[int, ...]]:
    """E_i - E_{i+1} for i < n, then H - E1 - E2 - E3 (n >= 3)."""
    roots = []
    for i in range(1, n):
        r = [0] * (n + 1)
        r[i], r[i + 1] = 1, -1
        roots.append(tuple(r))
    if n >= 3:
        roots.append((1, -1, -1, -1) + (0,) * (n - 3))
    return roots


_EXCEPTIONAL = {(1, 2, 2): ("E6", 51_840), (1, 2, 3): ("E7", 2_903_040),
                (1, 2, 4): ("E8", 696_729_600)}


def dynkin_type(roots) -> list[tuple[str, int]]:
    """Components of the Coxeter graph of simple (-2)-roots, each as its
    Dynkin label and the order of its Weyl group (product formula)."""
    k = len(roots)
    adj = {i: [j for j in range(k) if j != i and pairing(roots[i], roots[j])]
           for i in range(k)}
    seen: set[int] = set()
    out = []
    for s in range(k):
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        m = len(comp)
        degrees = sorted(len(adj[v]) for v in comp)
        if degrees[-1] <= 2:
            out.append((f"A{m}", math.factorial(m + 1)))
            continue
        center = next(v for v in comp if len(adj[v]) == 3)
        arms = []
        for start in adj[center]:
            length, prev, cur = 1, center, start
            while True:
                nxt = [y for y in adj[cur] if y != prev]
                if not nxt:
                    break
                prev, cur, length = cur, nxt[0], length + 1
            arms.append(length)
        arms = tuple(sorted(arms))
        if arms[:2] == (1, 1):
            out.append((f"D{m}", 2 ** (m - 1) * math.factorial(m)))
        else:
            out.append(_EXCEPTIONAL[arms])
    return sorted(out)


def weyl_order(roots) -> int:
    return math.prod(order for _, order in dynkin_type(roots))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def cone_normals(gens) -> list[tuple[int, ...]]:
    """Facet normals of a full-dimensional cone of rank 2 or 3, by brute
    force: in rank 2 the perpendicular of each generator, in rank 3 the cross
    product of each pair, kept when every generator lies on one side."""
    if len(gens[0]) == 2:
        cands = [(-g[1], g[0]) for g in gens]
    else:
        cands = [_cross(a, b) for a, b in itertools.combinations(gens, 2)]
    out = set()
    for c in cands:
        for n in (c, tuple(-x for x in c)):
            if any(n) and all(sum(x * y for x, y in zip(n, g)) >= 0 for g in gens):
                out.add(n)
    return sorted(out)


def slice_counts(gens, hcov, translate, top: int) -> dict[int, int]:
    """Lattice points of translate + cone at each height up to `top`.

    Rank 1 is closed form.  Ranks 2 and 3 scan the box that bounds the cone
    below height `top` and test each point against brute-force facets (the
    angle test between the extreme rays in rank 2)."""
    rho = len(hcov)
    base = sum(a * b for a, b in zip(hcov, translate))
    span = top - base
    if span < 0:
        return {}
    if rho == 1:
        b = hcov[0]
        return {b * x: 1 for x in range(translate[0], top // b + 1)
                if b * x >= base}
    normals = np.array(cone_normals(gens), dtype=np.int64)
    box = [int(span * max(Fraction(abs(g[k]), sum(a * b for a, b in zip(hcov, g)))
                          for g in gens)) for k in range(rho)]
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in box]
    h = np.array(hcov, dtype=np.int64)
    counts = np.zeros(span + 1, dtype=np.int64)
    # one plane of the box at a time keeps the scan's memory small
    for first in axes[0]:
        rest = np.stack(np.meshgrid(*axes[1:], indexing="ij"), -1).reshape(-1, rho - 1)
        pts = np.concatenate([np.full((len(rest), 1), first), rest], axis=1)
        hs = pts @ h
        keep = (hs >= 0) & (hs <= span) & ((pts @ normals.T) >= 0).all(axis=1)
        counts += np.bincount(hs[keep], minlength=span + 1)
    return {base + s: int(c) for s, c in enumerate(counts) if c}


def alpha_rank_le2(gens, hcov, index: int) -> Fraction:
    """rho * vol{x in cone : height(x) <= 1} / index for rank 1 or 2: the
    segment [0, 1/h] or the triangle on the two extreme rays."""
    if len(hcov) == 1:
        return Fraction(1, hcov[0] * index)
    ext = [g for g in gens
           if any(n[0] * g[0] + n[1] * g[1] == 0 for n in cone_normals(gens))]
    u = ext[0]
    w = next(g for g in ext if u[0] * g[1] - u[1] * g[0])
    hu = sum(a * b for a, b in zip(hcov, u))
    hw = sum(a * b for a, b in zip(hcov, w))
    return abs(Fraction(u[0] * w[1] - u[1] * w[0], hu * hw)) / index


def threshold_report(data: dict) -> dict:
    """The scalar thresholds of a profile, from its JSON fields."""
    table = {int(k): int(v) for k, v in data["maxdef_table"].items()}
    neg = data["neg"]
    md = max(table.values(), default=0)
    pos = max(0, -neg)
    q = max(3, -2 * neg - 5, -neg + 3, 2 * md - 5 * neg - 5, 2 * md - neg - 3,
            2 * md + 2 + 2 * pos)
    if not data["has_ff_conic"] and all(v - d <= 2 for d, v in table.items()):
        mbb = (3, "ImprovedLemma")
    else:
        mbb = (q, "QFormula")
    notes = []
    if not table:
        notes.append("maxdef clamped to 0: no negative-height section data")
    if md + pos < 1:
        notes.append("n_odd clamped to 1")
    return {
        "profile": data["name"], "neg": neg, "maxdef": md,
        "non_dominant_threshold": max(-2 * neg - 1, 1), "q": q,
        "mbb_bound": mbb[0], "mbb_source": mbb[1], "n_even": md + 2 + pos,
        "n_odd": max(1, md + pos), "n_balanced": -(-(q + 2) // 2),
        "a_balanced": -(-(q + 8) // 2), "same_a_low_height_bound": -neg - 1,
        "notes": notes,
    }
