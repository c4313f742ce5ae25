"""Exact counting engine: alpha constants, slice point counts, asymptotics.

All arithmetic is exact (int / Fraction).  One helper, `_slice`, reads the
cone's height-1 slice off its generators: its vertices, in order.  The alpha
constant is rho times the volume of the cone truncated at height 1, the fan of
those vertices from the first one; each height slice is counted exactly, by
one interval of the last free coordinate per column of a proven bounding box,
between the facets through the slice's ends or hull edges.  The helper holds
the one check of full dimension, and the one cap at dimension 3: a desk-scale
enumerator.

The asymptotic constant and the exact count are reported side by side.  With
the default dimension rule (family dimension = height + 2) the exact count
exceeds the closed-form constant by a fixed power of q; the convergence
report surfaces the measured offset instead of folding it into either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, gcd, prod
from pathlib import Path

from .errors import (
    CapExceeded,
    DomainError,
    _check_budget,
    _index,
    _ints,
    _json_document,
    _json_int,
    _json_rational,
    _read_json,
)
from .linalg import _convex_hull_2d, _dot, _primitive
from .picard import Vec
from .thresholds import (
    FibrationProfile,
    NefConeEta,
    _int_rows,
    _profile_from_dict,
    load_profile,
    profile_to_dict,
)


def _det(rows) -> Fraction:
    """Determinant of a square matrix, by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]]) for j, a in enumerate(rows[0])
    )


def _slice(gens, height: Vec) -> list[Vec]:
    """The generators on the vertices of the height-1 slice of cone(gens), in
    order, read in the projection that drops the first coordinate of nonzero
    height: the one vertex in rank 1, the two ends in increasing projected
    coordinate in rank 2, and the counterclockwise `_convex_hull_2d` in rank 3.
    Fewer vertices than the rank (a flat cone) raise DomainError."""
    rho = len(height)
    if rho > 3:
        raise CapExceeded(f"counting implemented for dimension <= 3, got {rho}")
    drop = next(k for k in range(rho) if height[k])
    flat = {tuple(Fraction(x, _dot(height, g)) for x in g[:drop] + g[drop + 1:]): g for g in gens}
    # below rank 3, the least and greatest point: one, in rank 1 or on a flat cone
    points = _convex_hull_2d(list(flat)) if rho == 3 else dict.fromkeys((min(flat), max(flat)))
    vertices = [flat[p] for p in points]
    if len(vertices) < rho:
        raise DomainError("cone is not full-dimensional")
    return vertices


@dataclass(frozen=True)
class AlphaResult:
    """Exact alpha value with the triangulation that produced it.  Each
    simplex is (vertices, |det|); the apex at the origin is implicit."""

    value: Fraction
    triangulation: tuple[tuple[tuple[tuple[Fraction, ...], ...], Fraction], ...]


def alpha(cone, height: Vec, index: int = 1) -> AlphaResult:
    """rho times the volume of {x in cone : height(x) <= 1}, measured so the
    fundamental domain of the index-`index` sublattice has volume 1.

    The truncation polytope is the convex hull of the origin and the vertices
    of the height-1 slice (`_slice`); it is triangulated as the fan of those
    vertices from the first one and summed as rho * sum |det| / rho! / index.
    So the triangulation is one simplex in ranks 1 and 2, and does not depend
    on the order in which the generators are listed.
    """
    cone = NefConeEta(cone, height)
    gens, height, rho = cone.generators, cone.height, len(cone.height)
    index = _index(index, "lattice index")
    if index < 1:
        raise DomainError(f"lattice index must be >= 1, got {index}")
    v = [tuple(Fraction(x, _dot(height, g)) for x in g) for g in _slice(gens, height)]
    # the fan from v[0]: (v0,) in rank 1, (v0, v1) in rank 2, each (v0, vk, vk+1) in rank 3
    simplices = [(v[0], *v[k:k + rho - 1]) for k in range(1, len(v) - rho + 2)]
    triangulation = tuple((s, abs(_det(s))) for s in simplices)
    value = Fraction(rho) * sum(d for _, d in triangulation) / factorial(rho) / index
    return AlphaResult(value=value, triangulation=triangulation)


def tau(p: FibrationProfile) -> int:
    """Number of intersection profiles times the fiber-lattice index."""
    return p.num_profiles * p.lattice_index


def _slice_box(gens, height: Vec):
    """(pivot, free, box) for the height slices of cone(gens): the height
    fixes the pivot, the coordinate with the largest height entry, and every
    point at height s >= 0 has |x_k| <= box(s)[j] on the j-th free
    coordinate k.  The box grows with s."""
    rho = len(height)
    pivot = max(range(rho), key=lambda k: abs(height[k]))
    free = [k for k in range(rho) if k != pivot]
    # lam_j <= s / h_j bounds each coordinate of a cone point at height s
    slopes = [sum(Fraction(abs(g[k]), _dot(height, g)) for g in gens) for k in free]
    return pivot, free, lambda s: [s * c.numerator // c.denominator for c in slopes]


def _slice_facets(gens, height: Vec) -> list[Vec]:
    """The facets of cone(gens), rank 2 or 3, as `linalg.dual_cone_rays(gens)`
    gives them: the primitive normals of the ends g of the height-1 slice
    (`_slice`) in rank 2, (g1, -g0), and of the edges (u, v) of its hull in
    rank 3, the cross product u x v, each oriented positive on the
    generators."""
    v = _slice(gens, height)
    if len(height) == 2:
        normals = [(g[1], -g[0]) for g in v]
    else:
        normals = [(u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2],
                    u[0] * w[1] - u[1] * w[0]) for u, w in zip(v, v[1:] + v[:1])]
    return sorted(n if sum(_dot(n, g) for g in gens) > 0 else tuple(-x for x in n)
                  for n in map(_primitive, normals))


def _slice_counter(gens, height: Vec):
    """count(s): the integral points of cone(gens) at height s, for
    generators of positive height; the facets are read once.  The free
    coordinates but the last run over `_slice_box`; with the pivot x_p solved
    from the height, each facet f reads |h_p| f.x = a*y + c in the last one,
    y, which cuts y to an interval, and x_p is integral on one residue class
    of y.  Rank 1 has no free coordinate: one point iff h_p divides s."""
    pivot, free, box = _slice_box(gens, height)
    m, sign = abs(height[pivot]), (1 if height[pivot] > 0 else -1)
    if not free:
        return lambda s: int(s >= 0 and s % m == 0)
    # |h_p| f.x = sum over free k of (|h_p| f_k - sign f_p h_k) x_k + sign f_p s
    facets = [
        ([m * f[k] - sign * f[pivot] * height[k] for k in free], sign * f[pivot])
        for f in _slice_facets(gens, height)
    ]
    g = gcd(height[free[-1]], m)
    step, inv = m // g, pow(height[free[-1]] // g, -1, m // g)

    def count(s: int) -> int:
        *outer, bound = box(s)
        total = 0
        for xs in product(*(range(-b, b + 1) for b in outer)):
            rest = s - sum(height[k] * x for k, x in zip(free, xs))
            if rest % g:
                continue
            y0 = rest // g * inv % step
            lo, hi = -bound, bound
            for coef, cs in facets:
                a, c = coef[-1], cs * s + sum(b * x for b, x in zip(coef, xs))
                if a > 0:
                    lo = max(lo, -(c // a))
                elif a < 0:
                    hi = min(hi, c // -a)
                elif c < 0:
                    break
            else:
                total += max(0, (hi - y0) // step - (lo - 1 - y0) // step)
        return total

    return count


def lattice_points_at_height(cone, height: Vec, translate: Vec, i: int) -> int:
    """Number of integral points of translate + cone at height exactly i,
    counted by `_slice_counter`."""
    cone = NefConeEta(cone, height)
    translate = _ints(translate, "translate entry must be an integer")
    if len(translate) != len(cone.height):
        raise DomainError(f"translate {translate} does not match dimension {len(cone.height)}")
    i = _index(i, "height i")
    return _slice_counter(cone.generators, cone.height)(i - _dot(cone.height, translate))


@dataclass(frozen=True)
class CountingModel:
    """A fibration profile plus the data the counting function needs: one
    translate per intersection profile and lattice coset, the counting base
    q > 1, and the dimension rule (family dimension = height + dim_rule)."""

    profile: FibrationProfile
    translates: tuple[Vec, ...]
    q: Fraction
    dim_rule: int = 2

    def __post_init__(self):
        try:
            object.__setattr__(self, "q", Fraction(self.q))
        except (TypeError, ValueError, OverflowError):  # also NaN and infinity
            raise DomainError(f"counting base q must be rational, got {self.q!r}") from None
        translates = _ints(self.translates, "translate entry must be an integer", 2)
        object.__setattr__(self, "translates", translates)
        object.__setattr__(self, "dim_rule", _index(self.dim_rule, "dim_rule"))
        if self.q <= 1:
            raise DomainError(f"counting base q must be > 1, got {self.q}")
        if not self.translates:
            raise DomainError("counting model needs at least one translate")
        cone = self.profile.nef_cone_eta
        for t in self.translates:
            if len(t) != self.profile.rho_eta:
                raise DomainError(f"translate {t} does not match rho_eta")
            if _dot(cone.height, t) < self.profile.neg:
                raise DomainError(
                    f"translate {t} has height {_dot(cone.height, t)} below "
                    f"neg = {self.profile.neg}"
                )


def default_model(p: FibrationProfile, q, dim_rule: int = 2) -> CountingModel:
    """Model with the canonical translate at the minimal section height.
    Only defined when the height covector is the identity on a rank-1 cone;
    otherwise the translate data must be supplied explicitly."""
    if p.rho_eta != 1 or p.nef_cone_eta.height != (1,):
        raise DomainError(f"no default translate for profile {p.name}; pass translates")
    return CountingModel(profile=p, translates=((p.neg,),), q=q, dim_rule=dim_rule)


# Work budget of the counting engine (`check_count_budget`).  The power bound
# also keeps every exact value printable: Python refuses to convert an int of
# more than 4300 digits to a string.  On a 2-CPU Xeon host, one CPU pinned,
# the slowest admitted corner found, the report to d = 416 of the cone of
# (1, 0, 0), (0, 1, 0), (0, 0, 1) at height (1, 1, 1) with one translate
# (-1, 0, 0) and q = 2, takes 0.95 s; the report of the cubic-pencil default
# model at q = 2 to d = 2046 (exponents up to 2048) takes 0.09 s.
COUNT_BUDGET = 2**20
COUNT_POWER_BITS = 2**12


def check_count_budget(m: CountingModel, d: int) -> None:
    """Raise CapExceeded unless counting heights up to d fits the budget.

    Powers: each slice at height i weighs q**(i + dim_rule), and each report
    row d takes q**d; every |exponent| times the bit length of q's larger
    term must be at most COUNT_POWER_BITS.  Columns: a translate at height
    `start` has d - start + 1 slices, each counting the columns of its
    `_slice_box` without the last coordinate (one in rank <= 2) against at
    most one facet per generator (rank <= 3); the top slice's box is the
    widest, so the sum over translates of slices x columns x generators must
    be at most COUNT_BUDGET.  Costs one box per translate, whatever d is.
    """
    d, cone = _index(d, "d"), m.profile.nef_cone_eta
    box = _slice_box(cone.generators, cone.height)[2]
    starts = [_dot(cone.height, t) for t in m.translates]
    starts = [start for start in starts if start <= d]
    exponents = [d] + [i + m.dim_rule for start in starts for i in (start, d)]
    q_bits = max(m.q.numerator.bit_length(), m.q.denominator.bit_length())
    max_exponent = COUNT_POWER_BITS // q_bits
    _check_budget(max(map(abs, exponents)), max_exponent,
                  f"--dmax {d} with dim_rule {m.dim_rule} is past the counting budget: "
                  f"powers of q at most {COUNT_POWER_BITS} bits, so for a q of "
                  f"{q_bits} bits exponents at most {max_exponent} in size")
    scan = sum(
        (d - start + 1)
        * prod(2 * b + 1 for b in box(d - start)[:-1])
        * len(cone.generators)
        for start in starts
    )
    _check_budget(scan, COUNT_BUDGET, f"--dmax {d} is past the counting budget: the height "
                  f"slices of this cone would count up to {scan} column-generator pairs, "
                  f"at most {COUNT_BUDGET}")


def _slice_weights(m: CountingModel, d: int) -> dict[int, Fraction]:
    """brauer_order * (points at height i) * q^(i + dim_rule) over the
    translates, for each height i <= d with points: the one slice sweep of
    count_exact and convergence_report, refused past `check_count_budget`."""
    check_count_budget(m, d)
    cone = m.profile.nef_cone_eta
    count = _slice_counter(cone.generators, cone.height)
    points: dict[int, int] = {}
    for t in m.translates:
        start = _dot(cone.height, t)
        for i in range(start, d + 1):
            points[i] = points.get(i, 0) + count(i - start)
    return {
        i: m.profile.brauer_order * n * m.q ** (i + m.dim_rule) for i, n in points.items() if n
    }


def count_exact(m: CountingModel, d: int) -> Fraction:
    """Sum of brauer_order * (points at height i) * q^(i + dim_rule) over
    heights i <= d and all translates.  Exact rational.  A d past
    `check_count_budget` raises CapExceeded before the first slice."""
    return sum(_slice_weights(m, _index(d, "d")).values(), Fraction(0))


def theorem_constant(m: CountingModel) -> Fraction:
    """The closed-form constant tau * alpha * Br * q/(q-1).

    alpha is measured in the normalization lattice (profile coordinates
    divided by lattice_index); tau carries the index back, so the product
    matches points counted in profile coordinates.
    """
    cone = m.profile.nef_cone_eta
    a = alpha(cone.generators, cone.height, index=m.profile.lattice_index).value
    return (
        tau(m.profile) * a * m.profile.brauer_order * m.q / (m.q - 1)
    )


def asymptotic(m: CountingModel, d: int) -> Fraction:
    """The closed form (tau * alpha * Br * q/(q-1)) * q^d * d^(rho-1)."""
    d = _index(d, "d")
    if d < 1:
        raise DomainError(f"asymptotic needs d >= 1, got {d}")
    rho = m.profile.rho_eta
    return theorem_constant(m) * m.q**d * d ** (rho - 1)


def convergence_report(m: CountingModel, d_max: int) -> dict:
    """Rows d = 1..d_max of exact count, closed form, their ratio, and the
    two-point geometric extrapolation of the ratio limit.

    The final extrapolated ratio is the measured offset between the exact
    count and the closed-form constant; both constants are reported and the
    offset is never folded into either one.  `stabilizes` holds when the last
    raw ratio is within 5% of the extrapolated limit.  A d_max past
    `check_count_budget` raises CapExceeded before the first slice.
    """
    d_max = _index(d_max, "d_max")
    if d_max < 3:
        raise DomainError(f"convergence report needs d_max >= 3, got {d_max}")
    weights = _slice_weights(m, d_max)
    theorem = theorem_constant(m)
    rho = m.profile.rho_eta
    rows = []
    prev_ratio: Fraction | None = None
    # running total: each slice enters at the first row that reaches it
    exact = sum((w for i, w in weights.items() if i < 1), Fraction(0))
    for d in range(1, d_max + 1):
        exact += weights.get(d, 0)
        asym = theorem * m.q**d * d ** (rho - 1)
        ratio = exact / asym
        stabilized = None if prev_ratio is None else ratio + (ratio - prev_ratio) / (m.q - 1)
        rows.append(dict(d=d, exact=exact, asymptotic=asym, ratio=ratio, stabilized=stabilized))
        prev_ratio = ratio
    limit = rows[-1]["stabilized"]
    last_ratio = rows[-1]["ratio"]
    stabilizes = limit != 0 and abs(last_ratio - limit) <= abs(limit) * Fraction(1, 20)
    return {
        "rows": tuple(rows),
        "theorem_constant": theorem,
        "measured_offset": limit,
        "empirical_constant": None if limit is None else limit * theorem,
        "stabilizes": bool(stabilizes),
    }


def model_to_json(m: CountingModel) -> dict:
    return {
        "profile": profile_to_dict(m.profile),
        "translates": [list(t) for t in m.translates],
        "q": str(m.q),
        "dim_rule": m.dim_rule,
    }


def model_from_json(data: dict) -> CountingModel:
    with _json_document("counting model", data) as get:
        return CountingModel(
            profile=get(
                "profile",
                lambda raw: load_profile(raw) if isinstance(raw, str) else _profile_from_dict(raw),
            ),
            translates=get("translates", _int_rows),
            q=get("q", lambda x: _json_rational(x, COUNT_POWER_BITS)),
            dim_rule=get("dim_rule", _json_int, 2),
        )


def load_model(path) -> CountingModel:
    return model_from_json(_read_json("counting model", Path(path)))
