"""Exact counting engine: alpha constants, slice point counts, asymptotics.

All arithmetic is exact (int / Fraction).  The alpha constant is rho times
the volume of the cone truncated at height 1, computed from an explicit fan
triangulation; each height slice is counted exactly, by one interval of the
last free coordinate per column of a proven bounding box, between facets read
off the height-1 slice.  Dimensions are capped at 3: a desk-scale enumerator.

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

from .errors import CapExceeded, DomainError, _json_document, _json_int, _json_rational, _read_json
from .linalg import convex_hull_2d, dot, integer_kernel, mat_rank
from .picard import Vec
from .thresholds import (
    FibrationProfile,
    NefConeEta,
    _int_rows,
    _profile_from_dict,
    load_profile,
    profile_to_dict,
)


def _det2(a, b) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def _det3(a, b, c) -> Fraction:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


@dataclass(frozen=True)
class AlphaResult:
    """Exact alpha value with the triangulation that produced it.  Each
    simplex is (vertices, |det|); the apex at the origin is implicit."""

    value: Fraction
    triangulation: tuple[tuple[tuple[tuple[Fraction, ...], ...], Fraction], ...]


def alpha(cone, height: Vec, index: int = 1) -> AlphaResult:
    """rho times the volume of {x in cone : height(x) <= 1}, measured so the
    fundamental domain of the index-`index` sublattice has volume 1.

    The truncation polytope is the convex hull of the origin and the
    generators scaled to height 1; it is triangulated fan-wise and summed as
    rho * sum |det| / rho! / index.
    """
    gens = NefConeEta(tuple(cone), tuple(height)).generators
    rho = len(height)
    if index < 1:
        raise DomainError(f"lattice index must be >= 1, got {index}")
    if rho > 3:
        raise CapExceeded(f"alpha implemented for dimension <= 3, got {rho}")
    if mat_rank(gens) != rho:
        raise DomainError("cone is not full-dimensional")
    vertices = []
    for g in gens:
        v = tuple(Fraction(x, 1) / dot(height, g) for x in g)
        if v not in vertices:
            vertices.append(v)

    simplices: list[tuple[tuple, Fraction]] = []
    if rho == 1:
        simplices.append(((vertices[0],), abs(vertices[0][0])))
    elif rho == 2:
        base = vertices[0]
        direction = next(
            tuple(a - b for a, b in zip(v, base)) for v in vertices if v != base
        )
        vertices.sort(key=lambda v: dot(direction, v))
        for u, w in zip(vertices, vertices[1:]):
            d = abs(_det2(u, w))
            if d:
                simplices.append(((u, w), d))
    else:
        drop = next(k for k in range(3) if height[k] != 0)
        keep = [k for k in range(3) if k != drop]
        flat = {(v[keep[0]], v[keep[1]]): v for v in vertices}
        hull2 = convex_hull_2d(list(flat))
        hull = [flat[p] for p in hull2]
        for a, b in zip(hull[1:], hull[2:]):
            d = abs(_det3(hull[0], a, b))
            if d:
                simplices.append(((hull[0], a, b), d))
    total = sum(d for _, d in simplices)
    value = Fraction(rho) * total / factorial(rho) / index
    return AlphaResult(value=value, triangulation=tuple(simplices))


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
    slopes = [sum(Fraction(abs(g[k]), dot(height, g)) for g in gens) for k in free]
    return pivot, free, lambda s: [s * c.numerator // c.denominator for c in slopes]


def _slice_facets(gens, height: Vec) -> list[Vec]:
    """The facets of cone(gens), rank 2 or 3, as `linalg.dual_cone_rays(gens)`
    gives them, read off the height-1 slice in the projection of `alpha`: the
    kernels of its two ends in rank 2, of neighbours on its hull in rank 3."""
    drop = next(k for k in range(len(height)) if height[k])
    flat = {tuple(Fraction(x, dot(height, g)) for x in g[:drop] + g[drop + 1:]): g for g in gens}
    if len(height) == 2:
        edges = [(flat[min(flat)],), (flat[max(flat)],)]
    else:
        hull = [flat[p] for p in convex_hull_2d(list(flat))]
        edges = list(zip(hull, hull[1:] + hull[:1]))
    normals = {integer_kernel(edge)[0] for edge in edges}  # primitive
    if len(normals) < len(height):  # one end, or a hull of at most two points
        raise DomainError("cone is not full-dimensional")
    return sorted(n if sum(dot(n, g) for g in gens) > 0 else tuple(-x for x in n) for n in normals)


def _slice_counter(gens, height: Vec):
    """count(s): the integral points of cone(gens) at height s, for
    generators of positive height; the facets are read once.  The free
    coordinates but the last run over `_slice_box`; with the pivot x_p solved
    from the height, each facet f reads |h_p| f.x = a*y + c in the last one,
    y, which cuts y to an interval, and x_p is integral on one residue class
    of y.  Rank 1 has no free coordinate: one point iff h_p divides s."""
    if len(height) > 3:
        raise CapExceeded(f"slice counting implemented for dimension <= 3, got {len(height)}")
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
    cone = NefConeEta(tuple(cone), tuple(height))
    if len(translate) != len(height):
        raise DomainError(f"translate {translate} does not match dimension {len(height)}")
    return _slice_counter(cone.generators, cone.height)(i - dot(height, translate))


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
        object.__setattr__(self, "q", Fraction(self.q))
        object.__setattr__(
            self, "translates", tuple(tuple(t) for t in self.translates)
        )
        if self.q <= 1:
            raise DomainError(f"counting base q must be > 1, got {self.q}")
        if not self.translates:
            raise DomainError("counting model needs at least one translate")
        cone = self.profile.nef_cone_eta
        for t in self.translates:
            if len(t) != self.profile.rho_eta:
                raise DomainError(f"translate {t} does not match rho_eta")
            if dot(cone.height, t) < self.profile.neg:
                raise DomainError(
                    f"translate {t} has height {dot(cone.height, t)} below "
                    f"neg = {self.profile.neg}"
                )


def default_model(p: FibrationProfile, q, dim_rule: int = 2) -> CountingModel:
    """Model with the canonical translate at the minimal section height.
    Only defined when the height covector is the identity on a rank-1 cone;
    otherwise the translate data must be supplied explicitly."""
    if p.rho_eta != 1 or p.nef_cone_eta.height != (1,):
        raise DomainError(
            f"no default translate for profile {p.name}; pass translates"
        )
    return CountingModel(
        profile=p, translates=((p.neg,),), q=Fraction(q), dim_rule=dim_rule
    )


# Work budget of the counting engine (`check_count_budget`).  The power bound
# also keeps every exact value printable: Python refuses to convert an int of
# more than 4300 digits to a string.  On a 2-CPU Xeon host the slowest admitted
# corner found, three rank-3 generators at d = 763, takes about 1.4 s, and a
# rank-1 report to d = 2046 at q = 2 (exponents up to 2048) about 0.25 s.
COUNT_BUDGET = 2**20
COUNT_POWER_BITS = 2**12


def check_count_budget(m: CountingModel, d: int) -> None:
    """Raise DomainError unless counting heights up to d fits the budget.

    Powers: each slice at height i weighs q**(i + dim_rule), and each report
    row d takes q**d; every |exponent| times the bit length of q's larger
    term must be at most COUNT_POWER_BITS.  Columns: a translate at height
    `start` has d - start + 1 slices, each counting the columns of its
    `_slice_box` without the last coordinate (one in rank <= 2) against at
    most one facet per generator (rank <= 3); the top slice's box is the
    widest, so the sum over translates of slices x columns x generators must
    be at most COUNT_BUDGET.  Costs one box per translate, whatever d is.
    """
    cone = m.profile.nef_cone_eta
    box = _slice_box(cone.generators, cone.height)[2]
    starts = [dot(cone.height, t) for t in m.translates]
    starts = [start for start in starts if start <= d]
    exponents = [d] + [i + m.dim_rule for start in starts for i in (start, d)]
    q_bits = max(m.q.numerator.bit_length(), m.q.denominator.bit_length())
    max_exponent = COUNT_POWER_BITS // q_bits
    if max(abs(e) for e in exponents) > max_exponent:
        raise DomainError(
            f"--dmax {d} with dim_rule {m.dim_rule} is past the counting budget: "
            f"powers of q at most {COUNT_POWER_BITS} bits, so for a q of "
            f"{q_bits} bits exponents at most {max_exponent} in size"
        )
    scan = sum(
        (d - start + 1)
        * prod(2 * b + 1 for b in box(d - start)[:-1])
        * len(cone.generators)
        for start in starts
    )
    if scan > COUNT_BUDGET:
        raise DomainError(
            f"--dmax {d} is past the counting budget: the height slices of this "
            f"cone would count up to {scan} column-generator pairs, at most {COUNT_BUDGET}"
        )


def _slice_weights(m: CountingModel, d: int) -> dict[int, Fraction]:
    """brauer_order * (points at height i) * q^(i + dim_rule) over the
    translates, for each height i <= d with points: the one slice sweep of
    count_exact and convergence_report, refused past `check_count_budget`."""
    check_count_budget(m, d)
    cone = m.profile.nef_cone_eta
    count = _slice_counter(cone.generators, cone.height)
    points: dict[int, int] = {}
    for t in m.translates:
        start = dot(cone.height, t)
        for i in range(start, d + 1):
            points[i] = points.get(i, 0) + count(i - start)
    return {
        i: m.profile.brauer_order * n * m.q ** (i + m.dim_rule) for i, n in points.items() if n
    }


def count_exact(m: CountingModel, d: int) -> Fraction:
    """Sum of brauer_order * (points at height i) * q^(i + dim_rule) over
    heights i <= d and all translates.  Exact rational.  A d past
    `check_count_budget` raises DomainError before the first slice."""
    return sum(_slice_weights(m, d).values(), Fraction(0))


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
    `check_count_budget` raises DomainError before the first slice.
    """
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
        if prev_ratio is None:
            stabilized = None
        else:
            stabilized = ratio + (ratio - prev_ratio) / (m.q - 1)
        rows.append(
            {
                "d": d,
                "exact": exact,
                "asymptotic": asym,
                "ratio": ratio,
                "stabilized": stabilized,
            }
        )
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
