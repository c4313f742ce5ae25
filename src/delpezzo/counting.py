"""Exact counting engine: alpha constants, slice point counts, asymptotics.

All arithmetic is exact (int / Fraction).  The alpha constant is rho times
the volume of the cone truncated at height 1, computed from an explicit fan
triangulation; lattice point counts per height slice are exhaustive over a
proven bounding box.  Dimensions are capped at 3: this is a desk-scale
enumerator, not a general Ehrhart package.

The asymptotic constant and the exact count are reported side by side.  With
the default dimension rule (family dimension = height + 2) the exact count
exceeds the closed-form constant by a fixed power of q; the convergence
report surfaces the measured offset instead of folding it into either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import factorial
from pathlib import Path

from .errors import CapExceeded, DomainError, _json_field, _json_int, _read_json
from .linalg import cone_contains, convex_hull_2d, dot, dual_cone_rays, mat_rank
from .picard import Vec
from .thresholds import (
    FibrationProfile,
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
    gens = tuple(cone)
    if not gens:
        raise DomainError("alpha needs at least one generator")
    rho = len(height)
    if index < 1:
        raise DomainError(f"lattice index must be >= 1, got {index}")
    if rho > 3:
        raise CapExceeded(f"alpha implemented for dimension <= 3, got {rho}")
    for g in gens:
        if len(g) != rho:
            raise DomainError(f"generator {g} does not match dimension {rho}")
    if mat_rank(gens) != rho:
        raise DomainError("cone is not full-dimensional")
    vertices = []
    for g in gens:
        h = dot(height, g)
        if h <= 0:
            raise DomainError(f"generator {g} has height {h} <= 0")
        v = tuple(Fraction(x, 1) / h for x in g)
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


def lattice_points_at_height(cone, height: Vec, translate: Vec, i: int) -> int:
    """Number of integral points of translate + cone at height exactly i,
    by exhaustive enumeration over the bounding box of the height slice; the
    slice's candidates are tested in one `cone_contains` call."""
    gens = tuple(cone)
    rho = len(height)
    if rho > 3:
        raise CapExceeded(
            f"slice enumeration implemented for dimension <= 3, got {rho}"
        )
    if not gens:
        raise DomainError("cone needs at least one generator")
    for v in gens + (translate,):
        if len(v) != rho:
            raise DomainError(f"vector {v} does not match dimension {rho}")
    heights = [dot(height, g) for g in gens]
    if any(h <= 0 for h in heights):
        raise DomainError("every generator must have positive height")
    s = i - dot(height, translate)
    if s < 0:
        return 0
    facets = dual_cone_rays(gens)
    # lam_j <= s / h_j bounds each coordinate of a cone point at height s
    bound = [
        sum((Fraction(s, h) * abs(g[k]) for g, h in zip(gens, heights)), Fraction(0))
        for k in range(rho)
    ]
    box = [int(b) for b in bound]
    pivot = max(range(rho), key=lambda k: abs(height[k]))
    free = [k for k in range(rho) if k != pivot]

    deltas = []
    for coords in product(*(range(-box[k], box[k] + 1) for k in free)):
        rest = s - sum(height[k] * a for k, a in zip(free, coords))
        q, r = divmod(rest, height[pivot])
        if r:
            continue
        # coords fill the free coordinates in order; q goes in at the pivot
        deltas.append(coords[:pivot] + (q,) + coords[pivot:])
    return int(cone_contains(facets, deltas).sum()) if deltas else 0


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


def count_exact(m: CountingModel, d: int) -> Fraction:
    """Sum of brauer_order * (points at height i) * q^(i + dim_rule) over
    heights i <= d and all translates.  Exact rational."""
    cone = m.profile.nef_cone_eta
    total = Fraction(0)
    for t in m.translates:
        start = dot(cone.height, t)
        for i in range(start, d + 1):
            pts = lattice_points_at_height(cone.generators, cone.height, t, i)
            if pts:
                total += m.profile.brauer_order * pts * m.q ** (i + m.dim_rule)
    return total


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
    raw ratio is within 5% of the extrapolated limit.
    """
    if d_max < 3:
        raise DomainError(f"convergence report needs d_max >= 3, got {d_max}")
    cone = m.profile.nef_cone_eta
    starts = [(t, dot(cone.height, t)) for t in m.translates]
    theorem = theorem_constant(m)
    rho = m.profile.rho_eta
    rows = []
    prev_ratio: Fraction | None = None
    # running total: each slice is counted once, at the first row it enters
    exact = count_exact(m, 0)
    for d in range(1, d_max + 1):
        for t, start in starts:
            if start <= d:
                pts = lattice_points_at_height(cone.generators, cone.height, t, d)
                if pts:
                    exact += m.profile.brauer_order * pts * m.q ** (d + m.dim_rule)
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
    get = partial(_json_field, "counting model", data)
    return CountingModel(
        profile=get(
            "profile",
            lambda raw: load_profile(raw) if isinstance(raw, str) else _profile_from_dict(raw),
        ),
        translates=get("translates", _int_rows),
        q=get("q", Fraction),
        dim_rule=get("dim_rule", _json_int, 2),
    )


def load_model(path) -> CountingModel:
    return model_from_json(_read_json("counting model", Path(path)))
