"""Fujita a-invariants of polarized surfaces and the vertical-family
classification dictionary.

a(X, L) is the minimal t with K + tL pseudoeffective.  With a polyhedral
effective cone this is exact facet arithmetic: writing the facet inequalities
of the effective cone as f . G x >= 0 (G the gram), the answer is the largest
ratio -(f . G K) / (f . G L).  The facets f are the nef rays (a del Pezzo
surface carries them from `curves.nef_curve_cone`, a Hirzebruch surface F and
C0 + eF, any other dualizes with `linalg.dual_cone_rays`), paired with G L and
G K in Python ints.  Builders for blown-up planes and Hirzebruch surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul

from . import curves as _curves
from . import linalg
from .errors import DomainError, _index, _ints
from .picard import PicardLattice, Vec, _lattice

INFINITE_A = math.inf


class AInvariantClass(Enum):
    GREATER_THAN_ONE = "GreaterThanOne"
    EQUAL_ONE = "EqualOne"
    LESS_THAN_ONE = "LessThanOne"


@dataclass(frozen=True)
class PolarizedSurface:
    """A surface given by its intersection form and cone data, in integers:
    every entry is read by `errors._ints`, so a bool or a float raises
    DomainError, and numpy integers become Python ints.

    gram: symmetric integer matrix of the pairing in the chosen basis.
    canonical: the class K.  eff_generators: generators of the effective
    cone (must span the space).  polarization: the class L under study.
    nef_rays: the extreme rays of the nef cone, or None to dualize.
    """

    gram: tuple[tuple[int, ...], ...]
    canonical: Vec
    eff_generators: tuple[Vec, ...]
    polarization: Vec
    nef_rays: tuple[Vec, ...] | None = None

    def __post_init__(self):
        r = None
        for name in ("gram", "canonical", "eff_generators", "polarization", "nef_rays"):
            one, rows = name in ("canonical", "polarization"), getattr(self, name)
            if rows is None and name == "nef_rays":
                continue
            what = f"polarized surface {name} has a non-integer entry"
            rows = (_ints(rows, what),) if one else _ints(rows, what, 2)
            r = len(rows) if r is None else r  # the gram's, read first
            if any(len(v) != r for v in rows):
                raise DomainError(f"polarized surface {name} does not match rank {r}")
            object.__setattr__(self, name, rows[0] if one else rows)
        if any(row[j] != self.gram[j][i] for i, row in enumerate(self.gram) for j in range(i)):
            raise DomainError("polarized surface gram is not symmetric")


def polarized_del_pezzo(lat: PicardLattice, polarization=None) -> PolarizedSurface:
    """Blown-up plane with its effective and nef cones; default polarization -K."""
    lat = _lattice(lat)
    return PolarizedSurface(
        gram=lat.gram,
        canonical=lat.canonical,
        eff_generators=_curves.effective_cone_generators(lat).generators,
        polarization=lat.anticanonical if polarization is None else polarization,
        nef_rays=_curves.nef_curve_cone(lat).generators,
    )


def hirzebruch_polarized(e: int, polarization=None) -> PolarizedSurface:
    """Hirzebruch surface in the basis (C0, F): C0^2 = -e, C0.F = 1, F^2 = 0,
    K = -2 C0 - (e+2) F, effective cone spanned by C0 and F, nef by F, C0 + eF."""
    e = _index(e, "Hirzebruch parameter")
    if e < 0:
        raise DomainError(f"Hirzebruch parameter must be >= 0, got {e}")
    return PolarizedSurface(
        gram=((-e, 1), (1, 0)),
        canonical=(-2, -(e + 2)),
        eff_generators=((1, 0), (0, 1)),
        polarization=(2, e + 2) if polarization is None else polarization,
        nef_rays=((0, 1), (1, e)),
    )


def a_invariant(s: PolarizedSurface):
    """Minimal t with K + t L effective; +inf when L is nef but not big.

    Exact: pairs every facet inequality f of the effective cone with L and K
    in Python ints and takes the largest -(f . K) / (f . L).
    """
    L = s.polarization
    folded = [[sum(map(mul, row, v)) for row in s.gram] for v in (L, s.canonical)]
    # the gram is symmetric: (G g) . L = g . G L
    negative = [g for g in s.eff_generators if sum(map(mul, g, folded[0])) < 0]
    if negative:
        raise DomainError(f"polarization {L} is not nef: negative against {negative[0]}")
    rays = s.nef_rays if s.nef_rays is not None else linalg.dual_cone_rays(
        [[sum(map(mul, row, g)) for row in s.gram] for g in s.eff_generators])
    if not rays:
        raise DomainError("the nef cone has no rays; give nef_rays=None to dualize")
    on_l, on_k = ([sum(map(mul, f, r)) for r in rays] for f in folded)
    if 0 in on_l:
        return INFINITE_A
    return max(Fraction(-k, m) for m, k in set(zip(on_l, on_k)))


def classify_vertical_family(
    c,
    fiber_degree: int,
    *,
    pullback_of_degree_two_anticanonical: bool = False,
) -> AInvariantClass:
    """Place a one-parameter vertical family in the a-invariant trichotomy.

    The recognized inputs are the enumerable curve kinds on the fiber lattice
    plus -K and -2K.  The keyword tags a class as the pullback of a degree-2
    anticanonical series from a birational model; it is only meaningful on
    degree-1 fibers, where that family has a-invariant exactly one.
    """
    fiber_degree = _index(fiber_degree, "fiber degree")
    if not (1 <= fiber_degree <= 8):
        raise DomainError(f"fiber degree {fiber_degree} outside 1..8")
    lat = PicardLattice(9 - fiber_degree)
    c = _ints(c, "vertical class has non-integer coordinates")
    if len(c) != lat.rank:
        raise DomainError(f"class {c} does not live on a degree-{fiber_degree} fiber")
    if pullback_of_degree_two_anticanonical and fiber_degree != 1:
        raise DomainError(
            "the degree-2 anticanonical pullback tag applies to degree-1 fibers only"
        )
    minus_k = lat.anticanonical
    minus_2k = tuple(2 * x for x in minus_k)
    kind = _curves.classify_kind(lat, c)

    if kind is _curves.CurveClassKind.NEG_ONE_CURVE:
        return AInvariantClass.GREATER_THAN_ONE
    if c == minus_k and fiber_degree == 1:
        return AInvariantClass.GREATER_THAN_ONE
    if kind is _curves.CurveClassKind.CONIC:
        return AInvariantClass.EQUAL_ONE
    if c == minus_k and fiber_degree == 2:
        return AInvariantClass.EQUAL_ONE
    if fiber_degree == 1 and (
        c == minus_2k or pullback_of_degree_two_anticanonical
    ):
        return AInvariantClass.EQUAL_ONE
    if kind in (
        _curves.CurveClassKind.CUBIC_LINE_PULLBACK,
        _curves.CurveClassKind.CUBIC_ANTICANONICAL,
    ):
        return AInvariantClass.LESS_THAN_ONE
    if c == minus_k and fiber_degree >= 3:
        return AInvariantClass.LESS_THAN_ONE
    if c == minus_2k and fiber_degree >= 2:
        return AInvariantClass.LESS_THAN_ONE
    raise DomainError(f"unrecognized vertical class {c} on degree {fiber_degree}")


def larger_a_locus(lat: PicardLattice) -> list[Vec]:
    """Classes whose vertical families raise the generic a-invariant: the
    (-1)-classes, together with -K on degree-1 fibers."""
    out = list(_curves.enumerate_neg_one_curves(lat))
    if lat.degree == 1:
        out.append(lat.anticanonical)
    return sorted(out)
