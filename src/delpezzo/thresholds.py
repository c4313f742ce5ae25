"""Numeric thresholds of a fibration profile, plus monotone-corner search.

A FibrationProfile is data, not computation: the invariants of the generic
fiber and of the negative-height section spaces are transcribed inputs.  The
operations evaluate the explicit threshold formulas exactly; none of them
inspects geometry.

The convention maxdef = 0 for an empty table (no negative-height sections)
is a defined clamp; reports carry a note whenever it fires.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from importlib import resources
from itertools import product
from pathlib import Path

from .errors import (
    DomainError,
    _check_budget,
    _index,
    _ints,
    _json_bool,
    _json_document,
    _json_field,
    _json_int,
    _json_str,
    _read_json,
)
from .linalg import _dot
from .picard import Vec


@dataclass(frozen=True)
class NefConeEta:
    """Nef cone of curves of the generic fiber, in the integral coordinates
    of the ambient total-space curve lattice, with its height covector; every
    entry is read by `errors._ints`, and a bool, a float or a cone that is not
    a list of vectors raises DomainError."""

    generators: tuple[Vec, ...]
    height: Vec

    def __post_init__(self):
        object.__setattr__(self, "height", _ints(self.height, "height entry must be an integer"))
        rows = _ints(self.generators, "generator entry must be an integer", 2)
        object.__setattr__(self, "generators", rows)
        dim = len(self.height)
        if not self.generators:
            raise DomainError("nef cone needs at least one generator")
        for g in self.generators:
            if len(g) != dim:
                raise DomainError(f"generator {g} does not match dimension {dim}")
            if _dot(self.height, g) <= 0:
                raise DomainError(f"generator {g} must have positive height")


@dataclass(frozen=True)
class FibrationProfile:
    name: str
    fiber_degree: int
    rho_eta: int
    neg: int
    maxdef_table: tuple[tuple[int, int], ...]
    brauer_order: int
    num_profiles: int
    lattice_index: int
    has_ff_conic: bool
    nef_cone_eta: NefConeEta
    provenance: str = ""
    transcription_note: str = ""

    def __post_init__(self):
        for name in ("fiber_degree", "rho_eta", "neg", "brauer_order", "num_profiles",
                     "lattice_index"):
            object.__setattr__(self, name, _index(getattr(self, name), name))
        object.__setattr__(self, "maxdef_table", _ints(
            self.maxdef_table, "maxdef table entry must be an integer", 2))
        if any(len(row) != 2 for row in self.maxdef_table):
            raise DomainError("maxdef table rows must be (height, value) pairs")
        if not isinstance(self.nef_cone_eta, NefConeEta):
            raise DomainError(f"nef_cone_eta must be a NefConeEta, got {self.nef_cone_eta!r}")
        if not (1 <= self.fiber_degree <= 8):
            raise DomainError(f"fiber degree {self.fiber_degree} outside 1..8")
        if self.rho_eta < 1:
            raise DomainError("rho_eta must be positive")
        if len(self.nef_cone_eta.height) != self.rho_eta:
            raise DomainError("nef cone dimension does not match rho_eta")
        for d, v in self.maxdef_table:
            if d >= 0:
                raise DomainError(f"maxdef key {d} must be negative")
            if d < self.neg:
                raise DomainError(f"maxdef key {d} below neg = {self.neg}")
            if v < 0:
                raise DomainError(f"maxdef value {v} must be >= 0")
        for positive in ("brauer_order", "num_profiles", "lattice_index"):
            if getattr(self, positive) < 1:
                raise DomainError(f"{positive} must be >= 1")

    @property
    def maxdef(self) -> dict[int, int]:
        return dict(self.maxdef_table)


def _int_rows(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(map(_json_int, row)) for row in rows)


def _nef_from_dict(nef) -> NefConeEta:
    get = partial(_json_field, "nef cone", nef)
    return NefConeEta(
        generators=get("generators", _int_rows),
        height=get("height", lambda h: tuple(map(_json_int, h))),
    )


def _height_key(k: str) -> int:
    """A maxdef_table key: an integer in canonical form, so that no two keys
    name one height ("-01", " -1 " and "-1_0" are refused), within int64."""
    if str(int(k)) != k:
        raise ValueError(f"key {k!r} is not a canonical integer")
    return _json_int(int(k))


def _profile_from_dict(data: dict) -> FibrationProfile:
    with _json_document("profile", data) as get:
        return FibrationProfile(
            name=get("name", _json_str),
            fiber_degree=get("fiber_degree", _json_int),
            rho_eta=get("rho_eta", _json_int),
            neg=get("neg", _json_int),
            maxdef_table=get(
                "maxdef_table",
                lambda t: tuple(sorted((_height_key(k), _json_int(v)) for k, v in t.items())),
            ),
            brauer_order=get("brauer_order", _json_int),
            num_profiles=get("num_profiles", _json_int),
            lattice_index=get("lattice_index", _json_int),
            has_ff_conic=get("has_ff_conic", _json_bool),
            nef_cone_eta=get("nef_cone_eta", _nef_from_dict),
            provenance=get("provenance", _json_str, ""),
            transcription_note=get("transcription_note", _json_str, ""),
        )


def profile_to_dict(p: FibrationProfile) -> dict:
    out = {
        "name": p.name,
        "fiber_degree": p.fiber_degree,
        "rho_eta": p.rho_eta,
        "neg": p.neg,
        "maxdef_table": {str(d): v for d, v in p.maxdef_table},
        "brauer_order": p.brauer_order,
        "num_profiles": p.num_profiles,
        "lattice_index": p.lattice_index,
        "has_ff_conic": p.has_ff_conic,
        "nef_cone_eta": {
            "generators": [list(g) for g in p.nef_cone_eta.generators],
            "height": list(p.nef_cone_eta.height),
        },
        "provenance": p.provenance,
    }
    if p.transcription_note:
        out["transcription_note"] = p.transcription_note
    return out


def list_shipped_profiles() -> list[str]:
    pkg = resources.files("delpezzo") / "profiles"
    return sorted(
        entry.name[: -len(".json")]
        for entry in pkg.iterdir()
        if entry.name.endswith(".json")
    )


def load_profile(source) -> FibrationProfile:
    """Load a profile from a shipped name (no path separator) or a JSON path."""
    s = str(source)
    path = Path(s)
    if "/" not in s and not s.endswith(".json"):
        path = resources.files("delpezzo") / "profiles" / f"{s}.json"
        if not path.is_file():
            raise DomainError(
                f"unknown shipped profile {s!r}; have {list_shipped_profiles()}"
            )
    return _profile_from_dict(_read_json("profile", path))


EMPTY_TABLE_NOTE = "maxdef clamped to 0: no negative-height section data"


def maxdef_of_x(p: FibrationProfile) -> int:
    """Largest table value; 0 for an empty table (defined clamp)."""
    return max((v for _, v in p.maxdef_table), default=0)


def non_dominant_threshold(p: FibrationProfile) -> int:
    """sup{-2 neg - 1, 1}: at or above this height, above-expectation
    deformation forces the swept locus into the large-a dictionary."""
    return max(-2 * p.neg - 1, 1)


def maxdef_height_bound(p: FibrationProfile, d: int, n: int) -> int:
    """Minimal height d + 3n - maxdef(d) of a broken curve whose section core
    has height d and which passes through n general points."""
    d, n = _index(d, "height d"), _index(n, "point count n")
    table = p.maxdef
    if d not in table:
        raise DomainError(f"height {d} has no section data in the profile table")
    if n < table[d]:
        raise DomainError(
            f"point count {n} below maxdef({d}) = {table[d]}; hypothesis fails"
        )
    return d + 3 * n - table[d]


def q_of_x(p: FibrationProfile) -> int:
    """Sup of the six explicit height expressions controlling movable
    bend-and-break."""
    neg = p.neg
    md = maxdef_of_x(p)
    pos = max(0, -neg)
    return max(
        3,
        -2 * neg - 5,
        -neg + 3,
        2 * md - 5 * neg - 5,
        2 * md - neg - 3,
        2 * md + 2 + 2 * pos,
    )


class MbbSource(Enum):
    IMPROVED_LEMMA = "ImprovedLemma"
    Q_FORMULA = "QFormula"


def mbb_bound(p: FibrationProfile) -> tuple[int, MbbSource]:
    """Bound above which dominant section families break into two free pieces.

    The improved constant 3 applies when every table entry satisfies
    maxdef(d) - d <= 2 and the generic fiber carries no conic over the
    function field; otherwise fall back to the Q formula.
    """
    if not p.has_ff_conic and all(v - d <= 2 for d, v in p.maxdef_table):
        return 3, MbbSource.IMPROVED_LEMMA
    return q_of_x(p), MbbSource.Q_FORMULA


@dataclass(frozen=True)
class ThresholdReport:
    """Point-insertion and height thresholds for enumerative counts."""

    n_even: int
    n_odd: int
    n_balanced: int
    a_balanced: int
    q: int
    maxdef: int
    notes: tuple[str, ...] = field(default=())


def gw_thresholds(p: FibrationProfile) -> ThresholdReport:
    """Evaluate the even/odd point-count thresholds and the balanced
    normal-bundle thresholds n >= ceil((Q+2)/2), a >= ceil((Q+8)/2).

    n_odd is clamped to a minimum of 1: zero point insertions are out of
    scope.  The clamp and the empty-table maxdef convention are noted in the
    report when they fire.
    """
    md = maxdef_of_x(p)
    pos = max(0, -p.neg)
    q = q_of_x(p)
    notes = []
    if not p.maxdef_table:
        notes.append(EMPTY_TABLE_NOTE)
    n_odd_raw = md + pos
    if n_odd_raw < 1:
        notes.append("n_odd clamped to 1")
    return ThresholdReport(
        n_even=md + 2 + pos,
        n_odd=max(1, n_odd_raw),
        n_balanced=-(-(q + 2) // 2),
        a_balanced=-(-(q + 8) // 2),
        q=q,
        maxdef=md,
        notes=tuple(notes),
    )


def same_a_low_height_bound(p: FibrationProfile) -> int:
    """Strict height bound -neg - 1 for the sweeping low family in the
    equal-a-invariant alternative."""
    return -p.neg - 1


# The corner sweep costs cells times dimension set lookups.  On a 2-CPU Xeon
# host, one CPU pinned, the slowest admitted box, {0, 1}^12 with the 924
# corners of its middle layer, takes 0.011-0.021 s and holds 0.2 MB.
CORNER_BUDGET = 2**12


def monotone_corners(oracle, c: int, box) -> list[Vec]:
    """Minimal lattice points v in prod [0..box_i] with oracle(v) >= c, sorted.

    One pass over the box in lexicographic order, keeping the up-set cells
    seen so far: every v - e_i comes before v, so a cell with one of them in
    the set is in the up-set without an oracle call, and any other cell that
    passes the oracle is a corner.  Monotonicity of the oracle is
    spot-checked on seeded random comparable pairs; a violation raises
    DomainError, as does a bound that is not an integer, and a box of more
    than CORNER_BUDGET cells raises CapExceeded, before any oracle call.
    """
    box = _ints(box, "box bound must be an integer")
    if any(b < 0 for b in box):
        raise DomainError(f"box bounds must be >= 0, got {box}")
    cells = math.prod(b + 1 for b in box)
    _check_budget(cells, CORNER_BUDGET,
                  f"a box of {cells} cells is past the corner budget of {CORNER_BUDGET}")
    rng = random.Random(0)
    for _ in range(64):
        v = tuple(rng.randint(0, b) for b in box)
        w = tuple(rng.randint(0, x) for x in v)
        if oracle(w) > oracle(v):
            raise DomainError(
                f"oracle is not monotone: f({w}) > f({v})"
            )
    up: set[Vec] = set()
    corners: list[Vec] = []
    for v in product(*(range(b + 1) for b in box)):
        if any(x and v[:i] + (x - 1,) + v[i + 1:] in up for i, x in enumerate(v)):
            up.add(v)
        elif oracle(v) >= c:
            up.add(v)
            corners.append(v)
    return corners


def threshold_report(p: FibrationProfile) -> dict:
    """All scalar thresholds of a profile in one JSON-ready mapping."""
    gw = gw_thresholds(p)
    bound, source = mbb_bound(p)
    return {
        "profile": p.name,
        "neg": p.neg,
        "maxdef": gw.maxdef,
        "non_dominant_threshold": non_dominant_threshold(p),
        "q": gw.q,
        "mbb_bound": bound,
        "mbb_source": source.value,
        "n_even": gw.n_even,
        "n_odd": gw.n_odd,
        "n_balanced": gw.n_balanced,
        "a_balanced": gw.a_balanced,
        "same_a_low_height_bound": same_a_low_height_bound(p),
        "notes": list(gw.notes),
    }
