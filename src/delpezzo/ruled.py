"""Sections of Hirzebruch surfaces and singular-fiber combinatorics.

Fiber trees carry only self-intersections, multiplicities, and adjacency.
Blow-ups insert (-1)-components at points or nodes; contractions remove
(-1)-components while avoiding a marked one.  Every constructed tree is
validated against the fiber class relations, which pin the multiplicities:
s_j m_j + sum of neighbor mults = 0 at every component, forcing the weighted
total class to have square zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial

from .errors import (
    DomainError,
    HeightBelowModel,
    NonIntegralCoefficient,
    NotApplicable,
    NotFound,
    ToolkitError,
    _json_field,
    _json_int,
)


@dataclass(frozen=True)
class HirzebruchModel:
    """The ruled surface with a rigid section of self-intersection -e."""

    e: int

    def __post_init__(self):
        if self.e < 0:
            raise DomainError(f"Hirzebruch parameter must be >= 0, got {self.e}")


@dataclass(frozen=True)
class SectionClass:
    """The section class C0 + k F.  Effective sections need k >= 0 and moving
    ones k >= e; the height formula itself is total in k."""

    k: int


def section_height(m: HirzebruchModel, s: SectionClass) -> int:
    """Height of C0 + kF against the relative anticanonical class 2C0 + eF:
    (2C0 + eF).(C0 + kF) = -2e + e + 2k = -e + 2k."""
    return -m.e + 2 * s.k


def minimal_moving_height(m: HirzebruchModel) -> int:
    """The minimal moving section C0 + eF has height e."""
    return m.e


@dataclass(frozen=True)
class BreakResult:
    """Coefficients of the two breaking decompositions of a height-q section
    class: rigid route C0 + rigid*F + T and movable route C1 + movable*F.
    The vertical tail T has no formula here; it stays an opaque marker."""

    rigid: int
    movable: int
    residual: str = "T"


def break_section(q: int, e: int) -> BreakResult:
    if e < 0:
        raise DomainError(f"Hirzebruch parameter must be >= 0, got {e}")
    if q < e:
        raise HeightBelowModel(
            f"height {q} lies below the minimal moving height {e}"
        )
    if (q - e) % 2 != 0:
        raise NonIntegralCoefficient(
            f"height {q} and parameter {e} have different parities; "
            "the fiber coefficient (q-e)/2 is not an integer"
        )
    return BreakResult(rigid=(q + e) // 2, movable=(q - e) // 2)


@dataclass(frozen=True)
class FiberTree:
    """A singular fiber: components (self_int, mult), tree adjacency, and an
    optional marked component met by a chosen section."""

    components: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]
    marked: int | None = None

    def __post_init__(self):
        n = len(self.components)
        if n == 0:
            raise DomainError("fiber tree needs at least one component")
        for s, m in self.components:
            if m < 1:
                raise DomainError(f"multiplicity {m} must be >= 1")
        seen = set()
        adjacent: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise DomainError(f"bad edge ({i}, {j})")
            e = (min(i, j), max(i, j))
            if e in seen:
                raise DomainError(f"duplicate edge {e}")
            seen.add(e)
            adjacent[i].append(j)
            adjacent[j].append(i)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        if len(self.edges) != n - 1:
            raise DomainError("edge count must be component count minus one")
        # sorted neighbour tuples, kept outside the fields so that equality
        # and hashing still read components, edges and marked only
        object.__setattr__(self, "_adjacent", tuple(tuple(sorted(a)) for a in adjacent))
        reached = {0}
        frontier = [0]
        while frontier:
            for b in self._adjacent[frontier.pop()]:
                if b not in reached:
                    reached.add(b)
                    frontier.append(b)
        if len(reached) != n:
            raise DomainError("fiber tree is not connected")
        if self.marked is not None and not (0 <= self.marked < n):
            raise DomainError(f"marked index {self.marked} out of range")
        for j in range(n):
            s, m = self.components[j]
            around = self._around(j)
            if s * m + around != 0:
                raise DomainError(
                    f"fiber class relation fails at component {j}: "
                    f"{s}*{m} + {around} != 0"
                )

    def _around(self, j: int) -> int:
        """Sum of the multiplicities of the neighbours of component j."""
        return sum(self.components[b][1] for b in self._adjacent[j])

    def neighbors(self, i: int) -> list[int]:
        return list(self._adjacent[i])

    def total_square(self) -> int:
        """(sum m_i C_i)^2 from the component data; zero on valid fibers."""
        return sum(m * (s * m + self._around(j)) for j, (s, m) in enumerate(self.components))


def irreducible_fiber() -> FiberTree:
    return FiberTree(components=((0, 1),), edges=())


def with_marked(t: FiberTree, index: int) -> FiberTree:
    # replace reruns __post_init__, which checks the index
    return replace(t, marked=index)


def fibertree_to_json(t: FiberTree) -> dict:
    return {
        "components": [[s, m] for s, m in t.components],
        "edges": [[i, j] for i, j in t.edges],
        "marked": t.marked,
    }


def fibertree_from_json(data: dict) -> FiberTree:
    get = partial(_json_field, "fiber tree", data)
    return FiberTree(
        components=get("components", lambda c: tuple((_json_int(s), _json_int(m)) for s, m in c)),
        edges=get("edges", lambda es: tuple((_json_int(i), _json_int(j)) for i, j in es)),
        marked=get("marked", lambda m: None if m is None else _json_int(m), None),
    )


def blow_up_fiber(t: FiberTree, target) -> FiberTree:
    """Blow up a point of one component (target: index) or the node joining
    two (target: edge tuple).  The new (-1)-component carries the local
    multiplicity; touched components lose 1 from their self-intersection."""
    comps = list(t.components)
    edges = list(t.edges)
    new = len(comps)
    if isinstance(target, int):
        if not (0 <= target < new):
            raise DomainError(f"component index {target} out of range")
        s, m = comps[target]
        comps[target] = (s - 1, m)
        comps.append((-1, m))
        edges.append((target, new))
    else:
        try:
            i, j = target
        except (TypeError, ValueError):
            raise DomainError(f"target {target!r} is neither index nor edge") from None
        e = (min(i, j), max(i, j))
        if e not in t.edges:
            raise DomainError(f"edge {e} not present")
        edges.remove(e)
        si, mi = comps[e[0]]
        sj, mj = comps[e[1]]
        comps[e[0]] = (si - 1, mi)
        comps[e[1]] = (sj - 1, mj)
        comps.append((-1, mi + mj))
        edges.append((e[0], new))
        edges.append((e[1], new))
    return FiberTree(tuple(comps), tuple(edges), t.marked)


def verify_second_minus_one(t: FiberTree) -> int:
    """Given a reducible fiber with a multiplicity-1 (-1)-component, return
    the index of a different (-1)-component.

    The existence of the second (-1)-curve is a lemma about blow-up-generated
    fibers; a reducible valid tree without one would falsify it, and raises
    NotFound so the fuzz harness can flag it loudly.
    """
    if len(t.components) < 2:
        raise DomainError("fiber is irreducible; the lemma needs >= 2 components")
    mult_one = [
        i for i, (s, m) in enumerate(t.components) if s == -1 and m == 1
    ]
    if not mult_one:
        raise NotApplicable(
            "no multiplicity-1 (-1)-component; lemma hypothesis not met"
        )
    all_minus_one = [i for i, (s, _) in enumerate(t.components) if s == -1]
    witnesses = [i for i in all_minus_one if i != mult_one[0]]
    if not witnesses:
        raise NotFound(
            f"second (-1)-component missing in {fibertree_to_json(t)}; "
            "lemma falsified"
        )
    return witnesses[0]


def _contract_once(t: FiberTree, i: int) -> FiberTree:
    nbs = t.neighbors(i)
    if t.components[i][0] != -1:
        raise DomainError(f"component {i} has self-intersection != -1")
    if len(nbs) > 2:
        raise DomainError(
            f"component {i} has valence {len(nbs)}; outside the "
            "blow-up-generated family"
        )
    comps = list(t.components)
    for b in nbs:
        s, m = comps[b]
        comps[b] = (s + 1, m)
    edges = [e for e in t.edges if i not in e]
    if len(nbs) == 2:
        a, b = nbs
        edges.append((min(a, b), max(a, b)))

    def shift(x: int) -> int:
        return x - 1 if x > i else x

    comps.pop(i)
    new_edges = tuple((shift(a), shift(b)) for a, b in edges)
    marked = None if t.marked is None else shift(t.marked)
    return FiberTree(tuple(comps), new_edges, marked)


def contract_keeping_section(t: FiberTree) -> tuple[tuple[int, ...], FiberTree]:
    """Greedily contract (-1)-components, never the marked one, down to the
    irreducible fiber.  Returns the sequence of contracted indices (each valid
    at its own step) and the final tree.
    """
    if t.marked is None:
        raise DomainError("contraction needs a marked component")
    if t.components[t.marked][1] != 1:
        raise DomainError(
            f"marked component has multiplicity {t.components[t.marked][1]}; "
            "the kept section needs multiplicity 1"
        )
    steps: list[int] = []
    while len(t.components) > 1:
        candidates = [
            i
            for i, (s, _) in enumerate(t.components)
            if s == -1 and i != t.marked and len(t.neighbors(i)) <= 2
        ]
        if not candidates:
            raise ToolkitError(
                "no contractible (-1)-component aside from the marked one; "
                f"stuck at {fibertree_to_json(t)}"
            )
        i = candidates[0]
        steps.append(i)
        t = _contract_once(t, i)
    if t.components != ((0, 1),):
        raise ToolkitError(f"contraction ended at {t.components}, not the irreducible fiber")
    return tuple(steps), t


@dataclass(frozen=True)
class NormalBundleType:
    """Splitting type O(a) + O(b) of a section's normal bundle, a <= b;
    a + b is the section height."""

    a: int
    b: int

    def __post_init__(self):
        if self.a > self.b:
            raise DomainError(f"normal bundle type needs a <= b, got ({self.a}, {self.b})")

    @property
    def height(self) -> int:
        return self.a + self.b


def glue_normal_bundle(nb: NormalBundleType, vertical_degree: int) -> NormalBundleType:
    """Splitting type after smoothing the union with a vertical cubic or
    quartic through the section.  Quartics are assumed generic (restricted
    tangent bundle O(2) + O(2)); the table is undefined past near-balanced."""
    if vertical_degree not in (3, 4):
        raise DomainError(f"vertical degree must be 3 or 4, got {vertical_degree}")
    gap = nb.b - nb.a
    if gap >= 2:
        raise DomainError(
            f"gluing rules cover balanced and near-balanced types only; "
            f"gap {gap} is out of range"
        )
    a = nb.a
    if gap == 0:
        out = (a + 1, a + 2) if vertical_degree == 3 else (a + 2, a + 2)
    else:
        out = (a + 2, a + 2) if vertical_degree == 3 else (a + 2, a + 3)
    result = NormalBundleType(*out)
    assert result.height == nb.height + vertical_degree
    return result


def reachable_balanced_heights(
    start: NormalBundleType, h_max: int
) -> frozenset[tuple[int, NormalBundleType]]:
    """BFS closure of the gluing rules from a (near-)balanced start, keeping
    heights <= h_max; includes the start itself.

    Checks on the way out that every height from start+6 to h_max carries the
    parity-appropriate balanced or near-balanced type; a gap would contradict
    the stabilization claim and raises ToolkitError.
    """
    if start.b - start.a > 1:
        raise DomainError("start must be balanced or near-balanced")
    if h_max < start.height:
        return frozenset()
    seen = {(start.height, start)}
    frontier = [start]
    while frontier:
        nxt = []
        for nb in frontier:
            for deg in (3, 4):
                if nb.height + deg > h_max:
                    continue
                out = glue_normal_bundle(nb, deg)
                key = (out.height, out)
                if key not in seen:
                    seen.add(key)
                    nxt.append(out)
        frontier = nxt
    for h in range(start.height + 6, h_max + 1):
        want = (
            NormalBundleType(h // 2, h // 2)
            if h % 2 == 0
            else NormalBundleType((h - 1) // 2, (h + 1) // 2)
        )
        if (h, want) not in seen:
            raise ToolkitError(
                f"height {h} lacks the balanced type {want}; "
                "stabilization claim falsified"
            )
    return frozenset(seen)


# Work budget of the fuzz harness, checked before any trial: at most
# FUZZ_BUDGET blow-ups (trials x depth) and FUZZ_MAX_DEPTH blow-ups per trial.
# Every blow-up revalidates the whole tree, so a trial costs more than its
# depth times a constant, and the depth bound keeps one trial short too; on a
# 2-CPU Xeon host the slowest corner, 512 trials of depth 64, takes about 4 s.
FUZZ_BUDGET = 2**15
FUZZ_MAX_DEPTH = 64


def check_fuzz_budget(count: int, depth: int) -> None:
    """Raise DomainError unless count trials of depth blow-ups fit the
    budget: count, depth >= 1, count * depth <= FUZZ_BUDGET and
    depth <= FUZZ_MAX_DEPTH."""
    if count < 1 or depth < 1:
        raise DomainError("count and depth must be positive")
    if count * depth > FUZZ_BUDGET or depth > FUZZ_MAX_DEPTH:
        raise DomainError(
            f"--trials {count} x --depth {depth} is past the fuzz budget: "
            f"trials x depth at most {FUZZ_BUDGET}, depth at most {FUZZ_MAX_DEPTH}"
        )


def fuzz_blow_up_sequences(count: int = 1000, depth: int = 8, seed: int = 0) -> dict:
    """Randomized soundness harness for the fiber-tree calculus.

    Runs `count` random blow-up sequences of length <= depth from the
    irreducible fiber.  After every blow-up the tree invariants are revalidated
    and the second-(-1)-component lemma is checked whenever its hypothesis
    holds; at the end a random multiplicity-1 component is marked and the tree
    is contracted back, asserting termination at the irreducible fiber with
    the marked component kept.  Any falsification raises; the report holds
    counters only.  A budget past `check_fuzz_budget` raises DomainError
    before the first trial.
    """
    check_fuzz_budget(count, depth)
    rng = random.Random(seed)
    second_checks = 0
    not_applicable = 0
    contractions = 0
    max_components = 1
    for _ in range(count):
        t = irreducible_fiber()
        for _ in range(rng.randint(1, depth)):
            if t.edges and rng.random() < 0.5:
                target = t.edges[rng.randrange(len(t.edges))]
            else:
                target = rng.randrange(len(t.components))
            t = blow_up_fiber(t, target)
            if t.total_square() != 0:
                raise ToolkitError("total fiber class square nonzero")
            try:
                w = verify_second_minus_one(t)
                second_checks += 1
                if t.components[w][0] != -1:
                    raise ToolkitError("witness is not a (-1)-component")
            except NotApplicable:
                not_applicable += 1
        max_components = max(max_components, len(t.components))
        mult_one = [i for i, (_, m) in enumerate(t.components) if m == 1]
        marked = mult_one[rng.randrange(len(mult_one))]
        steps, final = contract_keeping_section(with_marked(t, marked))
        if len(steps) != len(t.components) - 1:
            raise ToolkitError("contraction sequence has wrong length")
        contractions += 1
    return {
        "trials": count,
        "depth": depth,
        "seed": seed,
        "second_minus_one_checks": second_checks,
        "hypothesis_not_met": not_applicable,
        "contractions": contractions,
        "max_components": max_components,
        "all_passed": True,
    }
