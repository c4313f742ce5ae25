"""Sections of Hirzebruch surfaces and singular-fiber combinatorics.

Fiber trees carry only self-intersections, multiplicities, and adjacency.
Blow-ups insert (-1)-components at points or nodes; contractions remove
(-1)-components while avoiding a marked one.  The fiber class relations pin
the multiplicities: s_j m_j + sum of neighbor mults = 0 at every component,
forcing the weighted total class to have square zero.  One whole-tree check
runs on every constructed tree; blow-ups and contractions edit lists in place
and check the relations only where they change.
"""

from __future__ import annotations

import heapq
import operator
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, replace

from .errors import (
    DomainError,
    HeightBelowModel,
    NonIntegralCoefficient,
    NotApplicable,
    NotFound,
    ToolkitError,
    _index,
    _json_document,
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
        # entries are stored as Python ints; numpy's integers convert exactly
        try:
            comps = tuple((operator.index(s), operator.index(m)) for s, m in self.components)
            edges = [(operator.index(i), operator.index(j)) for i, j in self.edges]
            if self.marked is not None:
                object.__setattr__(self, "marked", operator.index(self.marked))
        except (TypeError, ValueError):
            raise DomainError("fiber tree entries must be integers, in pairs") from None
        object.__setattr__(self, "components", comps)
        n = len(comps)
        # faults of the edge list that its neighbour sets cannot show
        seen = set()
        adjacent: list[set[int]] = [set() for _ in range(n)]
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise DomainError(f"bad edge ({i}, {j})")
            e = (min(i, j), max(i, j))
            if e in seen:
                raise DomainError(f"duplicate edge {e}")
            seen.add(e)
            adjacent[i].add(j)
            adjacent[j].add(i)
        if self.marked is not None and not (0 <= self.marked < n):
            raise DomainError(f"marked index {self.marked} out of range")
        _check_tree(comps, adjacent)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        # sorted neighbour tuples, kept outside the fields so that equality
        # and hashing still read components, edges and marked only
        object.__setattr__(self, "_adjacent", tuple(tuple(sorted(a)) for a in adjacent))

    def neighbors(self, i: int) -> list[int]:
        return list(self._adjacent[i])

    def total_square(self) -> int:
        """(sum m_i C_i)^2 from the component data; zero on valid fibers."""
        c = self.components
        return sum(s * m * m for s, m in c) + 2 * sum(c[i][1] * c[j][1] for i, j in self.edges)


def _check_tree(comps, adjacent) -> None:
    """Raise DomainError unless (self_int, mult) pairs and neighbour sets
    form a fiber tree: multiplicities >= 1, neighbours in range and not the
    component itself, listed at both ends, n - 1 edges, connected, and the
    fiber class relation at every component."""
    n = len(comps)
    if n == 0:
        raise DomainError("fiber tree needs at least one component")
    for s, m in comps:
        if m < 1:
            raise DomainError(f"multiplicity {m} must be >= 1")
    for i, nbs in enumerate(adjacent):
        for j in nbs:
            if not (0 <= j < n) or i == j:
                raise DomainError(f"bad edge ({i}, {j})")
            if i not in adjacent[j]:
                raise DomainError(f"edge ({i}, {j}) is missing at component {j}")
    if sum(map(len, adjacent)) != 2 * (n - 1):
        raise DomainError("edge count must be component count minus one")
    reached, frontier = {0}, [0]
    while frontier:
        found = adjacent[frontier.pop()] - reached
        reached |= found
        frontier.extend(found)
    if len(reached) != n:
        raise DomainError("fiber tree is not connected")
    for j in range(n):
        _check_relation(comps, adjacent, j)


def _check_relation(comps, adjacent, j: int) -> None:
    """Raise DomainError unless s_j m_j + the neighbours' multiplicities is 0."""
    s, m = comps[j]
    around = 0
    for b in adjacent[j]:  # a loop: sum() of a generator takes three times as long
        around += comps[b][1]
    if s * m + around != 0:
        raise DomainError(
            f"fiber class relation fails at component {j}: {s}*{m} + {around} != 0"
        )


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
    with _json_document("fiber tree", data) as get:
        return FiberTree(
            components=get(
                "components", lambda c: tuple((_json_int(s), _json_int(m)) for s, m in c)
            ),
            edges=get("edges", lambda es: tuple((_json_int(i), _json_int(j)) for i, j in es)),
            marked=get("marked", lambda m: None if m is None else _json_int(m), None),
        )


def _tree(comps, adjacent, live, marked) -> FiberTree:
    """The tree on the components live of an edit, renumbered in order."""
    pos = {i: k for k, i in enumerate(live)}
    edges = tuple((pos[a], pos[b]) for a in live for b in adjacent[a] if a < b)
    return FiberTree(tuple(comps[i] for i in live), edges, pos.get(marked))


def _blow_up(comps: list, adjacent: list, target) -> tuple[int, ...]:
    """Blow up a valid tree in place, returning the touched components; see
    `blow_up_fiber`.  Only they and the new one are checked: given a valid
    tree, that is the whole-tree check."""
    new = len(comps)
    try:
        touched = (operator.index(target),)
        if not (0 <= touched[0] < new):
            raise DomainError(f"component index {target} out of range")
    except TypeError:
        try:
            i, j = map(operator.index, target)
        except (TypeError, ValueError):
            raise DomainError(f"target {target!r} is neither index nor edge") from None
        touched = (min(i, j), max(i, j))
        if not (0 <= touched[0] < new and touched[1] in adjacent[touched[0]]):
            raise DomainError(f"edge {touched} not present")
    mult = 0
    for b in touched:
        s, m = comps[b]
        comps[b] = (s - 1, m)
        mult += m
        adjacent[b].difference_update(touched)
        adjacent[b].add(new)
    comps.append((-1, mult))
    adjacent.append(set(touched))
    for b in (*touched, new):
        _check_relation(comps, adjacent, b)
    return touched


def blow_up_fiber(t: FiberTree, target) -> FiberTree:
    """Blow up a point of one component (target: index) or the node joining
    two (target: pair of indices).  The new (-1)-component carries the local
    multiplicity; touched components lose 1 from their self-intersection."""
    comps = list(t.components)
    adjacent = [set(a) for a in t._adjacent]
    _blow_up(comps, adjacent, target)
    return _tree(comps, adjacent, range(len(comps)), t.marked)


def verify_second_minus_one(t: FiberTree) -> int:
    """Given a reducible fiber with a multiplicity-1 (-1)-component, return
    the index of a different (-1)-component.

    The existence of the second (-1)-curve is a lemma about blow-up-generated
    fibers; a reducible valid tree without one would falsify it, and raises
    NotFound so the fuzz harness can flag it loudly.
    """
    if len(t.components) < 2:
        raise DomainError("fiber is irreducible; the lemma needs >= 2 components")
    return _second_minus_one(t.components, t._adjacent, t.marked)


def _second_minus_one(comps, adjacent, marked) -> int:
    mult_one = [
        i for i, (s, m) in enumerate(comps) if s == -1 and m == 1
    ]
    if not mult_one:
        raise NotApplicable(
            "no multiplicity-1 (-1)-component; lemma hypothesis not met"
        )
    all_minus_one = [i for i, (s, _) in enumerate(comps) if s == -1]
    witnesses = [i for i in all_minus_one if i != mult_one[0]]
    if not witnesses:
        t = _tree(comps, adjacent, range(len(comps)), marked)
        raise NotFound(
            f"second (-1)-component missing in {fibertree_to_json(t)}; "
            "lemma falsified"
        )
    return witnesses[0]


def contract_keeping_section(t: FiberTree) -> tuple[tuple[int, ...], FiberTree]:
    """Greedily contract (-1)-components of valence <= 2, never the marked
    one, down to the irreducible fiber.  Returns the contracted indices, each
    counted among the components left at its step, and the final tree."""
    if t.marked is None:
        raise DomainError("contraction needs a marked component")
    if t.components[t.marked][1] != 1:
        raise DomainError(
            f"marked component has multiplicity {t.components[t.marked][1]}; "
            "the kept section needs multiplicity 1"
        )
    comps, adjacent = list(t.components), [set(a) for a in t._adjacent]
    steps = _contract(comps, adjacent, t.marked)
    return steps, _tree(comps, adjacent, [t.marked], t.marked)


def _contract(comps: list, adjacent: list, marked: int) -> tuple[int, ...]:
    """Contract a valid tree in place to its marked component, returning the
    steps; see `contract_keeping_section`.  A component turns contractible at
    most once, at the start or rising to -1 at valence <= 2 (valences never
    rise), and is pushed on a heap then, to be dropped if it rises past -1."""
    live = list(range(len(comps)))
    heap = [i for i in live if comps[i][0] == -1 and i != marked and len(adjacent[i]) <= 2]
    steps: list[int] = []
    while len(live) > 1:
        while heap and comps[heap[0]][0] != -1:
            heapq.heappop(heap)
        if not heap:
            raise ToolkitError(
                "no contractible (-1)-component aside from the marked one; "
                f"stuck at {fibertree_to_json(_tree(comps, adjacent, live, marked))}"
            )
        i = heapq.heappop(heap)
        step = bisect_left(live, i)
        steps.append(step)
        live.pop(step)
        nbs = adjacent[i]
        # each neighbour gains 1 in self-intersection, and two are joined
        for b in nbs:
            s, m = comps[b]
            comps[b] = (s + 1, m)
            adjacent[b] |= nbs
            adjacent[b] -= {b, i}
            _check_relation(comps, adjacent, b)
            if s == -2 and b != marked and len(adjacent[b]) <= 2:
                heapq.heappush(heap, b)
    return tuple(steps)


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
# FUZZ_BUDGET blow-ups, trials x depth, however split, since a trial costs
# O(depth log depth).  Cold on one CPU of a 2-CPU Xeon host, one trial of
# depth 32768 takes 0.5-0.8 s and 33 MB, and 32768 trials of depth 1 0.4-0.7 s.
FUZZ_BUDGET = 2**15


def check_fuzz_budget(count: int, depth: int) -> tuple[int, int]:
    """(count, depth) as ints; DomainError unless integers >= 1 fit FUZZ_BUDGET."""
    try:
        count, depth = operator.index(count), operator.index(depth)
    except TypeError:
        raise DomainError(f"count {count!r} and depth {depth!r} must be integers") from None
    if count < 1 or depth < 1:
        raise DomainError("count and depth must be positive")
    if count * depth > FUZZ_BUDGET:
        raise DomainError(
            f"--trials {count} x --depth {depth} is past the fuzz budget: "
            f"trials x depth at most {FUZZ_BUDGET}"
        )
    return count, depth


def fuzz_blow_up_sequences(count: int = 1000, depth: int = 8, seed: int = 0) -> dict:
    """Randomized soundness harness for the fiber-tree calculus.

    Runs `count` random blow-up sequences of length <= depth from the
    irreducible fiber on one component list.  Every blow-up checks the
    relations it changes, and the second-(-1)-component lemma is checked
    whenever its hypothesis holds, on running sets of (-1)-components.  At
    the end the whole tree is checked, a random multiplicity-1 component is
    marked, and the lists are contracted back to the irreducible fiber,
    keeping it and checking the result.  Any falsification raises; the
    report holds counters only.  A budget past `check_fuzz_budget` raises
    DomainError before the first trial.
    """
    count, depth = check_fuzz_budget(count, depth)
    seed = _index(seed, "fuzz seed")
    rng = random.Random(seed)
    second_checks = not_applicable = 0
    max_components = 1
    for _ in range(count):
        comps, adjacent, edges = [(0, 1)], [set()], []
        minus_one, unit_minus_one = set(), set()  # and those of multiplicity 1
        for _ in range(rng.randint(1, depth)):
            if len(comps) > 1 and rng.random() < 0.5:
                target = edges.pop(rng.randrange(len(edges)))
            else:
                target = rng.randrange(len(comps))
            touched = _blow_up(comps, adjacent, target)
            new = len(comps) - 1
            for b in touched:
                insort(edges, (b, new))
            for b in (*touched, new):
                s, m = comps[b]
                (minus_one.add if s == -1 else minus_one.discard)(b)
                (unit_minus_one.add if (s, m) == (-1, 1) else unit_minus_one.discard)(b)
            if unit_minus_one and len(minus_one) < 2:
                _second_minus_one(comps, adjacent, None)  # raises NotFound
            second_checks += bool(unit_minus_one)
            not_applicable += not unit_minus_one
        max_components = max(max_components, len(comps))
        mult_one = [i for i, (_, m) in enumerate(comps) if m == 1]
        marked = mult_one[rng.randrange(len(mult_one))]
        _check_tree(comps, adjacent)
        _contract(comps, adjacent, marked)
        _check_tree([comps[marked]], [adjacent[marked]])  # the one component left
    return {
        "trials": count,
        "depth": depth,
        "seed": seed,
        "second_minus_one_checks": second_checks,
        "hypothesis_not_met": not_applicable,
        "contractions": count,
        "max_components": max_components,
        "all_passed": True,
    }
