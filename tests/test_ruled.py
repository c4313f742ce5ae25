import json
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo import (
    BreakResult,
    CapExceeded,
    DomainError,
    FiberTree,
    HeightBelowModel,
    HirzebruchModel,
    NonIntegralCoefficient,
    NormalBundleType,
    NotApplicable,
    SectionClass,
    ToolkitError,
    blow_up_fiber,
    break_section,
    contract_keeping_section,
    fibertree_from_json,
    fibertree_to_json,
    fuzz_blow_up_sequences,
    glue_normal_bundle,
    irreducible_fiber,
    minimal_moving_height,
    reachable_balanced_heights,
    section_height,
    verify_second_minus_one,
    with_marked,
)
from delpezzo import ruled
from delpezzo.ruled import FUZZ_BUDGET, check_fuzz_budget


def test_section_height():
    assert section_height(HirzebruchModel(1), SectionClass(2)) == 3
    assert section_height(HirzebruchModel(0), SectionClass(0)) == 0
    assert section_height(HirzebruchModel(4), SectionClass(0)) == -4


@pytest.mark.parametrize("e", range(7))
def test_minimal_moving_height(e):
    assert minimal_moving_height(HirzebruchModel(e)) == e
    assert section_height(HirzebruchModel(e), SectionClass(e)) == e


def test_break_section():
    assert break_section(5, 1) == BreakResult(rigid=3, movable=2, residual="T")
    assert break_section(6, 0) == BreakResult(3, 3)
    assert break_section(3, 3) == BreakResult(3, 0)
    with pytest.raises(NonIntegralCoefficient):
        break_section(4, 1)
    with pytest.raises(HeightBelowModel):
        break_section(0, 1)
    with pytest.raises(DomainError):
        break_section(3, -1)


@given(st.integers(0, 40), st.integers(0, 40))
def test_break_section_reassembles(e, k):
    q = e + 2 * k  # heights of actual sections C0 + (e+k')F
    r = break_section(q, e)
    assert r.rigid + r.movable == q
    assert r.rigid - r.movable == e
    assert r.residual == "T"


def test_fiber_tree_validation():
    with pytest.raises(DomainError, match="at least one component"):
        FiberTree(components=(), edges=())
    with pytest.raises(DomainError, match="edge count"):
        FiberTree(components=((0, 1), (0, 1)), edges=())  # disconnected
    with pytest.raises(DomainError, match="fiber tree is not connected"):
        # n - 1 edges, but a cycle leaves the last component apart
        FiberTree(components=((-2, 1),) * 3 + ((0, 1),), edges=((0, 1), (1, 2), (0, 2)))
    with pytest.raises(DomainError, match="fiber class relation fails"):
        FiberTree(components=((0, 1), (-1, 1)), edges=((0, 1),))
    with pytest.raises(DomainError, match="bad edge"):
        FiberTree(components=((-1, 1), (-1, 1)), edges=((0, 0),))  # self loop
    with pytest.raises(DomainError, match=r"duplicate edge \(0, 1\)"):
        FiberTree(components=((-1, 1),) * 3, edges=((0, 1), (1, 0)))
    with pytest.raises(DomainError, match="multiplicity 0"):
        FiberTree(components=((0, 0),), edges=())
    t = FiberTree(components=((-1, 1), (-1, 1)), edges=((1, 0),))
    assert t.edges == ((0, 1),)  # normalized
    assert t.total_square() == 0
    for index in (-1, 2):
        with pytest.raises(DomainError, match=f"marked index {index} out of range"):
            FiberTree(components=t.components, edges=t.edges, marked=index)
        with pytest.raises(DomainError, match=f"marked index {index} out of range"):
            with_marked(t, index)
    for target in ("x", (5,), (0, 1.0), 1.0, (0, 1, 1)):
        with pytest.raises(DomainError, match="is neither index nor edge"):
            blow_up_fiber(t, target)
    # numpy integers read as Python ints, for a component as for an edge
    assert blow_up_fiber(t, np.int64(0)) == blow_up_fiber(t, 0)
    assert blow_up_fiber(t, (np.int64(0), np.int64(1))) == blow_up_fiber(t, (0, 1))
    # a negative index names no component: it must not wrap round to the last
    for edge, shown in (((-1, 0), "(-1, 0)"), ((0, -1), "(-1, 0)"), ((0, 2), "(0, 2)")):
        with pytest.raises(DomainError, match=re.escape(f"edge {shown} not present")):
            blow_up_fiber(t, edge)
    with pytest.raises(DomainError, match="component index -1 out of range"):
        blow_up_fiber(t, -1)
    with pytest.raises(DomainError, match="Hirzebruch parameter must be >= 0, got -1"):
        HirzebruchModel(-1)


def test_blow_up_point_and_edge():
    t1 = blow_up_fiber(irreducible_fiber(), 0)
    assert t1.components == ((-1, 1), (-1, 1))
    assert t1.edges == ((0, 1),)
    t2 = blow_up_fiber(t1, (0, 1))
    assert t2.components == ((-2, 1), (-2, 1), (-1, 2))
    assert t2.edges == ((0, 2), (1, 2))
    with pytest.raises(DomainError):
        blow_up_fiber(t2, (0, 1))  # edge no longer present
    with pytest.raises(DomainError):
        blow_up_fiber(t2, 7)


def _blow_up_one_tree_a_step(t, target):
    """The reference route: the edge-list edit, building and checking the
    whole tree through the public constructor."""
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


@pytest.mark.parametrize("seed", range(4))
def test_blow_up_matches_a_tree_a_step(seed):
    rng = random.Random(seed)
    for trial in range(12):
        t = irreducible_fiber()
        if trial % 3 == 0:
            t = with_marked(t, 0)
        for _ in range(rng.randint(1, 64)):
            n = len(t.components)
            bad = [n, n + 3, -1, (0, n), (-1, 0), (n - 1, n - 1), "x", (5,), (0, 1, 2)]
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
            bad += [p for p in pairs if tuple(sorted(p)) not in t.edges]
            for target in bad:
                with pytest.raises(DomainError) as got:
                    blow_up_fiber(t, target)
                with pytest.raises(DomainError) as want:
                    _blow_up_one_tree_a_step(t, target)
                assert str(got.value) == str(want.value)
            targets = list(range(n)) + list(t.edges)
            target = targets[rng.randrange(len(targets))]
            if rng.random() < 0.5 and isinstance(target, tuple):
                target = target[::-1]
            want = _blow_up_one_tree_a_step(t, target)
            t = blow_up_fiber(t, target)
            assert t == want


def test_second_minus_one():
    t1 = blow_up_fiber(irreducible_fiber(), 0)
    w = verify_second_minus_one(t1)
    assert w == 1
    t2 = blow_up_fiber(t1, (0, 1))
    with pytest.raises(NotApplicable):
        verify_second_minus_one(t2)  # the only (-1)-component has mult 2
    with pytest.raises(DomainError):
        verify_second_minus_one(irreducible_fiber())


def test_contract_keeping_section():
    t1 = blow_up_fiber(irreducible_fiber(), 0)
    steps, final = contract_keeping_section(with_marked(t1, 0))
    assert steps == (1,)
    assert final.components == ((0, 1),) and final.marked == 0
    t3 = blow_up_fiber(blow_up_fiber(t1, (0, 1)), 2)
    steps, final = contract_keeping_section(with_marked(t3, 1))
    assert len(steps) == 3
    assert final.components == ((0, 1),)
    with pytest.raises(DomainError):
        contract_keeping_section(t3)  # unmarked
    with pytest.raises(DomainError):
        contract_keeping_section(with_marked(t3, 2))  # multiplicity 2


def _contract_one_tree_a_step(t):
    """The reference route: contract the same component as
    `contract_keeping_section`, one step at a time, building and checking a
    renumbered tree through the public constructor at every step."""
    steps = []
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
        nbs = t.neighbors(i)
        comps = [(s + 1, m) if b in nbs else (s, m) for b, (s, m) in enumerate(t.components)]
        edges = [e for e in t.edges if i not in e] + ([tuple(nbs)] if len(nbs) == 2 else [])

        def shift(x):
            return x - 1 if x > i else x

        del comps[i]
        t = FiberTree(
            tuple(comps), tuple((shift(a), shift(b)) for a, b in edges), shift(t.marked)
        )
    return tuple(steps), t


def _outcome(contract, t):
    try:
        return contract(t)
    except ToolkitError as ex:
        return type(ex), str(ex)


# a (-1) centre of multiplicity 3 with three (-3) leaves: no contractible
# component; and the same star with one leaf blown up once more, which
# contracts back to it unless the new component is the marked one
_STAR = FiberTree(((-1, 3), (-3, 1), (-3, 1), (-3, 1)), ((0, 1), (0, 2), (0, 3)))


def test_contraction_matches_a_tree_a_step():
    rng = random.Random(17)
    trees = [_STAR, blow_up_fiber(_STAR, 1)]
    for _ in range(150):
        t = irreducible_fiber()
        for _ in range(rng.randint(1, 24)):
            targets = list(range(len(t.components))) + list(t.edges)
            t = blow_up_fiber(t, targets[rng.randrange(len(targets))])
        trees.append(t)
    stuck = 0
    for t in trees:
        for marked, (_, m) in enumerate(t.components):
            if m != 1:
                continue
            kept = with_marked(t, marked)
            want = _outcome(_contract_one_tree_a_step, kept)
            assert _outcome(contract_keeping_section, kept) == want
            stuck += want[0] is ToolkitError
    # the star, a leaf marked, is stuck at once; the blown-up star is stuck
    # at the star when a leaf is marked and at itself when its new one is
    assert stuck == 3 + 4
    star = fibertree_to_json(with_marked(_STAR, 2))
    with pytest.raises(ToolkitError, match="stuck at " + re.escape(str(star)) + "$"):
        contract_keeping_section(with_marked(blow_up_fiber(_STAR, 1), 2))


def _contract_by_scan(t):
    """The reference route for the candidate heap: the same edits, with the
    first contractible component found by scanning the live list from its
    start at every step."""
    comps = list(t.components)
    adjacent = [set(a) for a in t._adjacent]
    live = list(range(len(comps)))
    steps = []
    while len(live) > 1:
        for step, i in enumerate(live):
            if comps[i][0] == -1 and i != t.marked and len(adjacent[i]) <= 2:
                break
        else:
            raise ToolkitError(
                "no contractible (-1)-component aside from the marked one; "
                f"stuck at {fibertree_to_json(ruled._tree(comps, adjacent, live, t.marked))}"
            )
        steps.append(step)
        live.pop(step)
        nbs = adjacent[i]
        for b in nbs:
            s, m = comps[b]
            comps[b] = (s + 1, m)
            adjacent[b] = (adjacent[b] - {i}) | (nbs - {b})
    return tuple(steps), ruled._tree(comps, adjacent, live, t.marked)


def _blown_up_lists(rng, depth):
    """Component and neighbour lists of a random blow-up sequence, as the
    fuzz harness holds them."""
    comps, adjacent = [(0, 1)], [set()]
    for _ in range(depth):
        edges = [(a, b) for a, nbs in enumerate(adjacent) for b in nbs if a < b]
        targets = list(range(len(comps))) + edges
        ruled._blow_up(comps, adjacent, targets[rng.randrange(len(targets))])
    return comps, adjacent


def test_contraction_matches_the_scan():
    rng = random.Random(29)
    trees = [_STAR, blow_up_fiber(_STAR, 1)]
    for _ in range(60):
        comps, adjacent = _blown_up_lists(rng, rng.randint(1, 299))  # up to 300 components
        trees.append(ruled._tree(comps, adjacent, range(len(comps)), None))
    widest = stuck = 0
    for k, t in enumerate(trees):
        mult_one = [i for i, (_, m) in enumerate(t.components) if m == 1]
        widest = max(widest, len(t.components))
        # every mark on the two stars, and three on each seeded tree
        for marked in mult_one if k < 2 else {mult_one[0], mult_one[-1], rng.choice(mult_one)}:
            kept = with_marked(t, marked)
            want = _outcome(_contract_by_scan, kept)
            assert _outcome(contract_keeping_section, kept) == want
            stuck += want[0] is ToolkitError
    # only the stars are stuck, as in test_contraction_matches_a_tree_a_step
    assert widest > 250 and stuck == 3 + 4


def _corrupt(fault, comps, adjacent):
    """Break one invariant of a valid tree; return the message it must raise."""
    n = len(comps)
    leaf = next(i for i in range(n) if len(adjacent[i]) == 1)
    # two components, neither the leaf, that are not joined
    a, b = next((a, b) for a in range(n) for b in range(a + 1, n)
                if leaf not in (a, b) and b not in adjacent[a])
    k = n // 2
    s, m = comps[k]
    if fault == "multiplicity":
        comps[k] = (s, 0)
        return "multiplicity 0 must be >= 1"
    if fault == "self-loop":
        adjacent[k].add(k)
        return re.escape(f"bad edge ({k}, {k})")
    if fault == "out of range":
        adjacent[k].add(n)
        return re.escape(f"bad edge ({k}, {n})")
    if fault == "one end":
        adjacent[a].add(b)
        return re.escape(f"edge ({a}, {b}) is missing at component {b}")
    if fault == "edge count":
        adjacent[a].add(b)
        adjacent[b].add(a)
        return "edge count must be component count minus one"
    if fault == "connected":  # the leaf cut off, a cycle closed instead
        (p,) = adjacent[leaf]
        adjacent[leaf].clear()
        adjacent[p].discard(leaf)
        adjacent[a].add(b)
        adjacent[b].add(a)
        return "fiber tree is not connected"
    comps[k] = (s - 1, m)
    return f"fiber class relation fails at component {k}:"


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "fault",
    ["multiplicity", "self-loop", "out of range", "one end", "edge count", "connected",
     "relation"],
)
def test_check_tree_catches_each_fault(fault, seed):
    comps, adjacent = _blown_up_lists(random.Random(seed), 24)
    ruled._check_tree(comps, adjacent)
    message = _corrupt(fault, comps, adjacent)
    with pytest.raises(DomainError, match=message):
        ruled._check_tree(comps, adjacent)
    edges = sorted({(min(a, b), max(a, b)) for a, nbs in enumerate(adjacent) for b in nbs})
    with pytest.raises(DomainError):
        FiberTree(tuple(comps), tuple(edges))


def test_contraction_builds_one_tree(monkeypatch):
    rng = random.Random(5)
    t = irreducible_fiber()
    for _ in range(40):
        t = blow_up_fiber(t, rng.choice(list(range(len(t.components))) + list(t.edges)))
    t = with_marked(t, 0)
    built = []
    check = FiberTree.__post_init__
    monkeypatch.setattr(FiberTree, "__post_init__", lambda self: built.append(check(self)))
    steps, final = contract_keeping_section(t)
    assert len(steps) == 40 and final.components == ((0, 1),)
    assert len(built) == 1


def test_fiber_tree_entries_are_integers():
    for comps, edges, marked in (
        (((0, 1.5),), (), None),
        (((0, 1),), (), 0.0),
        (((-1, 1), (-1, 1)), ((0, 1.0),), None),
        (((0,),), (), None),
        (((0, 1, 2),), (), None),
        ((0, 1), (), None),
        (((-1, 1), (-1, 1)), ((0, 1, 1),), None),
        (((-1, 1), (-1, 1)), (0, 1), None),
        (None, (), None),
        ((("0", "1"),), (), None),
    ):
        with pytest.raises(DomainError, match="fiber tree entries must be integers, in pairs"):
            FiberTree(comps, edges, marked)
    t = blow_up_fiber(blow_up_fiber(irreducible_fiber(), 0), (0, 1))
    t = with_marked(t, 0)
    twin = FiberTree(
        tuple((np.int64(s), np.int8(m)) for s, m in t.components),
        tuple((np.int32(i), np.uint16(j)) for i, j in t.edges),
        np.int64(0),
    )
    assert twin == t and hash(twin) == hash(t)
    assert fibertree_to_json(twin) == fibertree_to_json(t)
    entries = [x for pair in twin.components + twin.edges for x in pair] + [twin.marked]
    assert {type(x) for x in entries} == {int}
    assert blow_up_fiber(twin, 1) == blow_up_fiber(t, 1)


def test_fibertree_json_round_trip():
    t = blow_up_fiber(blow_up_fiber(irreducible_fiber(), 0), (0, 1))
    t = with_marked(t, 0)
    data = fibertree_to_json(t)
    assert data["components"] == [[-2, 1], [-2, 1], [-1, 2]]
    assert data["marked"] == 0
    assert fibertree_from_json(data) == t
    with pytest.raises(DomainError, match="fiber tree JSON field 'edges': missing"):
        fibertree_from_json({"components": [[0, 1]]})
    for bad, where in (
        ([data], "must be an object"),
        (dict(data, components=[[0]]), "field 'components':"),
        (dict(data, marked="x"), "field 'marked':"),
        (dict(data, marked=float("inf")), "field 'marked':"),
        (dict(data, marked=0.0), "field 'marked':"),
        (dict(data, components=[[-2, 1], [-2, True], [-1, 2]]), "field 'components':"),
        (dict(data, edges=[[0, 2.5], [1, 2]]), "field 'edges':"),
        (dict(data, components=[[-2, 1], [-2, 1], [-1, 2**63]]), "field 'components':"),
        (dict(data, marked=-(2**63) - 1), "field 'marked':"),
    ):
        with pytest.raises(DomainError, match=f"fiber tree JSON {where}"):
            fibertree_from_json(bad)


def test_glue_normal_bundle_table():
    a = 3
    assert glue_normal_bundle(NormalBundleType(a, a), 3) == NormalBundleType(a + 1, a + 2)
    assert glue_normal_bundle(NormalBundleType(a, a), 4) == NormalBundleType(a + 2, a + 2)
    assert glue_normal_bundle(NormalBundleType(a, a + 1), 3) == NormalBundleType(a + 2, a + 2)
    assert glue_normal_bundle(NormalBundleType(a, a + 1), 4) == NormalBundleType(a + 2, a + 3)
    with pytest.raises(DomainError):
        glue_normal_bundle(NormalBundleType(0, 2), 3)
    with pytest.raises(DomainError):
        glue_normal_bundle(NormalBundleType(0, 0), 5)
    with pytest.raises(DomainError):
        NormalBundleType(2, 1)


@given(st.integers(-3, 9), st.integers(0, 1), st.integers(3, 4))
def test_glue_adds_vertical_degree(a, gap, deg):
    nb = NormalBundleType(a, a + gap)
    out = glue_normal_bundle(nb, deg)
    assert out.height == nb.height + deg
    assert out.b - out.a <= 1


def test_reachable_balanced_heights():
    reach = reachable_balanced_heights(NormalBundleType(3, 3), 14)
    heights = sorted({h for h, _ in reach})
    assert heights == [6, 9, 10, 12, 13, 14]
    assert (6, NormalBundleType(3, 3)) in reach
    types = {h: nb for h, nb in reach}
    assert types[12] == NormalBundleType(6, 6)
    assert types[13] == NormalBundleType(6, 7)
    assert types[14] == NormalBundleType(7, 7)
    assert reachable_balanced_heights(NormalBundleType(3, 3), 5) == frozenset()
    assert reachable_balanced_heights(NormalBundleType(2, 3), 5) == frozenset(
        {(5, NormalBundleType(2, 3))}
    )
    with pytest.raises(DomainError):
        reachable_balanced_heights(NormalBundleType(0, 2), 10)


def test_reachable_heights_budget():
    # FUZZ_BUDGET heights above the start are closed; one more, or h_max at
    # the top of int64, is refused before the search
    start = NormalBundleType(1, 1)
    reach = reachable_balanced_heights(start, start.height + FUZZ_BUDGET)
    assert max(h for h, _ in reach) == start.height + FUZZ_BUDGET
    with pytest.raises(CapExceeded, match="past the fuzz budget"):
        reachable_balanced_heights(start, start.height + FUZZ_BUDGET + 1)
    t = time.perf_counter()
    with pytest.raises(CapExceeded, match="past the fuzz budget"):
        reachable_balanced_heights(start, 2**63 - 1)
    assert time.perf_counter() - t < 0.1


@given(st.integers(0, 4), st.integers(0, 1), st.integers(6, 20))
@settings(max_examples=30, deadline=None)
def test_reachability_covers_stable_range(a, gap, extra):
    # the parity-appropriate balanced type is asserted internally at every
    # height >= start + 6; this just drives many starts through the check
    start = NormalBundleType(a, a + gap)
    reach = reachable_balanced_heights(start, start.height + extra)
    assert (start.height, start) in reach


def test_fuzz_harness():
    rep = fuzz_blow_up_sequences(count=300, depth=8, seed=0)
    assert rep["all_passed"] is True
    assert rep["contractions"] == 300
    assert rep["second_minus_one_checks"] > 0
    assert rep["hypothesis_not_met"] > 0
    assert rep == fuzz_blow_up_sequences(count=300, depth=8, seed=0)
    with pytest.raises(DomainError):
        fuzz_blow_up_sequences(count=0)


# (second_minus_one_checks, hypothesis_not_met, max_components) of 300
# trials at seeds 0-9, as the edge-list blow-up with a whole-tree check at
# every step reported them
_FUZZ_REPORTS = {
    8: [(969, 334, 9), (954, 395, 9), (949, 366, 9), (974, 412, 9), (1005, 351, 9),
        (963, 391, 9), (1000, 332, 9), (970, 349, 9), (984, 357, 9), (979, 320, 9)],
    16: [(1902, 673, 17), (1876, 667, 17), (1860, 656, 17), (1890, 676, 17), (1905, 675, 17),
         (1871, 678, 17), (1872, 616, 17), (1953, 627, 17), (1766, 644, 17), (1878, 702, 17)],
    64: [(7944, 1510, 65), (7889, 1682, 65), (8650, 1653, 65), (8479, 1461, 65),
         (8331, 1477, 65), (8234, 1368, 65), (7911, 1581, 65), (8384, 1690, 65),
         (8072, 1384, 65), (8037, 1687, 65)],
}


@pytest.mark.parametrize("depth", sorted(_FUZZ_REPORTS))
def test_fuzz_reports_are_pinned(depth):
    for seed, (checks, not_met, widest) in enumerate(_FUZZ_REPORTS[depth]):
        assert fuzz_blow_up_sequences(count=300, depth=depth, seed=seed) == {
            "trials": 300, "depth": depth, "seed": seed,
            "second_minus_one_checks": checks, "hypothesis_not_met": not_met,
            "contractions": 300, "max_components": widest, "all_passed": True,
        }


@pytest.mark.parametrize("count, depth", [(1, 1), (7, 64), (50, 8), (300, 16)])
def test_fuzz_builds_two_trees_a_trial(monkeypatch, count, depth):
    built = []
    check = ruled._check_tree
    monkeypatch.setattr(ruled, "_check_tree", lambda *lists: built.append(check(*lists)))
    fuzz_blow_up_sequences(count=count, depth=depth, seed=count)
    assert len(built) == 2 * count


def test_fuzz_budget():
    # the benchmark's and the acceptance suite's runs fit
    for count, depth in ((400, 16), (1000, 8), (200, 8)):
        check_fuzz_budget(count, depth)
    # the largest accepted budgets, and one more blow-up past each
    for count, depth in ((1, FUZZ_BUDGET), (FUZZ_BUDGET // 64, 64), (FUZZ_BUDGET, 1)):
        check_fuzz_budget(count, depth)
        with pytest.raises(DomainError, match="past the fuzz budget"):
            check_fuzz_budget(count + 1, depth)
        with pytest.raises(DomainError, match="past the fuzz budget"):
            check_fuzz_budget(count, depth + 1)
    assert fuzz_blow_up_sequences(count=1, depth=FUZZ_BUDGET)["all_passed"]
    # refused before the first trial, however large the budget
    for count, depth in ((10**9, 8), (2, 10**8), (10**100, 10**100)):
        with pytest.raises(DomainError, match=f"--trials {count} x --depth {depth}"):
            fuzz_blow_up_sequences(count=count, depth=depth)


def test_fuzz_budget_reads_integers():
    for count, depth in ((2, 1.5), (2.5, 4), ("2", 4), (2, None)):
        with pytest.raises(DomainError, match="must be integers"):
            fuzz_blow_up_sequences(count, depth)
    assert fuzz_blow_up_sequences(np.int64(3), np.int8(4)) == fuzz_blow_up_sequences(3, 4)


def test_fuzz_report_holds_python_ints():
    rep = fuzz_blow_up_sequences(np.int64(3), np.int8(4), seed=np.int64(5))
    assert json.loads(json.dumps(rep)) == rep == fuzz_blow_up_sequences(3, 4, seed=5)
    assert all(type(rep[k]) is int for k in ("trials", "depth", "seed"))
    assert check_fuzz_budget(np.int16(2), np.int64(9)) == (2, 9)
    with pytest.raises(DomainError, match="fuzz seed must be an integer"):
        fuzz_blow_up_sequences(2, 4, seed=1.5)


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_random_blow_up_invariants(choices):
    t = irreducible_fiber()
    for pick in choices:
        targets = list(range(len(t.components))) + list(t.edges)
        t = blow_up_fiber(t, targets[pick % len(targets)])
    assert t.total_square() == 0
    assert len(t.edges) == len(t.components) - 1
    assert t.components[0][1] == 1  # the original component keeps mult 1
    # the same tree from its edges reversed, in reverse order: equality, hash
    # and repr see the fields only, and neighbours come sorted
    twin = FiberTree(t.components, tuple(e[::-1] for e in reversed(t.edges)), t.marked)
    assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
    for i in range(len(t.components)):
        want = sorted(b for e in t.edges for a, b in (e, e[::-1]) if a == i)
        assert t.neighbors(i) == twin.neighbors(i) == want
    steps, final = contract_keeping_section(with_marked(t, 0))
    assert final.components == ((0, 1),)
    assert len(steps) == len(t.components) - 1
