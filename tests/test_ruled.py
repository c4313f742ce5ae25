import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo import (
    BreakResult,
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
from delpezzo.ruled import FUZZ_BUDGET, FUZZ_MAX_DEPTH, check_fuzz_budget


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
    for target in ("x", (5,)):
        with pytest.raises(DomainError, match="is neither index nor edge"):
            blow_up_fiber(t, target)
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


def test_fuzz_budget():
    # the benchmark's and the acceptance suite's runs fit
    for count, depth in ((400, 16), (1000, 8), (200, 8)):
        check_fuzz_budget(count, depth)
    # the largest accepted budgets, and one more blow-up past each
    for count, depth in ((FUZZ_BUDGET // FUZZ_MAX_DEPTH, FUZZ_MAX_DEPTH), (FUZZ_BUDGET, 1)):
        check_fuzz_budget(count, depth)
        with pytest.raises(DomainError, match="past the fuzz budget"):
            check_fuzz_budget(count + 1, depth)
    with pytest.raises(DomainError, match="past the fuzz budget"):
        check_fuzz_budget(1, FUZZ_MAX_DEPTH + 1)
    assert fuzz_blow_up_sequences(count=1, depth=FUZZ_MAX_DEPTH)["all_passed"]
    # refused before the first trial, however large the budget
    for count, depth in ((10**9, 8), (2, 10**8), (10**100, 10**100)):
        with pytest.raises(DomainError, match=f"--trials {count} x --depth {depth}"):
            fuzz_blow_up_sequences(count=count, depth=depth)


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
