import itertools
import random
import re
import time
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo import (
    CapExceeded,
    CountingModel,
    DomainError,
    alpha,
    asymptotic,
    convergence_report,
    count_exact,
    default_model,
    lattice_points_at_height,
    load_profile,
    model_from_json,
    model_to_json,
    tau,
    theorem_constant,
)
from delpezzo import counting
from delpezzo.counting import COUNT_BUDGET, COUNT_POWER_BITS
from delpezzo.errors import FieldError
from delpezzo.linalg import _integer_kernel, cone_contains, dual_cone_rays
from delpezzo.thresholds import FibrationProfile, NefConeEta


def make_profile(rho, neg, gens, cov, br=1, npf=1, idx=1):
    return FibrationProfile(
        name="synthetic",
        fiber_degree=3,
        rho_eta=rho,
        neg=neg,
        maxdef_table=(),
        brauer_order=br,
        num_profiles=npf,
        lattice_index=idx,
        has_ff_conic=False,
        nef_cone_eta=NefConeEta(generators=gens, height=cov),
    )


RANK1 = make_profile(1, -1, ((1,),), (1,))
RANK2 = make_profile(2, 0, ((1, 0), (0, 1)), (1, 1))
RANK3 = make_profile(3, -1, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1))
# rank-3 cone whose height slices are 2 * 10**6 * s + 1 columns wide
WIDE3 = ((1, -(10**6), 0), (1, 10**6, 0), (1, 0, 1))


def test_alpha_fixtures():
    assert alpha(((1,),), (1,)).value == 1
    assert alpha(((1,),), (3,)).value == Fraction(1, 3)
    assert alpha(((1, 0), (0, 1)), (2, 2)).value == Fraction(1, 4)


def test_alpha_triangulation_consistency():
    res = alpha(((1, 0), (0, 1)), (2, 2))
    assert len(res.triangulation) == 1
    verts, d = res.triangulation[0]
    assert d == Fraction(1, 4)
    assert verts == ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2)))


def test_alpha_nonsimplicial_and_interior_generator():
    # the middle generator scales into the segment's interior
    res = alpha(((2, 1), (1, 2), (1, 1)), (1, 1))
    assert res.value == Fraction(1, 3)


def test_alpha_rank3():
    assert alpha(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1)
    ).value == Fraction(1, 2)
    # square cone: slice area 2, pyramid volume 2/3, alpha = 3 * 2/3
    sq = alpha(((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)), (0, 0, 1))
    assert sq.value == Fraction(2)


def test_alpha_index_normalization():
    assert alpha(((1,),), (1,), index=3).value == Fraction(1, 3)
    cp = load_profile("cubic-pencil")
    cone = cp.nef_cone_eta
    assert alpha(cone.generators, cone.height, index=cp.lattice_index).value == Fraction(1, 3)
    x5 = load_profile("x5-pencil")
    assert alpha(
        x5.nef_cone_eta.generators, x5.nef_cone_eta.height, index=x5.lattice_index
    ).value == Fraction(1, 5)


def test_alpha_errors():
    with pytest.raises(DomainError):
        alpha(((1,), (-1,)), (1,))
    with pytest.raises(DomainError):
        alpha(((1, 0),), (1, 1))  # not full-dimensional
    with pytest.raises(CapExceeded):
        alpha(((1, 0, 0, 0),), (1, 1, 1, 1))
    with pytest.raises(DomainError):
        alpha((), (1,))


@given(st.integers(1, 5))
def test_alpha_homogeneity(k):
    base = alpha(((1, 0), (0, 1)), (1, 1)).value
    assert alpha(((1, 0), (0, 1)), (k, k)).value == base / k**2
    assert alpha(((1,),), (k,)).value == Fraction(1, k)


def test_tau():
    assert tau(RANK1) == 1
    assert tau(make_profile(1, -1, ((1,),), (1,), npf=2, idx=3)) == 6
    assert tau(load_profile("diagonal-cubic")) == 3


def test_lattice_points_fixtures():
    assert lattice_points_at_height(((1,),), (1,), (-1,), 5) == 1
    assert lattice_points_at_height(((1, 0), (0, 1)), (1, 1), (0, 0), 4) == 5
    assert lattice_points_at_height(((1,),), (1,), (2,), 1) == 0
    with pytest.raises(CapExceeded):
        lattice_points_at_height(((1, 0, 0, 0),), (1, 1, 1, 1), (0, 0, 0, 0), 2)


def test_lattice_points_brute_force_2d():
    gens = ((2, 1), (1, 2))
    cov = (1, 1)
    for i in range(-2, 9):
        mine = lattice_points_at_height(gens, cov, (1, -2), i)
        brute = sum(
            1
            for x in range(-40, 41)
            for y in range(-40, 41)
            if x + y == i and 2 * (x - 1) - (y + 2) >= 0 and -(x - 1) + 2 * (y + 2) >= 0
        )
        assert mine == brute


def test_lattice_points_brute_force_3d():
    gens = ((1, 0, 0), (1, 1, 0), (1, 1, 1))
    cov = (1, 1, 1)
    box = range(-12, 13)
    for i in range(0, 7):
        mine = lattice_points_at_height(gens, cov, (0, 0, 0), i)
        brute = 0
        for x, y, z in itertools.product(box, repeat=3):
            # cone(gens): x >= y >= z >= 0
            if x + y + z == i and x >= y >= z >= 0:
                brute += 1
        assert mine == brute


def _box_scan(gens, height, translate, i):
    """Points of translate + cone(gens) at height i by testing every point of
    a box around the slice against the facets: the independent route for
    the interval counter.  A cone point at height s >= 0 combines the
    generators (each of height >= 1) with coefficients at most s, so
    |x_k| <= s * sum_j |g_jk|; the first coordinate with a nonzero height
    entry is solved from the height."""
    s = i - sum(a * b for a, b in zip(height, translate))
    if s < 0:
        return 0
    rho = len(height)
    bound = s * max(sum(abs(g[k]) for g in gens) for k in range(rho))
    solved = next(k for k in range(rho) if height[k])
    others = [k for k in range(rho) if k != solved]
    axes = np.meshgrid(*[np.arange(-bound, bound + 1)] * len(others), indexing="ij")
    pts = np.zeros((axes[0].size if others else 1, rho), dtype=np.int64)
    for k, axis in zip(others, axes):
        pts[:, k] = axis.ravel()
    rest = s - pts @ np.array(height)
    exact = rest % height[solved] == 0
    pts = pts[exact]
    pts[:, solved] = rest[exact] // height[solved]
    return int(cone_contains(dual_cone_rays(gens), pts).sum()) if len(pts) else 0


# the draws a seeded helper makes before it fails rather than loop on: a
# kernel that never comes out empty ends the test instead of hanging it
TRIES = 1000


def _seeded_cone(rng, rho):
    """Generators with entries -3..3 and a height covector with entries
    -3..5, every generator of positive height, full rank.  The seeds the
    tests use need at most 75 draws."""
    for _ in range(TRIES):
        gens = tuple(
            tuple(rng.randint(-3, 3) for _ in range(rho)) for _ in range(rho + rng.randint(0, 2))
        )
        height = tuple(rng.randint(-3, 5) for _ in range(rho))
        positive = all(sum(a * b for a, b in zip(g, height)) > 0 for g in gens)
        if positive and not _integer_kernel(gens):
            return gens, height
    raise AssertionError(f"no cone of positive height and full rank in {TRIES} draws")


def test_interval_counter_matches_box_scan():
    # negative height entries, pivot entries that do not divide the last free
    # one, translates of any height and slices below it (s < 0)
    rng = random.Random(12)
    seen = set()
    for rho in (1, 2, 3):
        for _ in range(100):
            gens, height = _seeded_cone(rng, rho)
            t = tuple(rng.randint(-2, 2) for _ in range(rho))
            start = sum(a * b for a, b in zip(height, t))
            # the counter's pivot and last free coordinate
            pivot = max(range(rho), key=lambda k: abs(height[k]))
            last = max((k for k in range(rho) if k != pivot), default=pivot)
            seen.add(("negative pivot", height[pivot] < 0))
            seen.add(("pivot divides last", height[last] % height[pivot] == 0))
            for i in range(start - 2, start + 7):
                mine = lattice_points_at_height(gens, height, t, i)
                assert mine == _box_scan(gens, height, t, i), (gens, height, t, i)
    assert seen == {(name, flag) for name in ("negative pivot", "pivot divides last")
                    for flag in (True, False)}


def test_interval_counter_fixtures():
    # pivot entry -3, last free entry 2: the pivot coordinate is integral on
    # every third y only
    gens, height = ((-1, 0), (1, 2)), (-3, 2)
    assert [lattice_points_at_height(gens, height, (0, 0), i) for i in range(-1, 7)] == [
        _box_scan(gens, height, (0, 0), i) for i in range(-1, 7)
    ]
    # the wide rank-2 cone, past the old candidate budget: 2 * 10**6 * s + 1
    # points in every slice, counted without scanning them
    wide = ((1, -(10**6)), (1, 10**6))
    for s in range(6):
        assert lattice_points_at_height(wide, (1, 0), (0, 0), s) == 2 * 10**6 * s + 1
    m = CountingModel(make_profile(2, -1, wide, (1, 0)), ((0, 0),), Fraction(2))
    assert count_exact(m, 5) == sum((2 * 10**6 * s + 1) * 2 ** (s + 2) for s in range(6))
    assert convergence_report(m, 5)["rows"][-1]["exact"] == count_exact(m, 5)


def test_count_exact_matches_box_scan():
    rng = random.Random(31)
    for rho, d in ((1, 9), (2, 6), (3, 4)):
        for _ in range(6):
            gens, height = _seeded_cone(rng, rho)
            translates = []
            while len(translates) < 2:
                t = tuple(rng.randint(-2, 2) for _ in range(rho))
                if sum(a * b for a, b in zip(height, t)) >= -3:
                    translates.append(t)
            m = CountingModel(
                make_profile(rho, -3, gens, height, br=2), tuple(translates), Fraction(5, 2)
            )
            want = sum(
                (2 * _box_scan(gens, height, t, i) * Fraction(5, 2) ** (i + 2)
                 for t in translates for i in range(-3, d + 1)),
                Fraction(0),
            )
            assert count_exact(m, d) == want


def test_count_exact_fixtures():
    m = CountingModel(profile=RANK1, translates=((1,),), q=Fraction(2))
    assert count_exact(m, 3) == 56
    assert count_exact(m, 0) == 0
    m3 = CountingModel(
        profile=make_profile(1, -1, ((1,),), (1,), br=3),
        translates=((1,),),
        q=Fraction(2),
    )
    assert count_exact(m3, 3) == 168
    assert count_exact(m3, 9) == 3 * count_exact(m, 9)


def test_count_exact_closed_form():
    q = Fraction(2)
    m = CountingModel(profile=RANK1, translates=((1,),), q=q)
    for d in range(1, 51):
        assert count_exact(m, d) == q**2 * (q ** (d + 1) - q) / (q - 1)


def test_count_monotone_in_d():
    m = CountingModel(profile=RANK2, translates=((0, 0),), q=Fraction(3, 2))
    values = [count_exact(m, d) for d in range(0, 12)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_asymptotic():
    m = CountingModel(profile=RANK1, translates=((1,),), q=Fraction(2))
    assert asymptotic(m, 10) == 2048
    assert theorem_constant(m) == 2
    m2 = CountingModel(profile=RANK2, translates=((0, 0),), q=Fraction(2))
    assert asymptotic(m2, 10) == 10 * Fraction(2) ** 11  # rho = 2: extra factor d
    with pytest.raises(DomainError):
        asymptotic(m, 0)


@given(st.integers(2, 30))
def test_asymptotic_consecutive_ratio_rank1(d):
    m = CountingModel(profile=RANK1, translates=((1,),), q=Fraction(5, 3))
    assert asymptotic(m, d) / asymptotic(m, d - 1) == Fraction(5, 3)


def test_convergence_rank1_exact_stabilization():
    m = CountingModel(profile=RANK1, translates=((1,),), q=Fraction(2))
    rep = convergence_report(m, 10)
    assert rep["rows"][0]["stabilized"] is None
    for row in rep["rows"][1:]:
        assert row["stabilized"] == 4
    assert rep["measured_offset"] == 4
    assert rep["theorem_constant"] == 2
    assert rep["empirical_constant"] == 8
    assert rep["stabilizes"] is True
    with pytest.raises(DomainError):
        convergence_report(m, 2)


def test_convergence_rank2_within_five_percent():
    m = CountingModel(profile=RANK2, translates=((0, 0),), q=Fraction(2))
    rep = convergence_report(m, 40)
    limit = rep["measured_offset"]
    last = rep["rows"][-1]["ratio"]
    assert abs(last - limit) <= abs(limit) * Fraction(1, 20)
    assert rep["stabilizes"] is True


def test_offset_reported_not_reconciled():
    # the exact count exceeds the closed form by q^2 under the default
    # dimension rule; the report must expose both constants and the offset
    for q in (Fraction(2), Fraction(3), Fraction(7, 2)):
        m = default_model(load_profile("cubic-pencil"), q)
        rep = convergence_report(m, 8)
        assert rep["measured_offset"] == q**2
        assert rep["theorem_constant"] == q / (q - 1)
        assert rep["empirical_constant"] == q**3 / (q - 1)


def test_ehrhart_consistency():
    # unimodular generators of height 1 each: the slice count is an honest
    # polynomial and its (rho-1)-st difference is exactly (rho-1)! * alpha
    fixtures = [
        (((1,),), (1,)),
        (((1, 0), (0, 1)), (1, 1)),
        (((1, 0), (1, 1)), (1, 0)),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1)),
        (((1, 0, 0), (1, 1, 0), (1, 1, 1)), (1, 0, 0)),
    ]
    for gens, cov in fixtures:
        rho = len(cov)
        a = alpha(gens, cov).value
        origin = tuple(0 for _ in range(rho))
        pts = [lattice_points_at_height(gens, cov, origin, i) for i in range(10)]
        diff = pts
        for _ in range(rho - 1):
            diff = [y - x for x, y in zip(diff, diff[1:])]
        assert all(v == factorial(rho - 1) * a for v in diff)


def test_model_validation():
    with pytest.raises(DomainError):
        CountingModel(profile=RANK1, translates=((1,),), q=Fraction(1))
    with pytest.raises(DomainError):
        CountingModel(profile=RANK1, translates=(), q=Fraction(2))
    with pytest.raises(DomainError):
        CountingModel(profile=RANK1, translates=((-5,),), q=Fraction(2))
    with pytest.raises(DomainError):
        CountingModel(profile=RANK1, translates=((1, 0),), q=Fraction(2))
    with pytest.raises(DomainError):
        default_model(RANK2, 2)


def test_model_json_round_trip():
    m = CountingModel(profile=RANK1, translates=((1,),), q=Fraction(5, 2), dim_rule=3)
    again = model_from_json(model_to_json(m))
    assert again == m
    named = model_from_json(
        {"profile": "cubic-pencil", "translates": [[-1]], "q": "2"}
    )
    assert named == default_model(load_profile("cubic-pencil"), 2)


@given(st.integers(2, 9), st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_count_linear_in_brauer(qnum, br):
    q = Fraction(qnum)
    base = CountingModel(profile=RANK1, translates=((-1,),), q=q)
    scaled = CountingModel(
        profile=make_profile(1, -1, ((1,),), (1,), br=br),
        translates=((-1,),),
        q=q,
    )
    assert count_exact(scaled, 6) == br * count_exact(base, 6)


def _random_model(rng, rho):
    for _ in range(TRIES):
        gens = tuple(
            tuple(rng.randint(0, 3) for _ in range(rho))
            for _ in range(rho + rng.randint(0, 1))
        )
        cov = tuple(rng.randint(1, 2) for _ in range(rho))
        if all(any(g) for g in gens) and not _integer_kernel(gens):
            break
    else:
        raise AssertionError(f"no nonzero generators of full rank in {TRIES} draws")
    profile = make_profile(
        rho, -1, gens, cov, br=rng.randint(1, 2), idx=rng.randint(1, 3)
    )
    translates = []
    while len(translates) < rng.randint(1, 2):
        t = tuple(rng.randint(-1, 2) for _ in range(rho))
        if sum(a * b for a, b in zip(cov, t)) >= -1:
            translates.append(t)
    q = Fraction(rng.randint(3, 8), 2)
    return CountingModel(profile, tuple(translates), q, dim_rule=rng.randint(1, 3))


def test_convergence_rows_match_counts_from_scratch():
    # the report accumulates slices once; every row must equal the count
    # and the closed form recomputed on their own
    rng = random.Random(2024)
    for rho, dmax in ((1, 12), (2, 8), (3, 5)):
        for _ in range(4):
            m = _random_model(rng, rho)
            rep = convergence_report(m, dmax)
            assert [r["d"] for r in rep["rows"]] == list(range(1, dmax + 1))
            for r in rep["rows"]:
                assert r["exact"] == count_exact(m, r["d"])
                assert r["asymptotic"] == asymptotic(m, r["d"])
                assert r["ratio"] == r["exact"] / r["asymptotic"]
            assert rep["theorem_constant"] == theorem_constant(m)


def _no_slices(*args):
    raise AssertionError("a slice was counted")


@pytest.mark.parametrize(
    "model, d, words",
    [
        (default_model(load_profile("cubic-pencil"), 2), 10**8, "--dmax 100000000"),
        (default_model(load_profile("x5-pencil"), Fraction(10**400)), 12, "q of 1329 bits"),
        (
            CountingModel(RANK1, ((1,),), Fraction(2), dim_rule=10**14),
            5,
            "dim_rule 100000000000000",
        ),
        (
            CountingModel(make_profile(3, -1, WIDE3, (1, 0, 0)), ((0, 0, 0),), Fraction(2)),
            5,
            f"360000018 column-generator pairs, at most {COUNT_BUDGET}",
        ),
    ],
    ids=["dmax", "huge-q", "dim-rule", "wide-cone"],
)
def test_count_budget_refuses_before_the_first_slice(monkeypatch, model, d, words):
    # the sweep builds one counter per model and calls it once per slice
    monkeypatch.setattr(counting, "_slice_counter", lambda *args: _no_slices)
    for run in (convergence_report, count_exact):
        with pytest.raises(DomainError, match="past the counting budget") as ex:
            run(model, d)
        assert words in str(ex.value) and "--dmax" in str(ex.value)


def test_count_budget_edges(monkeypatch):
    monkeypatch.setattr(counting, "_slice_counter", lambda *args: lambda s: 1)
    # q = 2 has 2 bits, so exponents up to 2048: the top slice weighs q**(d + 2)
    m = CountingModel(RANK1, ((1,),), Fraction(2))
    last = COUNT_POWER_BITS // 2 - 2
    count_exact(m, last)
    convergence_report(m, last)
    for run in (convergence_report, count_exact):
        with pytest.raises(DomainError, match="exponents at most 2048"):
            run(m, last + 1)
    # a negative dim_rule is bounded in size too
    low = CountingModel(RANK1, ((1,),), Fraction(2), dim_rule=-2050)
    with pytest.raises(DomainError, match="past the counting budget"):
        count_exact(low, 3)
    # RANK3 at d = 4: 5 slices of at most 9 columns (|x_1| <= 4) against
    # 3 generators
    m3 = CountingModel(RANK3, ((0, 0, 0),), Fraction(2))
    monkeypatch.setattr(counting, "COUNT_BUDGET", 135)
    count_exact(m3, 4)
    monkeypatch.setattr(counting, "COUNT_BUDGET", 134)
    with pytest.raises(DomainError, match="135 column-generator pairs, at most 134"):
        count_exact(m3, 4)


def test_count_budget_bounds_the_real_scan(monkeypatch):
    # the prediction must cover the counter's real work in the budget's unit:
    # each slice counted costs its columns times the cone's generators, a
    # slice with no outer coordinate (rank 1) being one column; with the
    # budget set one below that work, the check refuses
    rng = random.Random(77)
    for rho, d in ((1, 9), (2, 7), (3, 5)):
        for _ in range(4):
            m = _random_model(rng, rho)
            work = columns = 0

            def counted_product(*ranges):
                nonlocal columns
                for coords in itertools.product(*ranges):
                    columns += 1
                    yield coords

            def counted_counter(gens, height, real=counting._slice_counter):
                count = real(gens, height)

                def counted(s):
                    nonlocal work, columns
                    columns = 0
                    points = count(s)
                    work += max(columns, 1) * len(gens)
                    return points

                return counted

            with monkeypatch.context() as mp:
                mp.setattr(counting, "product", counted_product)
                mp.setattr(counting, "_slice_counter", counted_counter)
                count_exact(m, d)
            assert work > 0
            with monkeypatch.context() as mp:
                mp.setattr(counting, "COUNT_BUDGET", work - 1)
                with pytest.raises(DomainError, match="past the counting budget"):
                    count_exact(m, d)


def test_huge_q_exponent_refused_before_expansion():
    # Fraction("1e3000000") would build a 3-million-digit integer first
    good = model_to_json(default_model(load_profile("cubic-pencil"), 2))
    for q in ("1e3000000", "1E+3_000_000", "2.5e5000", "1.5e-4097 "):
        start = time.perf_counter()
        with pytest.raises(FieldError, match="past the counting budget") as ex:
            model_from_json(dict(good, q=q))
        assert time.perf_counter() - start < 0.1
        assert ex.value.path == "q"
    # an exponent within the bound is read, and refused later by the power bound
    m = model_from_json(dict(good, q="1e4096"))
    assert m.q == 10**4096
    with pytest.raises(DomainError, match="past the counting budget"):
        count_exact(m, 3)


def test_model_json_rejects_malformed_documents():
    good = model_to_json(default_model(load_profile("cubic-pencil"), 2))
    bad_profile = dict(good["profile"], maxdef_table=[[-1, 1]])
    for data, path in (
        ([good], None),
        ("cubic-pencil", None),
        (dict(good, q="1/0"), "q"),
        (dict(good, translates=5), "translates"),
        (dict(good, profile=bad_profile), "profile.maxdef_table"),
        (dict(good, profile=[bad_profile]), "profile"),
        # json.loads reads Infinity as a float, which int() cannot convert
        (dict(good, dim_rule=float("inf")), "dim_rule"),
        (
            dict(good, profile=dict(good["profile"], brauer_order=float("inf"))),
            "profile.brauer_order",
        ),
        # integers and booleans are read exactly, never coerced
        (dict(good, profile=dict(good["profile"], has_ff_conic="false")), "profile.has_ff_conic"),
        (dict(good, profile=dict(good["profile"], has_ff_conic=0)), "profile.has_ff_conic"),
        (dict(good, translates=[[-1.7]]), "translates"),
        (dict(good, translates=[[True]]), "translates"),
        (dict(good, dim_rule=2.9), "dim_rule"),
        (dict(good, dim_rule="2"), "dim_rule"),
        # q is a string or an integer, never a float or a boolean
        (dict(good, q=True), "q"),
        (dict(good, q=2.5), "q"),
        # integers stay within int64, map keys included
        (dict(good, dim_rule=2**63), "dim_rule"),
        (dict(good, translates=[[-(2**63) - 1]]), "translates"),
        (dict(good, profile=dict(good["profile"], brauer_order=10**4000)), "profile.brauer_order"),
        (dict(good, profile=dict(good["profile"], maxdef_table={str(-(2**63) - 1): 1})),
         "profile.maxdef_table"),
        (dict(good, profile=dict(good["profile"], brauer_order=True)), "profile.brauer_order"),
        (dict(good, profile=dict(good["profile"], maxdef_table={"-1": 1.0})),
         "profile.maxdef_table"),
        # text fields are JSON strings, never coerced
        (dict(good, profile=dict(good["profile"], name=[1, 2])), "profile.name"),
        (dict(good, profile=dict(good["profile"], provenance={"a": 1})), "profile.provenance"),
        (dict(good, profile=dict(good["profile"], transcription_note=None)),
         "profile.transcription_note"),
        # maxdef_table keys are canonical integers, so no two name one height
        *(
            (dict(good, profile=dict(good["profile"], maxdef_table=table)), "profile.maxdef_table")
            for table in ({"-1_0": 1}, {" -1 ": 1}, {"-01": 1}, {"+1": 1}, {"-1": 1, " -1 ": 2})
        ),
        (
            dict(good, profile=dict(good["profile"], nef_cone_eta={"generators": [[1.5]],
                                                                   "height": [1]})),
            "profile.nef_cone_eta.generators",
        ),
        (
            dict(good, profile=dict(good["profile"], nef_cone_eta={"generators": [[1]],
                                                                   "height": [True]})),
            "profile.nef_cone_eta.height",
        ),
    ):
        where = "must be an object" if path is None else f"field '{path}':"
        with pytest.raises(DomainError, match=re.escape(f"counting model JSON {where}")) as ex:
            model_from_json(data)
        assert path is None or isinstance(ex.value, FieldError) and ex.value.path == path
    edge = dict(good, q=7, dim_rule=2**63 - 1, translates=[[2**63 - 1]])
    m = model_from_json(dict(edge, profile=dict(good["profile"], brauer_order=2**63 - 1)))
    assert (m.q, m.dim_rule, m.profile.brauer_order) == (7, 2**63 - 1, 2**63 - 1)
    assert m.translates == ((2**63 - 1,),)


def _seeded_cones(seed, count):
    """Seeded rank-2 and rank-3 cones of generators of positive height, with
    negative height entries and repeated, parallel and interior generators."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        rank = rng.choice((2, 3))
        height = tuple(rng.randint(-2, 2) for _ in range(rank))
        gens = []
        for _ in range(rng.randint(1, 6)):
            g = tuple(rng.randint(-3, 3) for _ in range(rank))
            if sum(a * b for a, b in zip(height, g)) > 0:
                gens += [g] * rng.choice((1, 1, 2)) + [tuple(2 * x for x in g)] * rng.randint(0, 1)
        if gens:
            cones.append((tuple(gens), height))
    return cones


def test_slice_facets_match_double_description():
    fixtures = [
        (p.nef_cone_eta.generators, p.nef_cone_eta.height) for p in (RANK2, RANK3)
    ] + [(((2, 1), (1, 2), (1, 1)), (1, 1)),
         (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), (1, 1, 1))]
    full = 0
    for gens, height in fixtures + _seeded_cones(29, 800):
        try:
            want = dual_cone_rays(gens)
        except DomainError:
            with pytest.raises(DomainError, match="not full-dimensional"):
                counting._slice_facets(gens, height)
            continue
        assert counting._slice_facets(gens, height) == want
        full += 1
    assert full > 300
    # exact past the int64 bound the double description refuses
    m = 10**6
    assert counting._slice_facets(WIDE3, (1, 0, 0)) == [(0, 0, 1), (m, -1, -m), (m, 1, -m)]


def test_flat_cone_is_refused():
    flat = ((((1, 0), (2, 0)), (1, 1)), (((1, 0, 0), (0, 1, 0), (1, 1, 0)), (1, 1, 1)))
    for gens, height in flat:
        m = CountingModel(make_profile(len(height), 0, gens, height), ((0,) * len(height),), 2)
        for run in (count_exact, convergence_report):
            with pytest.raises(DomainError, match="not full-dimensional"):
                run(m, 3)


def test_alpha_does_not_depend_on_generator_order():
    rng = random.Random(31)
    for gens, height in _seeded_cones(29, 800):
        try:
            want = alpha(gens, height)
        except DomainError:
            continue
        shuffled = tuple(rng.sample(gens, len(gens)))
        repeated = gens + (rng.choice(gens),)
        for other in (gens[::-1], shuffled, repeated):
            assert alpha(other, height) == want


_MODEL2 = CountingModel(RANK2, ((0, 0),), 2)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: NefConeEta(((1.5, 0), (0, 1)), (1, 1)), id="nef-generator"),
        pytest.param(lambda: NefConeEta(((1, 0), (0, 1)), (1, 0.5)), id="nef-height"),
        pytest.param(lambda: alpha(((1, 0), (0, 1)), (1, 1), index=1.5), id="alpha-index"),
        pytest.param(lambda: asymptotic(_MODEL2, 1.5), id="asymptotic-d"),
        pytest.param(lambda: count_exact(_MODEL2, 1.5), id="count-exact-d"),
        pytest.param(lambda: convergence_report(_MODEL2, 3.5), id="convergence-d-max"),
        pytest.param(
            lambda: lattice_points_at_height(((1, 0), (0, 1)), (1, 1), (0, 0), 2.0),
            id="lattice-points-i",
        ),
        pytest.param(
            lambda: lattice_points_at_height(((1, 0), (0, 1)), (1, 1), (0.5, 0), 2),
            id="lattice-points-translate",
        ),
        pytest.param(lambda: CountingModel(RANK1, ((0,),), float("nan")), id="model-q-nan"),
        pytest.param(lambda: CountingModel(RANK1, ((0,),), float("inf")), id="model-q-inf"),
        pytest.param(lambda: default_model(RANK1, float("nan")), id="default-model-q-nan"),
        pytest.param(lambda: default_model(RANK1, float("inf")), id="default-model-q-inf"),
        pytest.param(lambda: CountingModel(RANK1, ((RANK1.neg + 0.5,),), 2), id="model-translate"),
        pytest.param(lambda: CountingModel(RANK1, ((0,),), 2, dim_rule=1.5), id="model-dim-rule"),
        pytest.param(lambda: counting.check_count_budget(_MODEL2, 2.5), id="count-budget-d"),
    ],
)
def test_inexact_numbers_are_refused(call):
    with pytest.raises(DomainError, match="must be an integer|must be rational"):
        call()


def test_numpy_integers_read_as_python_ints():
    cone = NefConeEta(np.array([[1, 0], [0, 1]]), np.array([1, 1]))
    assert cone == NefConeEta(((1, 0), (0, 1)), (1, 1))
    assert all(type(x) is int for g in cone.generators for x in g + cone.height)
    assert alpha(((1, 0), (0, 1)), (1, 1), index=np.int64(2)).value == Fraction(1, 2)
    assert lattice_points_at_height(((1, 0), (0, 1)), (1, 1), np.array([0, 0]), np.int64(2)) == 3
    assert count_exact(_MODEL2, np.int64(3)) == count_exact(_MODEL2, 3)
