import itertools
import random
import re
from fractions import Fraction
from math import factorial

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
from delpezzo.errors import FieldError
from delpezzo.linalg import mat_rank
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
    while True:
        gens = tuple(
            tuple(rng.randint(0, 3) for _ in range(rho))
            for _ in range(rho + rng.randint(0, 1))
        )
        cov = tuple(rng.randint(1, 2) for _ in range(rho))
        if all(any(g) for g in gens) and mat_rank(gens) == rho:
            break
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
