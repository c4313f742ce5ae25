import json
import random
import tracemalloc
from collections import Counter
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo import DomainError, list_shipped_profiles, load_profile
from delpezzo.thresholds import (
    EMPTY_TABLE_NOTE,
    FibrationProfile,
    MbbSource,
    NefConeEta,
    _profile_from_dict,
    gw_thresholds,
    maxdef_height_bound,
    maxdef_of_x,
    mbb_bound,
    monotone_corners,
    non_dominant_threshold,
    profile_to_dict,
    q_of_x,
    same_a_low_height_bound,
    threshold_report,
)

UNIT_CONE = NefConeEta(generators=((1,),), height=(1,))


def make_profile(neg, table, has_ff_conic=False, **kw):
    args = dict(
        name="synthetic",
        fiber_degree=3,
        rho_eta=1,
        neg=neg,
        maxdef_table=tuple(sorted(table.items())),
        brauer_order=1,
        num_profiles=1,
        lattice_index=1,
        has_ff_conic=has_ff_conic,
        nef_cone_eta=UNIT_CONE,
    )
    args.update(kw)
    return FibrationProfile(**args)


def test_shipped_profiles_load():
    names = list_shipped_profiles()
    assert names == [
        "cubic-pencil",
        "diagonal-cubic",
        "hypersurface-23",
        "x5-pencil",
    ]
    for name in names:
        p = load_profile(name)
        assert p.name == name
        assert p.brauer_order == 1
        assert p.num_profiles == 1


def test_shipped_profile_values():
    cp = load_profile("cubic-pencil")
    assert (cp.fiber_degree, cp.neg, cp.lattice_index) == (3, -1, 3)
    assert cp.maxdef == {-1: 1}
    x5 = load_profile("x5-pencil")
    assert (x5.fiber_degree, x5.neg, x5.lattice_index) == (5, -1, 5)
    assert x5.transcription_note
    h23 = load_profile("hypersurface-23")
    assert (h23.fiber_degree, h23.neg) == (3, -2)
    assert h23.maxdef == {-2: 0, -1: 1}
    dc = load_profile("diagonal-cubic")
    assert (dc.fiber_degree, dc.neg, dc.lattice_index) == (3, -1, 3)
    for p in (cp, x5, h23, dc):
        assert not p.has_ff_conic
        assert p.rho_eta == 1


def test_profile_round_trip():
    for name in list_shipped_profiles():
        p = load_profile(name)
        assert _profile_from_dict(profile_to_dict(p)) == p


def test_profile_validation():
    with pytest.raises(DomainError):
        make_profile(-1, {-1: 1}, fiber_degree=9)
    with pytest.raises(DomainError):
        make_profile(-1, {1: 1})  # non-negative key
    with pytest.raises(DomainError):
        make_profile(-1, {-2: 1})  # key below neg
    with pytest.raises(DomainError):
        make_profile(-1, {-1: -1})  # negative value
    with pytest.raises(DomainError):
        make_profile(-1, {-1: 1}, brauer_order=0)
    with pytest.raises(DomainError):
        make_profile(-1, {-1: 1}, rho_eta=2)  # cone dim mismatch


def test_load_profile_errors(tmp_path):
    with pytest.raises(DomainError):
        load_profile("no-such-profile")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DomainError):
        load_profile(bad)
    with pytest.raises(DomainError):
        load_profile(tmp_path / "missing.json")
    # a directory and a file that is not UTF-8 end in the same error
    not_utf8 = tmp_path / "ff.json"
    not_utf8.write_bytes(b"\xff" * 16)
    for unreadable in (tmp_path, not_utf8):
        with pytest.raises(DomainError, match="cannot load profile"):
            load_profile(unreadable)
    incomplete = tmp_path / "partial.json"
    incomplete.write_text(json.dumps({"name": "x"}))
    with pytest.raises(DomainError):
        load_profile(incomplete)


def test_maxdef_of_x():
    assert maxdef_of_x(load_profile("cubic-pencil")) == 1
    assert maxdef_of_x(load_profile("hypersurface-23")) == 1
    assert maxdef_of_x(make_profile(0, {})) == 0


def test_non_dominant_threshold():
    assert non_dominant_threshold(make_profile(-1, {-1: 1})) == 1
    assert non_dominant_threshold(make_profile(-2, {-2: 0})) == 3
    assert non_dominant_threshold(make_profile(0, {})) == 1


def test_maxdef_height_bound():
    cp = load_profile("cubic-pencil")
    assert maxdef_height_bound(cp, -1, 2) == 4
    h23 = load_profile("hypersurface-23")
    assert maxdef_height_bound(h23, -2, 1) == 1
    # boundary n = maxdef(d): formula gives -1 + 3 - 1 = 1
    assert maxdef_height_bound(cp, -1, 1) == 1
    with pytest.raises(DomainError):
        maxdef_height_bound(cp, -3, 2)
    with pytest.raises(DomainError):
        maxdef_height_bound(cp, -1, 0)


def test_q_of_x():
    assert q_of_x(load_profile("cubic-pencil")) == 6
    assert q_of_x(load_profile("hypersurface-23")) == 8
    assert q_of_x(make_profile(0, {})) == 3


def test_mbb_bound():
    assert mbb_bound(load_profile("diagonal-cubic")) == (3, MbbSource.IMPROVED_LEMMA)
    assert mbb_bound(load_profile("hypersurface-23")) == (3, MbbSource.IMPROVED_LEMMA)
    with_conic = make_profile(-1, {-1: 1}, has_ff_conic=True)
    assert mbb_bound(with_conic) == (6, MbbSource.Q_FORMULA)
    wide_table = make_profile(-1, {-1: 2})  # maxdef - d = 3 > 2
    bound, source = mbb_bound(wide_table)
    assert source == MbbSource.Q_FORMULA
    assert bound == q_of_x(wide_table)


def test_gw_thresholds():
    cp = gw_thresholds(load_profile("cubic-pencil"))
    assert (cp.n_even, cp.n_odd, cp.n_balanced, cp.a_balanced) == (4, 2, 4, 7)
    h = gw_thresholds(load_profile("hypersurface-23"))
    assert (h.n_even, h.n_odd, h.n_balanced, h.a_balanced) == (5, 3, 5, 8)
    z = gw_thresholds(make_profile(0, {}))
    assert (z.n_even, z.n_odd, z.n_balanced, z.a_balanced) == (2, 1, 3, 6)
    assert EMPTY_TABLE_NOTE in z.notes
    assert any("clamp" in note for note in z.notes)


def test_same_a_low_height_bound():
    assert same_a_low_height_bound(make_profile(-1, {-1: 1})) == 0
    assert same_a_low_height_bound(make_profile(-2, {-2: 0})) == 1
    assert same_a_low_height_bound(make_profile(-3, {-3: 0})) == 2


def test_threshold_report_keys():
    rep = threshold_report(load_profile("cubic-pencil"))
    assert rep["q"] == 6
    assert rep["mbb_bound"] == 3
    assert rep["mbb_source"] == "ImprovedLemma"
    assert rep["non_dominant_threshold"] == 1
    assert rep["n_even"] == 4 and rep["n_odd"] == 2
    assert rep["same_a_low_height_bound"] == 0
    rep23 = threshold_report(load_profile("hypersurface-23"))
    assert rep23["non_dominant_threshold"] == 3 and rep23["q"] == 8


def test_monotone_corners_examples():
    up = monotone_corners(
        lambda w: 1 if (w[0] >= 1 and w[1] >= 0) or (w[0] >= 0 and w[1] >= 2) else 0,
        1,
        (4, 4),
    )
    assert sorted(up) == [(0, 2), (1, 0)]
    assert monotone_corners(lambda w: 0, 1, (4, 4)) == []
    line = monotone_corners(lambda w: w[0] + w[1], 3, (5, 5))
    assert sorted(line) == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_monotone_corners_rejects_non_monotone():
    with pytest.raises(DomainError):
        monotone_corners(lambda w: -(w[0] + w[1]), 1, (6, 6))


def test_monotone_corners_refuses_past_budget():
    # refused from the cell count alone, before any oracle call and before
    # anything of the size of the box is allocated
    calls = []
    for box in [(64, 63), (10**9, 10**9), (1,) * 13]:
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="corner budget"):
                monotone_corners(lambda w: calls.append(w) or 0, 1, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [] and peak < 64 * 2**10
    # 64 * 64 cells is exactly the budget
    assert monotone_corners(lambda w: w[0] + w[1], 63, (63, 63))[0] == (0, 63)


def test_monotone_corners_reads_integer_bounds():
    # a float bound is not truncated, and a string is not parsed
    for box in [(2.7, 1), ("3", 1)]:
        with pytest.raises(DomainError, match="box bound must be an integer"):
            monotone_corners(lambda w: w[0] + w[1], 1, box)


def test_monotone_corners_three_dims():
    corners = monotone_corners(lambda w: min(w), 1, (3, 3, 3))
    assert corners == [(1, 1, 1)]


@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=4
    )
)
@settings(max_examples=40, deadline=None)
def test_monotone_corners_antichain_and_cover(seeds):
    def oracle(w):
        return 1 if any(all(x >= s for x, s in zip(w, seed)) for seed in seeds) else 0

    corners = monotone_corners(oracle, 1, (5, 5))
    for a in corners:
        for b in corners:
            if a != b:
                assert not all(x >= y for x, y in zip(a, b))
    for x in range(6):
        for y in range(6):
            if oracle((x, y)) >= 1:
                assert any(x >= u and y >= v for u, v in corners)


def _seeded_oracles(seed, count):
    """(oracle, c, box): seeded monotone oracles on boxes of dimension 1-4, in
    turn a linear form, the min and the max of weighted coordinates (weights
    0-3), and the indicator of the up-set of one to four seeded points."""
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        box = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 4)))
        if k % 4 == 3:
            seeds = [tuple(rng.randint(0, b) for b in box) for _ in range(rng.randint(1, 4))]
            cases.append((partial(_in_up_set, seeds), 1, box))
            continue
        weights = tuple(rng.randint(0, 3) for _ in box)
        kind = (sum, min, max)[k % 4]
        oracle = partial(_weighted, kind, weights)
        cases.append((oracle, rng.randint(0, oracle(box) + 1), box))
    return cases


def _weighted(kind, weights, v):
    return kind(a * x for a, x in zip(weights, v))


def _in_up_set(seeds, v):
    return int(any(all(x >= s for x, s in zip(v, seed)) for seed in seeds))


def _corners_by_scan(oracle, c, box):
    """The reference route: the corner sweep as the package ran it before its
    one lexicographic pass.  The same spot check of monotonicity, then every
    cell in (sum, lex) order, skipped when it dominates a corner found so far
    (a scan of those corners), else given to the oracle."""
    rng = random.Random(0)
    for _ in range(64):
        v = tuple(rng.randint(0, b) for b in box)
        w = tuple(rng.randint(0, x) for x in v)
        if oracle(w) > oracle(v):
            raise DomainError(f"oracle is not monotone: f({w}) > f({v})")
    points = sorted(product(*(range(b + 1) for b in box)), key=lambda v: (sum(v), v))
    corners = []
    for v in points:
        if any(all(x >= y for x, y in zip(v, u)) for u in corners):
            continue
        if oracle(v) >= c:
            corners.append(v)
    return sorted(corners)


def test_monotone_corners_match_the_corner_scan():
    # the same corners, and the oracle called on the same cells the same
    # number of times, as the reference route; {0, 1}^12 is the slowest box
    # the budget admits, with the 924 corners of its middle layer
    cases = _seeded_oracles(38, 300) + [(sum, 6, (1,) * 12)]
    for oracle, c, box in cases:
        calls = []
        for route in (monotone_corners, _corners_by_scan):
            seen = Counter()
            calls.append((route(lambda v: seen.update([v]) or oracle(v), c, box), seen))
        (got, got_calls), (want, want_calls) = calls
        assert got == want and got_calls == want_calls, (box, c)
    # the 64 pairs of the spot check, and the 2,510 cells of sum at most 6
    assert len(got) == 924 and sum(got_calls.values()) == 2 * 64 + 2510
