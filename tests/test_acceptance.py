"""Acceptance gate: one test per release criterion, each self-contained.

Every test recomputes what it checks from scratch (no fixture shares a
result), so the runtime budgets asserted here measure the real cost of the
computation.
Run with -v for the one-line pass/fail verdict per criterion, add -s to see
the measured times.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from cold_commands import CRITERION_10
from delpezzo import (
    AInvariantClass,
    BreakResult,
    CountingModel,
    HeightBelowModel,
    HirzebruchModel,
    MbbSource,
    NonIntegralCoefficient,
    NormalBundleType,
    a_invariant,
    alpha,
    break_section,
    classify_vertical_family,
    conic_bundle_extension_analysis,
    convergence_report,
    count_exact,
    default_model,
    enumerate_conic_classes,
    enumerate_neg_one_curves,
    find_diagonal_cubic_subgroup,
    fuzz_blow_up_sequences,
    generate_group,
    glue_normal_bundle,
    gw_thresholds,
    invariant_sublattice,
    lattice_points_at_height,
    load_profile,
    make_lattice,
    mbb_bound,
    minimal_moving_height,
    orbits,
    orbits_under_generators,
    pair,
    polarized_del_pezzo,
    q_of_x,
    reachable_balanced_heights,
    weyl_generators,
)
from delpezzo.fujita import PolarizedSurface
from delpezzo.thresholds import FibrationProfile, NefConeEta


class _budget:
    """Context manager asserting the block finishes inside its time budget."""

    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        dt = time.perf_counter() - self.t0
        print(f"{self.label}: PASS in {dt:.2f}s (budget {self.seconds}s)")
        assert dt < self.seconds, f"{self.label} took {dt:.2f}s > {self.seconds}s"
        return False


LINE_COUNTS = [0, 1, 3, 6, 10, 16, 27, 56, 240]


def test_criterion_01_line_counts_with_orbit_cross_check():
    with _budget("criterion 01 (line counts)", 10.0):
        for n, expected in enumerate(LINE_COUNTS):
            lat = make_lattice(n)
            lines = enumerate_neg_one_curves(lat)
            assert len(lines) == expected
            for c in lines:
                assert pair(lat, c, c) == -1
                assert -pair(lat, lat.canonical, c) == 1
        # the 27 classes on the degree-3 fiber split as three orbits of nine
        # under the diagonal-cubic monodromy subgroup, recovering the count
        lat6 = make_lattice(6)
        full = generate_group(weyl_generators(lat6))
        sub = find_diagonal_cubic_subgroup(full, lat6)
        sizes = orbits(sub, enumerate_neg_one_curves(lat6)).sizes
        assert sizes == [9, 9, 9]
        assert sum(sizes) == LINE_COUNTS[6] == 27


def test_criterion_02_e6_order_transitivity_pairing():
    with _budget("criterion 02 (Weyl group machinery)", 60.0):
        lat = make_lattice(6)
        gens = weyl_generators(lat)
        group = generate_group(gens)
        assert group.order == 51840

        lines = enumerate_neg_one_curves(lat)
        assert orbits_under_generators(gens, lines).sizes == [27]

        mats = group.element_matrices()
        gram = np.array([1, -1, -1, -1, -1, -1, -1], dtype=np.int64)
        rng = random.Random(20260814)
        for _ in range(100):
            u = np.array([rng.randint(-6, 6) for _ in range(7)], dtype=np.int64)
            v = np.array([rng.randint(-6, 6) for _ in range(7)], dtype=np.int64)
            expected = pair(lat, tuple(int(x) for x in u), tuple(int(x) for x in v))
            gu = mats @ u
            gv = mats @ v
            values = np.einsum("ni,i,ni->n", gu, gram, gv)
            assert (values == expected).all()


def test_criterion_03_diagonal_cubic_subgroup():
    with _budget("criterion 03 (diagonal-cubic monodromy)", 300.0):
        lat = make_lattice(6)
        full = generate_group(weyl_generators(lat))
        sub = find_diagonal_cubic_subgroup(full, lat)

        # elementary abelian of order 27 and exponent 3
        assert sub.order == 27
        mats = sub.element_matrices()
        identity = np.eye(7, dtype=np.int64)
        for m in mats:
            assert np.array_equal(m @ m @ m, identity)
        for a, b in itertools.combinations(mats, 2):
            assert np.array_equal(a @ b, b @ a)

        assert orbits(sub, enumerate_neg_one_curves(lat)).sizes == [9, 9, 9]
        assert orbits(sub, enumerate_conic_classes(lat)).sizes == [9, 9, 9]

        invariant = invariant_sublattice(sub, lat)
        assert len(invariant) == 1
        assert invariant == [lat.anticanonical]


def test_criterion_04_conic_bundle_extension_orbits():
    with _budget("criterion 04 (conic-bundle extension)", 300.0):
        analysis = conic_bundle_extension_analysis()
        assert analysis["ambient_order"] == 384
        assert analysis["sigma_central"] is True
        assert analysis["claims_verified"] is True

        entries = analysis["subgroups"]
        non_split = [e for e in entries if not e["split"]]
        split = [e for e in entries if e["split"]]
        assert len(non_split) == 8 and len(split) == 8

        for e in non_split:
            assert e["orbit_sizes"] == [16]
        for e in split:
            small = [s for s in e["orbit_sizes"] if s in (2, 4, 8)]
            assert small and min(small) <= 8


def test_criterion_05_fujita_values_and_dictionary():
    plane = PolarizedSurface(
        gram=((1,),),
        canonical=(-3,),
        eff_generators=((1,),),
        polarization=(1,),
    )
    a_plane = a_invariant(plane)
    assert isinstance(a_plane, Fraction) and a_plane == 3

    for n in range(9):
        a = a_invariant(polarized_del_pezzo(make_lattice(n)))
        assert isinstance(a, Fraction) and a == 1

    lat6 = make_lattice(6)
    line = (0, 1, 0, 0, 0, 0, 0)
    conic = (1, -1, 0, 0, 0, 0, 0)
    assert line in enumerate_neg_one_curves(lat6)
    assert conic in enumerate_conic_classes(lat6)
    table = [
        (line, 3, AInvariantClass.GREATER_THAN_ONE),
        (conic, 3, AInvariantClass.EQUAL_ONE),
        (make_lattice(7).anticanonical, 2, AInvariantClass.EQUAL_ONE),
        (make_lattice(8).anticanonical, 1, AInvariantClass.GREATER_THAN_ONE),
    ]
    for c, degree, expected in table:
        assert classify_vertical_family(c, degree) is expected
    print("criterion 05 (Fujita invariants): PASS")


def test_criterion_06_threshold_values():
    cubic = load_profile("cubic-pencil")
    hyper = load_profile("hypersurface-23")
    diagonal = load_profile("diagonal-cubic")

    # recompute the six-term maximum from the profile fields as a
    # transcription check against the library implementation
    def six_term_max(p):
        md = max((v for _, v in p.maxdef_table), default=0)
        pos = max(0, -p.neg)
        return max(
            3,
            -2 * p.neg - 5,
            -p.neg + 3,
            2 * md - 5 * p.neg - 5,
            2 * md - p.neg - 3,
            2 * md + 2 + 2 * pos,
        )

    assert q_of_x(cubic) == six_term_max(cubic) == 6
    assert q_of_x(hyper) == six_term_max(hyper) == 8

    assert mbb_bound(diagonal) == (3, MbbSource.IMPROVED_LEMMA)
    assert mbb_bound(hyper) == (3, MbbSource.IMPROVED_LEMMA)

    gw = gw_thresholds(cubic)
    assert gw.n_even == 4
    assert gw.n_odd == 2
    print("criterion 06 (threshold values): PASS")


def test_criterion_07_ruled_surface_suite():
    with _budget("criterion 07 (ruled-surface suite)", 30.0):
        with pytest.raises(HeightBelowModel):
            break_section(0, 1)
        with pytest.raises(NonIntegralCoefficient):
            break_section(4, 1)
        assert break_section(5, 1) == BreakResult(rigid=3, movable=2, residual="T")

        for e in range(7):
            assert minimal_moving_height(HirzebruchModel(e)) == e

        report = fuzz_blow_up_sequences(count=1000, depth=8, seed=2026)
        assert report["all_passed"] is True
        assert report["trials"] == 1000
        assert report["second_minus_one_checks"] > 0
        # marked components are kept at multiplicity one by construction,
        # so every trial must contract back to the smooth model
        assert report["contractions"] == 1000


def test_criterion_08_gluing_rules_and_reachability():
    for a in range(5):
        assert glue_normal_bundle(NormalBundleType(a, a), 3) == NormalBundleType(
            a + 1, a + 2
        )
        assert glue_normal_bundle(NormalBundleType(a, a), 4) == NormalBundleType(
            a + 2, a + 2
        )
        assert glue_normal_bundle(NormalBundleType(a, a + 1), 3) == NormalBundleType(
            a + 2, a + 2
        )
        assert glue_normal_bundle(NormalBundleType(a, a + 1), 4) == NormalBundleType(
            a + 2, a + 3
        )

    for start in (NormalBundleType(3, 3), NormalBundleType(2, 3)):
        h_max = start.height + 10
        reach = reachable_balanced_heights(start, h_max)
        types = {h: nb for h, nb in reach}
        for h in range(start.height + 6, h_max + 1):
            assert h in types
            assert types[h] == NormalBundleType(h // 2, h - h // 2)
    print("criterion 08 (gluing and reachability): PASS")


def _synthetic_profile(rho, neg, gens, cov):
    return FibrationProfile(
        name="synthetic",
        fiber_degree=3,
        rho_eta=rho,
        neg=neg,
        maxdef_table=(),
        brauer_order=1,
        num_profiles=1,
        lattice_index=1,
        has_ff_conic=False,
        nef_cone_eta=NefConeEta(generators=gens, height=cov),
    )


def test_criterion_09_alpha_and_counting_asymptotics():
    assert alpha(((1,),), (1,)).value == 1
    assert alpha(((1,),), (3,)).value == Fraction(1, 3)
    assert alpha(((1, 0), (0, 1)), (2, 2)).value == Fraction(1, 4)

    q = Fraction(2)
    rank1 = _synthetic_profile(1, -1, ((1,),), (1,))
    m1 = CountingModel(profile=rank1, translates=((1,),), q=q)
    for d in range(1, 51):
        assert count_exact(m1, d) == q**2 * (q ** (d + 1) - q) / (q - 1)

    rank2 = _synthetic_profile(2, 0, ((1, 0), (0, 1)), (1, 1))
    m2 = CountingModel(profile=rank2, translates=((0, 0),), q=q)
    rep2 = convergence_report(m2, 40)
    limit = rep2["measured_offset"]
    last = rep2["rows"][-1]["ratio"]
    assert abs(last - limit) <= abs(limit) * Fraction(1, 20)
    assert rep2["stabilizes"] is True

    # unimodular cones with unit-height generators: the slice count is a
    # polynomial whose leading behaviour is exactly (rho-1)! * alpha
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
        counts = [lattice_points_at_height(gens, cov, origin, i) for i in range(10)]
        diff = counts
        for _ in range(rho - 1):
            diff = [y - x for x, y in zip(diff, diff[1:])]
        assert all(v == factorial(rho - 1) * a for v in diff)

    # the stabilized constant sits a fixed power of q above the closed-form
    # constant; the report exposes both and the offset, with no equality claim
    rep = convergence_report(default_model(load_profile("cubic-pencil"), q), 8)
    assert "measured_offset" in rep
    assert rep["empirical_constant"] == rep["theorem_constant"] * rep["measured_offset"]
    print(f"criterion 09 (counting): PASS, reported offset {rep['measured_offset']}")


def test_criterion_10_cli_determinism(cli):
    for args, _ in CRITERION_10:
        first = cli(args)
        second = cli(args)
        assert first.exit_code == 0, f"{args} exited {first.exit_code}"
        assert second.exit_code == 0
        assert first.output == second.output, f"non-deterministic output for {args}"
        json.loads(first.output)  # every command's JSON output must reparse
    print("criterion 10 (CLI determinism): PASS")
