import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo import (
    INFINITE_A,
    AInvariantClass,
    DomainError,
    PolarizedSurface,
    a_invariant,
    classify_vertical_family,
    enumerate_neg_one_curves,
    hirzebruch_polarized,
    larger_a_locus,
    make_lattice,
    nef_classes_of_height,
    polarized_del_pezzo,
)
from delpezzo.linalg import dual_cone_rays

GT = AInvariantClass.GREATER_THAN_ONE
EQ = AInvariantClass.EQUAL_ONE
LT = AInvariantClass.LESS_THAN_ONE


def test_plane_hyperplane_class():
    surf = polarized_del_pezzo(make_lattice(0), polarization=(1,))
    assert a_invariant(surf) == Fraction(3)


@pytest.mark.parametrize("degree", range(1, 10))
def test_del_pezzo_anticanonical(degree):
    surf = polarized_del_pezzo(make_lattice(9 - degree))
    a = a_invariant(surf)
    assert a == Fraction(1)
    assert isinstance(a, Fraction)


@pytest.mark.parametrize("e", [0, 1, 2])
def test_hirzebruch_anticanonical(e):
    assert a_invariant(hirzebruch_polarized(e)) == 1


def test_hirzebruch_not_nef():
    with pytest.raises(DomainError):
        a_invariant(hirzebruch_polarized(3))
    with pytest.raises(DomainError):
        hirzebruch_polarized(-1)


def test_fiber_class_not_big():
    surf = hirzebruch_polarized(1, polarization=(0, 1))
    assert a_invariant(surf) is INFINITE_A


def test_homogeneity():
    lat = make_lattice(3)
    L = lat.anticanonical
    two_L = tuple(2 * x for x in L)
    a1 = a_invariant(polarized_del_pezzo(lat, polarization=L))
    a2 = a_invariant(polarized_del_pezzo(lat, polarization=two_L))
    assert a2 == a1 / 2


DICTIONARY = [
    # (class-description, fiber degree, expected)
    ((0, 1), 8, GT),                    # (-1)-class on a degree-8 fiber
    ((0, 1, 0, 0, 0, 0, 0, 0), 2, GT),  # (-1)-class, low degree
    ((3,) + (-1,) * 8, 1, GT),          # anticanonical on a degree-1 fiber
    ((1, -1), 8, EQ),                   # conic
    ((1, -1, 0, 0, 0, 0, 0), 3, EQ),    # conic on a cubic fiber
    ((6,) + (-2,) * 8, 1, EQ),          # twice anticanonical, degree 1
    ((3, -1, -1, -1, -1, -1, -1), 3, LT),   # anticanonical, degree 3
    ((1, 0, 0, 0, 0, 0, 0), 3, LT),     # cubic line pullback
    ((6,) + (-2,) * 7, 2, LT),          # twice anticanonical, degree 2
]


@pytest.mark.parametrize("c, degree, expected", DICTIONARY)
def test_classification_dictionary(c, degree, expected):
    assert classify_vertical_family(c, degree) == expected


def test_degree_two_anticanonical_flag():
    # -K + E_8 on the degree-1 fiber is the pullback of the anticanonical
    # series from the degree-2 contraction: self-intersection 2, degree 2,
    # so no enumerable kind recognizes it and only the caller tag places it
    pullback = (3, -1, -1, -1, -1, -1, -1, -1, 0)
    with pytest.raises(DomainError):
        classify_vertical_family(pullback, 1)
    flagged = classify_vertical_family(
        pullback, 1, pullback_of_degree_two_anticanonical=True
    )
    assert flagged == EQ
    # recognized kinds take precedence over the tag
    line = (0, 1, 0, 0, 0, 0, 0, 0, 0)
    assert (
        classify_vertical_family(
            line, 1, pullback_of_degree_two_anticanonical=True
        )
        == GT
    )
    with pytest.raises(DomainError):
        classify_vertical_family(
            (1, -1), 8, pullback_of_degree_two_anticanonical=True
        )


def test_classification_errors():
    with pytest.raises(DomainError):
        classify_vertical_family((2, 0, 0, 0, 0, 0, 0), 3)  # unrecognized
    with pytest.raises(DomainError):
        classify_vertical_family((0, 1), 10)
    with pytest.raises(DomainError):
        classify_vertical_family((0, 1, 0), 8)  # rank mismatch


def test_larger_a_locus_sizes():
    assert len(larger_a_locus(make_lattice(6))) == 27
    assert len(larger_a_locus(make_lattice(0))) == 0
    locus8 = larger_a_locus(make_lattice(8))
    assert len(locus8) == 241
    assert make_lattice(8).anticanonical in locus8


def test_larger_a_locus_members_classify_gt():
    lat = make_lattice(5)
    for c in larger_a_locus(lat):
        assert classify_vertical_family(c, lat.degree) == GT


def test_polarized_surface_validation():
    with pytest.raises(DomainError):
        PolarizedSurface(
            gram=((1, 0), (0, -1)),
            canonical=(-3, 1, 1),
            eff_generators=((0, 1),),
            polarization=(1, 0),
        )


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=30, deadline=None)
def test_homogeneity_random(n, k, data):
    lat = make_lattice(n)
    pool = nef_classes_of_height(lat, 3)
    base = data.draw(st.sampled_from(pool))
    # interior shift keeps the class big: add the anticanonical class
    L = tuple(b + a for b, a in zip(base, lat.anticanonical))
    a1 = a_invariant(polarized_del_pezzo(lat, polarization=L))
    ak = a_invariant(
        polarized_del_pezzo(lat, polarization=tuple(k * x for x in L))
    )
    assert ak == a1 / k
    assert a1 > 0



def _gram_pair(gram, a, b):
    """a . b through the gram, as a plain double loop over its entries."""
    return sum(a[i] * gram[i][j] * b[j] for i in range(len(a)) for j in range(len(b)))



def _folded(gram, v):
    """The functional x -> v . x through the gram, as a double loop."""
    r = len(gram)
    return tuple(sum(v[i] * gram[i][j] for i in range(r)) for j in range(r))


@lru_cache(maxsize=None)
def _paired_facets(gram, generators):
    """Each facet f of the effective cone as its functional x -> f . x,
    shared by every polarization of a lattice."""
    normals = [_folded(gram, g) for g in generators]  # the gram is symmetric
    return [_folded(gram, f) for f in dual_cone_rays(normals)]

def _a_invariant_oracle(s):
    """The a-invariant from exact Python pairings: every generator against L,
    then the largest -(f . K) / (f . L) over the facets f."""
    L = s.polarization
    for g in s.eff_generators:
        if _gram_pair(s.gram, L, g) < 0:
            raise DomainError(f"polarization {L} is not nef: negative against {g}")
    ratios = []
    for f in _paired_facets(s.gram, s.eff_generators):
        on_l = sum(a * b for a, b in zip(f, L))
        if on_l == 0:
            return INFINITE_A
        ratios.append(Fraction(-sum(a * b for a, b in zip(f, s.canonical)), on_l))
    return max(ratios)


def _same_as_oracle(s):
    try:
        want = _a_invariant_oracle(s)
    except DomainError as ex:
        with pytest.raises(DomainError, match=re.escape(str(ex))):
            a_invariant(s)
        return "refused"
    got = a_invariant(s)
    assert got == want and type(got) is type(want)
    return "infinite" if got is INFINITE_A else "finite"


@pytest.mark.parametrize("n", range(9))
def test_a_invariant_matches_gram_oracle(n):
    # -K, seeded sums of nef classes (half of them made big by adding -K),
    # nef classes that are not big, and a random class that is rarely nef
    lat = make_lattice(n)
    rng = random.Random(100 + n)
    pool = nef_classes_of_height(lat, 3) + nef_classes_of_height(lat, 2)
    polarizations = [lat.anticanonical] + pool[:2]
    for k in range(6):
        L = [0] * lat.rank
        for c in rng.sample(pool, min(len(pool), rng.randint(1, 3))):
            L = [a + rng.randint(1, 3) * b for a, b in zip(L, c)]
        if k % 2:
            L = [a + b for a, b in zip(L, lat.anticanonical)]
        polarizations.append(tuple(L))
    polarizations.append(tuple(rng.randint(-2, 2) for _ in range(lat.rank)))
    seen = {_same_as_oracle(polarized_del_pezzo(lat, L)) for L in polarizations}
    assert "finite" in seen


@pytest.mark.parametrize("e", range(7))
def test_hirzebruch_a_invariant_matches_gram_oracle(e):
    cases = [None, (0, 1), (1, e), (1, e + 1), (2, 2 * e + 3), (1, e - 1), (-1, 0)]
    seen = [_same_as_oracle(hirzebruch_polarized(e, L)) for L in cases]
    assert seen[1] == "infinite" and seen[-1] == "refused" and "finite" in seen
