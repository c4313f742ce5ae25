import dataclasses
import re
from functools import partial

import numpy as np
import pytest

from delpezzo import (
    CapExceeded,
    DomainError,
    FiberTree,
    FieldError,
    HirzebruchModel,
    NefConeEta,
    NormalBundleType,
    PolarizedSurface,
    SectionClass,
    a_invariant,
    alpha,
    anticanonical_degree,
    break_fiber_class,
    break_section,
    check_cap,
    classify_kind,
    classify_vertical_family,
    count_exact,
    decompose_nef_integral,
    default_model,
    enumerate_neg_one_curves,
    fuzz_blow_up_sequences,
    generate_group,
    glue_normal_bundle,
    hirzebruch_polarized,
    invariant_sublattice,
    is_nef,
    load_profile,
    make_lattice,
    maxdef_height_bound,
    minimal_moving_height,
    model_from_json,
    monotone_corners,
    nef_classes_of_height,
    nef_curve_cone,
    orbits_under_generators,
    pair,
    polarized_del_pezzo,
    reachable_balanced_heights,
    trivial_group,
    validate_isometry,
    weyl_generators,
)
from delpezzo import counting, curves, weyl
from delpezzo.errors import _check_budget, _ints, _json_document, _json_field, _json_rational
from delpezzo.linalg import cone_contains, dual_cone_rays
from delpezzo.ruled import FUZZ_BUDGET, check_fuzz_budget


def _pencil():
    return default_model(load_profile("cubic-pencil"), 2)


# (budget patched for the call, the call, the refusal's message): every work
# budget of the package, each passed by one unit and refused through
# `_check_budget`
_REFUSALS = {
    "closure-check-cap": (
        None, lambda: check_cap(11, 10), "group closure passed the cap of 10 elements"
    ),
    "closure-generate-group": (
        None,
        lambda: generate_group(weyl_generators(make_lattice(5)), cap=1919),
        "group closure passed the cap of 1919 elements",
    ),
    "class-search": (
        (curves, "SEARCH_BUDGET", 34_849),
        lambda: nef_classes_of_height(make_lattice(8), 3),
        "the class search for height 3 on 8 blow-ups would visit more than 34849 prefixes",
    ),
    "break-fiber-class": (
        (curves, "SEARCH_BUDGET", 69),
        lambda: break_fiber_class(make_lattice(4), (4, -2, -2, -2, -1)),
        "breaking (4, -2, -2, -2, -1) would scan more than 69 classes",
    ),
    "count-powers": (
        None,
        lambda: count_exact(_pencil(), 2047),
        "--dmax 2047 with dim_rule 2 is past the counting budget: powers of q at most "
        "4096 bits, so for a q of 2 bits exponents at most 2048 in size",
    ),
    "count-scan": (
        (counting, "COUNT_BUDGET", 11),
        lambda: count_exact(_pencil(), 10),
        "--dmax 10 is past the counting budget: the height slices of this cone would "
        "count up to 12 column-generator pairs, at most 11",
    ),
    "q-exponent": (
        None,
        lambda: _json_rational("1e4097", 4096),
        "a decimal exponent larger in size than 4096 is past the counting budget",
    ),
    "fuzz": (
        None,
        lambda: check_fuzz_budget(FUZZ_BUDGET + 1, 1),
        "--trials 32769 x --depth 1 is past the fuzz budget: trials x depth at most 32768",
    ),
    "corners": (
        None,
        lambda: monotone_corners(lambda w: 0, 1, (16, 240)),
        "a box of 4097 cells is past the corner budget of 4096",
    ),
}


@pytest.mark.parametrize("patch, call, message", _REFUSALS.values(), ids=_REFUSALS)
def test_every_budget_refuses_with_cap_exceeded(monkeypatch, patch, call, message):
    if patch:
        monkeypatch.setattr(*patch)
    with pytest.raises(CapExceeded) as ex:
        call()
    assert isinstance(ex.value, DomainError) and str(ex.value) == message


def test_budget_admits_its_amount():
    _check_budget(3, 3, "m")
    _check_budget(np.int64(3), np.int8(3), "m")
    for amount in (4, 10**100):
        with pytest.raises(CapExceeded, match="^m$"):
            _check_budget(amount, 3, "m")
    # the exponent is read up to one digit past the budget's size, and no more
    for q in ("1e00004097", "1e10000", "1e" + "9" * 5000):
        with pytest.raises(CapExceeded):
            _json_rational(q, 4096)


@pytest.mark.parametrize(
    "call",
    [lambda: check_cap(5, "x"), lambda: check_cap(5.0, 10), lambda: _check_budget(1.5, 3, "m")],
    ids=["cap", "count", "amount"],
)
def test_budget_reads_integers(call):
    with pytest.raises(DomainError, match="must be an integer") as ex:
        call()
    assert type(ex.value) is DomainError


def _asymmetric():
    return PolarizedSurface(
        gram=((0, 1), (2, 0)),
        canonical=(-2, -3),
        eff_generators=((1, 0), (0, 1)),
        polarization=(2, 3),
    )


@pytest.mark.parametrize(
    "call, words",
    [
        (lambda: trivial_group(-1), "needs rank >= 1"),
        (lambda: trivial_group(0), "needs rank >= 1"),
        (lambda: trivial_group(2.0), "rank must be an integer"),
        (lambda: minimal_moving_height(HirzebruchModel(1.5)), "must be an integer"),
        (lambda: break_section(2.5, 0.5), "must be an integer"),
        (lambda: break_section(3, 1.0), "must be an integer"),
        (lambda: a_invariant(_asymmetric()), "gram is not symmetric"),
        # the power budget's own read refuses it too, naming no argument
        (lambda: counting.check_count_budget(_pencil(), 2.5), "d must be an integer"),
    ],
    ids=[
        "trivial-group-negative", "trivial-group-zero", "trivial-group-float",
        "hirzebruch-e", "break-section-q", "break-section-e", "asymmetric-gram",
        "count-budget-d",
    ],
)
def test_degenerate_inputs_are_refused(call, words):
    with pytest.raises(DomainError, match=re.escape(words)):
        call()


_LAT3, _C3 = make_lattice(3), (3, -1, -1, -1)
_PENCIL = load_profile("cubic-pencil")


def _with_generator(M):
    """W(E3) on `_LAT3`, its generators replaced by the one matrix M."""
    return dataclasses.replace(generate_group(weyl_generators(_LAT3)), generators=(M,))


# (call, the message it must raise): a bool, a float, None or a non-iterable
# where an integer or a vector is meant, each read by `errors._index` or
# `errors._ints`
_NOT_INTEGERS = {
    "make-lattice-bool": (lambda: make_lattice(True), "blow-up count must be an integer"),
    "pair-bool": (lambda: pair(_LAT3, (True, 0, 0, 0), _C3), "non-integer coordinates"),
    "pair-none": (lambda: pair(_LAT3, None, _C3), "non-integer coordinates"),
    "is-nef-int": (lambda: is_nef(_LAT3, 5), "non-integer coordinates"),
    "classify-kind-int": (lambda: classify_kind(_LAT3, 5), "non-integer coordinates"),
    "vertical-family-int": (
        lambda: classify_vertical_family(5, 3), "vertical class has non-integer coordinates"
    ),
    "polarized-del-pezzo-int": (
        lambda: polarized_del_pezzo(_LAT3, 5), "polarization has a non-integer entry"
    ),
    "hirzebruch-polarized-int": (
        lambda: hirzebruch_polarized(1, 5), "polarization has a non-integer entry"
    ),
    "section-class": (lambda: SectionClass(1.5), "section coefficient k must be an integer"),
    "normal-bundle": (lambda: NormalBundleType(1.5, 2), "degree a must be an integer"),
    "reachable-h-max": (
        lambda: reachable_balanced_heights(NormalBundleType(1, 1), 10.5),
        "h_max must be an integer",
    ),
    "glue-vertical-degree": (
        lambda: glue_normal_bundle(NormalBundleType(1, 1), 3.0),
        "vertical degree must be an integer",
    ),
    "profile-brauer-order": (
        lambda: dataclasses.replace(_PENCIL, brauer_order=1.5),
        "brauer_order must be an integer",
    ),
    "profile-neg": (lambda: dataclasses.replace(_PENCIL, neg=-1.5), "neg must be an integer"),
    "maxdef-height-bound": (
        lambda: maxdef_height_bound(_PENCIL, -1, 2.5), "point count n must be an integer"
    ),
    "hirzebruch-bool": (
        lambda: hirzebruch_polarized(True), "Hirzebruch parameter must be an integer"
    ),
    "classify-fiber-degree": (
        lambda: classify_vertical_family((1, 0, 0, 0, 0, 0, 0), 3.0),
        "fiber degree must be an integer",
    ),
    "fuzz-bool": (lambda: fuzz_blow_up_sequences(True, 2), "must be integers"),
    "fiber-tree-bool": (
        lambda: FiberTree(((0, True),), ()), "fiber tree entries must be integers, in pairs"
    ),
    "generate-group-bool": (
        lambda: generate_group([((True, 0), (0, True))]), "generator entries must be integers"
    ),
    "alpha-none": (lambda: alpha(None, (1,)), "generator entry must be an integer"),
    "nef-cone-none": (lambda: NefConeEta(None, (1,)), "generator entry must be an integer"),
    "corners-none": (
        lambda: monotone_corners(lambda w: 0, 1, None), "box bound must be an integer"
    ),
    "dual-cone-float": (
        lambda: dual_cone_rays([(1, 0), (0.5, 1)]), "inequality normal entry must be an integer"
    ),
    "dual-cone-bool": (
        lambda: dual_cone_rays([(True, False), (False, True)]),
        "inequality normal entry must be an integer",
    ),
    "dual-cone-none": (
        lambda: dual_cone_rays([(1, 0), None]), "inequality normal entry must be an integer"
    ),
    "invariant-sublattice-float": (
        lambda: invariant_sublattice(_with_generator(((1.5, 0, 0, 0),) * 4), _LAT3),
        "generator entries must be integers",
    ),
}


@pytest.mark.parametrize("call, words", _NOT_INTEGERS.values(), ids=_NOT_INTEGERS)
def test_integer_reads_refuse_what_is_not_an_integer(call, words):
    with pytest.raises(DomainError, match=re.escape(words)):
        call()


# (call, the message it must raise): a None or a row of the wrong length
# where a matrix, a table or a cone is meant, or a flat list where a class
# set is, each refused with DomainError before any entry is used
_MALFORMED = {
    "isometry-none": (
        lambda: validate_isometry(make_lattice(2), None), "isometry entries must be integers"
    ),
    "polarized-gram-none": (
        lambda: PolarizedSurface(gram=None, canonical=(-2, -3), eff_generators=((1, 0), (0, 1)),
                                 polarization=(2, 3)),
        "polarized surface gram has a non-integer entry",
    ),
    "maxdef-row-not-a-pair": (
        lambda: dataclasses.replace(_PENCIL, maxdef_table=((-1,),)),
        "maxdef table rows must be (height, value) pairs",
    ),
    "nef-cone-eta-none": (
        lambda: dataclasses.replace(_PENCIL, nef_cone_eta=None),
        "nef_cone_eta must be a NefConeEta",
    ),
    "cone-contains-bool": (
        lambda: cone_contains(curves._nef_normals(_LAT3), np.array([True, False, False, False])),
        "cone membership entry is not an integer",
    ),
    # ragged operands, which numpy reads with a ValueError of its own
    "cone-contains-ragged": (
        lambda: cone_contains([(1, 1)], [(1, 2), (3,)]), "cone membership entry is not an integer"
    ),
    "dual-cone-ragged": (
        lambda: dual_cone_rays([(1, 0), (0, 1), (1, 1, 1)]), "inequality normals differ in length"
    ),
    "orbits-ragged": (
        lambda: orbits_under_generators(weyl_generators(make_lattice(3)), [(1, 0, 0, 0), (1, 0)]),
        "class images need integer entries",
    ),
    "orbits-flat": (
        lambda: orbits_under_generators(weyl_generators(_LAT3), [5]),
        "the class set is not two-dimensional",
    ),
    "permutation-action-flat": (
        lambda: weyl._permutation_action(weyl_generators(_LAT3), [5]),
        "the class set is not two-dimensional",
    ),
    "is-nef-lattice-none": (
        lambda: is_nef(None, (1, 0, 0, 0)), "lattice must be a PicardLattice, got None"
    ),
    "nef-classes-lattice-none": (
        lambda: nef_classes_of_height(None, 2), "lattice must be a PicardLattice, got None"
    ),
    "neg-one-curves-lattice-tuple": (
        lambda: enumerate_neg_one_curves((3,)), "lattice must be a PicardLattice, got (3,)"
    ),
    "weyl-generators-lattice-str": (
        lambda: weyl_generators("x"), "lattice must be a PicardLattice, got 'x'"
    ),
    "pair-lattice-str": (lambda: pair("x", (1, 0), (1, 0)), "lattice must be a PicardLattice"),
    "anticanonical-degree-lattice-none": (
        lambda: anticanonical_degree(None, (1, 0, 0, 0)), "lattice must be a PicardLattice"
    ),
    "decompose-lattice-none": (
        lambda: decompose_nef_integral(None, (1, 0, 0, 0)), "lattice must be a PicardLattice"
    ),
    "polarized-del-pezzo-lattice-none": (
        lambda: polarized_del_pezzo(None, (3, -1, -1, -1)), "lattice must be a PicardLattice"
    ),
    "nef-curve-cone-lattice-list": (
        lambda: nef_curve_cone([3]), "lattice must be a PicardLattice, got [3]"
    ),
    "invariant-sublattice-lattice-none": (
        lambda: invariant_sublattice(trivial_group(4), None), "lattice must be a PicardLattice"
    ),
    "invariant-sublattice-generator-shape": (
        lambda: invariant_sublattice(_with_generator(((1, 0), (0, 1))), _LAT3),
        "generator shape does not match rank 4",
    ),
}


@pytest.mark.parametrize("call, words", _MALFORMED.values(), ids=_MALFORMED)
def test_malformed_inputs_are_domain_errors(call, words):
    with pytest.raises(DomainError, match=re.escape(words)):
        call()


def test_budget_refused_in_a_json_field_is_both():
    # the field's FieldError and the CapExceeded that `--q 1e5000` raises
    doc = {"profile": "cubic-pencil", "translates": [[-1]], "q": "1e5000"}
    with pytest.raises(CapExceeded, match="field 'q': a decimal exponent") as ex:
        model_from_json(doc)
    assert isinstance(ex.value, FieldError) and ex.value.path == "q"
    # a nested document's refusal keeps both classes under the outer key
    inner = partial(_json_field, "inner", key="q", convert=lambda x: _json_rational(x, 4096))
    with pytest.raises(CapExceeded) as ex:
        _json_field("outer", {"doc": {"q": "1e5000"}}, "doc", lambda d: inner(data=d))
    assert isinstance(ex.value, FieldError) and ex.value.path == "doc.q"
    # a refusal across fields stays a CapExceeded, and names the document
    for refusal, kind in ((CapExceeded("over"), CapExceeded), (DomainError("bad"), DomainError)):
        with pytest.raises(kind, match="^outer JSON: ") as ex:
            with _json_document("outer", {}):
                raise refusal
        assert type(ex.value) is kind


def test_integer_reads_keep_python_ints():
    assert trivial_group(np.int64(1)).order == 1
    assert type(HirzebruchModel(np.int64(2)).e) is int
    parts = break_section(np.int64(5), np.int8(1))
    assert (parts.rigid, parts.movable) == (3, 2)
    assert all(type(x) is int for x in (parts.rigid, parts.movable))
    # vectors and matrices come back as Python ints through `_ints`
    u, v = np.array([1, 0, -1, 0], dtype=np.int64), np.array(_C3, dtype=np.int64)
    assert type(pair(_LAT3, u, v)) is int and pair(_LAT3, u, v) == pair(_LAT3, (1, 0, -1, 0), _C3)
    rows = _ints(np.array([[1, 2], [3, 4]], dtype=np.int8), "m", 2)
    assert rows == ((1, 2), (3, 4)) and {type(x) for row in rows for x in row} == {int}
    assert type(SectionClass(np.int64(2)).k) is int
    nb = NormalBundleType(np.int64(1), np.int16(2))
    assert nb == NormalBundleType(1, 2) and type(nb.a) is type(nb.b) is int
    profile = dataclasses.replace(_PENCIL, neg=np.int64(-1), maxdef_table=np.array([[-1, 1]]))
    assert profile == _PENCIL and type(profile.neg) is int
    assert {type(x) for row in profile.maxdef_table for x in row} == {int}
