import re

import numpy as np
import pytest

from delpezzo import (
    CapExceeded,
    DomainError,
    HirzebruchModel,
    PolarizedSurface,
    a_invariant,
    break_fiber_class,
    break_section,
    check_cap,
    count_exact,
    default_model,
    generate_group,
    load_profile,
    make_lattice,
    minimal_moving_height,
    monotone_corners,
    nef_classes_of_height,
    trivial_group,
    weyl_generators,
)
from delpezzo import counting, curves
from delpezzo.errors import _check_budget, _json_rational
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


def test_integer_reads_keep_python_ints():
    assert trivial_group(np.int64(1)).order == 1
    assert type(HirzebruchModel(np.int64(2)).e) is int
    parts = break_section(np.int64(5), np.int8(1))
    assert (parts.rigid, parts.movable) == (3, 2)
    assert all(type(x) is int for x in (parts.rigid, parts.movable))
