import dataclasses
import functools
import hashlib
import itertools
import random
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo import (
    CapExceeded,
    DomainError,
    NotFound,
    ToolkitError,
    conic_bundle_extension_analysis,
    enumerate_conic_classes,
    enumerate_cubic_classes,
    enumerate_neg_one_curves,
    find_diagonal_cubic_subgroup,
    generate_group,
    invariant_sublattice,
    make_lattice,
    orbits,
    orbits_under_generators,
    pair,
    simple_roots,
    trivial_group,
    validate_isometry,
    weyl_generators,
)
from delpezzo.linalg import _BLOCK
from delpezzo.picard import DEFAULT_CAP
from delpezzo.picard import WEYL_ORDERS as CLOSED_FORM_ORDERS
from delpezzo.weyl import (
    FiniteGroup,
    _coset_table,
    _left_table,
    _orbit_labels,
    _order3_elements,
    _order3_indices,
    _permutation_action,
    _products,
    _row_keys,
    _signed_perm_matrix,
    _signed_perm_table,
)

WEYL_ORDERS = {2: 2, 3: 12, 4: 120, 5: 1920, 6: 51840}
# sha256 of the sorted int8 table `elements.tobytes()` of each W(E_n)
WEYL_TABLE_DIGESTS = {
    2: "e700394b594690ee6875d3c305ac012096752914e71133c52950855af051d3aa",
    3: "a0bbfb78e26f183cec1a4622c99b3fbf772d829b7ba3b264df1861f4efef551b",
    4: "c50ba7e72faaa35e358fc5db3b9dca1d3048bede518c2a2647e0805db7af053d",
    5: "ad5aa8c10f3bb43e75f13e12be82c10aa5ee23452433703da52f37e886b4e8a0",
    6: "67a1cd231df0e616578114fbf8813a4edf9dae2c25e4cf486fd481a0a0fd4656",
    7: "2f966a3528463fdbc27bf01f6f6200cbcf5eb019923c1f5482e62970064937ed",
}


def _table_digest(group):
    return hashlib.sha256(group.elements.tobytes()).hexdigest()


def test_simple_roots():
    lat = make_lattice(4)
    roots = simple_roots(lat)
    assert len(roots) == 4
    for r in roots:
        assert pair(lat, r, r) == -2
        assert pair(lat, r, lat.canonical) == 0


@pytest.mark.parametrize("n", sorted(WEYL_ORDERS))
def test_weyl_orders(n):
    lat = make_lattice(n)
    group = generate_group(weyl_generators(lat))
    assert group.order == WEYL_ORDERS[n]
    assert _table_digest(group) == WEYL_TABLE_DIGESTS[n]


def _line_action_order(n):
    """|W(E_n)| by Schreier-Sims on its faithful permutation action on lines."""
    from sympy.combinatorics import Permutation, PermutationGroup

    lat = make_lattice(n)
    gens = weyl_generators(lat)
    lines = enumerate_neg_one_curves(lat)
    index = {c: k for k, c in enumerate(lines)}
    images = [np.array(lines) @ np.array(g).T for g in gens]
    perms = [Permutation([index[tuple(row)] for row in im.tolist()]) for im in images]
    return PermutationGroup(perms).order()


def test_weyl_e7_order_vs_permutation_oracle():
    # independent route: Schreier-Sims on the 56-line permutation action
    assert _line_action_order(7) == 2903040


def test_closed_form_orders():
    # the orders `delpezzo weyl` refuses by before closing anything
    assert CLOSED_FORM_ORDERS[:2] == (1, 1)
    assert not weyl_generators(make_lattice(0)) and not weyl_generators(make_lattice(1))
    for n in range(2, 9):
        assert CLOSED_FORM_ORDERS[n] == _line_action_order(n)


def test_weyl_e7_order_by_closure():
    # the breadth-first closure itself; the heaviest test in the suite
    lat = make_lattice(7)
    group = generate_group(weyl_generators(lat))
    assert group.order == 2903040
    assert _table_digest(group) == WEYL_TABLE_DIGESTS[7]


def _record_tables_written(monkeypatch):
    """Patch `_coset_table`; the list returned grows by the order of each
    table it writes."""
    written = []

    def record(subgroup, levels):
        table = _coset_table(subgroup, levels)
        written.append(len(table))
        return table

    monkeypatch.setattr("delpezzo.weyl._coset_table", record)
    return written


@pytest.mark.parametrize("n", range(2, 8))
def test_order_needs_no_table(monkeypatch, n):
    # every tower step but the last writes its table, which the next
    # generator's membership test reads; the order is the last subgroup's
    # order times its count of cosets, and no table of it is written
    written = _record_tables_written(monkeypatch)
    group = generate_group(weyl_generators(make_lattice(n)))
    assert group.order == CLOSED_FORM_ORDERS[n]
    assert max(written) < group.order


def test_elements_are_written_once(monkeypatch):
    written = _record_tables_written(monkeypatch)
    group = generate_group(weyl_generators(make_lattice(5)))
    before = len(written)
    elements = group.elements
    assert group.elements is elements and not elements.flags.writeable
    assert written[before:] == [1920]


def test_e7_order_peak():
    # the last step of W(E7) along its simple roots is 576 cosets of S_7:
    # counted from a table of 5,040 elements, where the whole table of
    # 2,903,040 takes 186 MB; numpy reports its buffers to tracemalloc
    gens = weyl_generators(make_lattice(7))
    tracemalloc.start()
    try:
        assert generate_group(gens).order == 2903040
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_cap_refusal():
    lat = make_lattice(8)
    with pytest.raises(CapExceeded):
        generate_group(weyl_generators(lat), cap=200_000)


@pytest.mark.parametrize("n", [5, 6])
def test_cap_is_exact(n):
    # the closure refuses exactly when the order passes the cap
    gens = weyl_generators(make_lattice(n))
    assert generate_group(gens, cap=WEYL_ORDERS[n]).order == WEYL_ORDERS[n]
    with pytest.raises(CapExceeded):
        generate_group(gens, cap=WEYL_ORDERS[n] - 1)


@pytest.mark.parametrize("gens", [[[[1]]], weyl_generators(make_lattice(3))])
@pytest.mark.parametrize("cap", [0, -1])
def test_cap_below_one_refuses(gens, cap):
    # the identity alone already passes a cap below 1
    with pytest.raises(CapExceeded):
        generate_group(gens, cap=cap)


@pytest.mark.parametrize("n, cap", [(8, DEFAULT_CAP), (7, 2_000_000)])
def test_refused_step_writes_nothing(n, cap):
    # the last tower step of W(E8) (or W(E7)) over S_8 (or S_7) passes the
    # cap after about 100 (or 400) cosets: it is refused from its count of
    # representatives, before any of its elements is written; numpy reports
    # its buffers to tracemalloc, so the peak covers the table
    gens = weyl_generators(make_lattice(n))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            generate_group(gens, cap=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def _bfs_table(gens):
    """The closure of integer matrices by a plain breadth-first search over
    tuples, as the int8 bytes of its elements in sorted order."""
    r = len(gens[0])
    ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                p = tuple(
                    tuple(sum(a[i][m] * g[m][j] for m in range(r)) for j in range(r))
                    for i in range(r)
                )
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    keys = sorted(struct.pack(f"{r * r}b", *(x for row in M for x in row)) for M in seen)
    return b"".join(keys)


def _signed_perm_gens():
    flips = [
        _signed_perm_matrix((0, 1, 2, 3), tuple(-1 if j == i else 1 for j in range(4)))
        for i in range(4)
    ]
    plus = (1, 1, 1, 1)
    return [_signed_perm_matrix((1, 0, 2, 3), plus), _signed_perm_matrix((1, 2, 3, 0), plus)] + flips


CLOSURE_CASES = {
    "W(E2)": (lambda: weyl_generators(make_lattice(2)), 2),
    "W(E3)": (lambda: weyl_generators(make_lattice(3)), 12),
    "W(E4)": (lambda: weyl_generators(make_lattice(4)), 120),
    "signed-perm-4": (_signed_perm_gens, 384),
    # a rotation of order 3; the generating set holds no inverse
    "order-3": (lambda: [((0, -1), (1, -1))], 3),
}


@pytest.mark.parametrize("case", sorted(CLOSURE_CASES))
def test_closure_matches_python_bfs(case):
    make_gens, order = CLOSURE_CASES[case]
    gens = make_gens()
    group = generate_group(gens)
    assert group.order == order
    assert group.elements.tobytes() == _bfs_table(gens)


def _mat_product(a, b):
    r = len(a)
    return tuple(
        tuple(sum(a[i][m] * b[m][j] for m in range(r)) for j in range(r)) for i in range(r)
    )


def _dimino_cases():
    """(label, generators, generating set of the same group for the oracle)."""
    e8 = weyl_generators(make_lattice(8))
    for i in range(8):
        for j in range(i + 1, 8):
            yield f"W(E8) s{i} s{j}", [e8[i], e8[j]], [e8[i], e8[j]]
    e6 = weyl_generators(make_lattice(6))
    # s2 s5 has order 3: the roots E3 - E4 and H - E1 - E2 - E3 are adjacent
    sub6 = [e6[1], e6[3], _mat_product(e6[2], e6[5])]
    yield "W(E6) subgroup of order 192", sub6, sub6
    e5 = weyl_generators(make_lattice(5))
    eye = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
    # the oracle closes the simple reflections alone
    yield "W(E5) redundant", e5[:2] + [_mat_product(e5[0], e5[1]), eye] + e5[2:], e5
    # a Coxeter element c and one simple reflection, in both orders: one
    # tower step of large index over the small cyclic group <c> or <s0>
    c = functools.reduce(_mat_product, e5)
    yield "W(E5) <c, s0>", [c, e5[0]], [c, e5[0]]


def test_dimino_matches_python_bfs():
    orders = set()
    for label, gens, oracle_gens in _dimino_cases():
        table = _bfs_table(oracle_gens)
        order = len(table) // len(gens[0]) ** 2
        # a cap at the order also stops a closure that would repeat a coset
        for order_of_gens in (gens, gens[::-1]):
            group = generate_group(order_of_gens, cap=order)
            assert group.elements.tobytes() == table, label
        orders.add(order)
    assert sorted(orders) == [4, 6, 192, 384, 1920]
    # the last tower step of signed-perm-4 adds several cosets per level
    gens = _signed_perm_gens()
    assert generate_group(gens, cap=384).order == 384
    with pytest.raises(CapExceeded):
        generate_group(gens, cap=383)
    with pytest.raises(DomainError, match="not invertible"):
        generate_group(gens + [((1, 0, 0, 0),) * 4])


def test_closure_int8_edges():
    # as errors: a product past float16's range would overflow it with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # -128 is inside int8
        assert generate_group([((1, 0), (-128, -1))]).order == 2
        # the squares' partial sums reach 127 * 127 before cancelling to 1
        assert generate_group([((127, 126), (-128, -127))]).order == 2
        # 2 ** 8 leaves int8; 5 * 127 * 127 leaves it by more than float16 holds
        for gens in ([((1, 0), (128, -1))], [[[2]]], [[[127] * 5] * 5]):
            with pytest.raises(ToolkitError):
                generate_group(gens)
    # from rank 1024 on the products run in float64
    swap = np.eye(1024, dtype=np.int64)[[1, 0, *range(2, 1024)]]
    group = generate_group([swap])
    eye = np.eye(1024, dtype=np.int8)
    assert group.elements.tobytes() == swap.astype(np.int8).tobytes() + eye.tobytes()


@pytest.mark.parametrize(
    "gens",
    [
        [],
        [[[1.5]]],
        [np.eye(2)],
        [[[2**70]]],
        [[[1, 0, 0], [0, 1, 0]]],
        [[[]]],
        [[[1]], [[1, 0], [0, 1]]],
        [5],
        [[[0]]],
        [[[0, 1], [0, 0]]],
        # the square is diag(0, 1): no power equals its predecessor
        [[[0, 0], [0, -1]]],
    ],
    ids=["none", "float", "float-array", "past-int64", "2x3", "empty-row", "mixed-ranks", "scalar",
         "singular", "nilpotent", "period-2-singular"],
)
def test_closure_refuses_bad_generators(gens):
    with pytest.raises(DomainError):
        generate_group(gens)


def test_group_table(we6):
    table = we6.elements
    assert table.dtype == np.int8 and table.shape == (51840, 7, 7)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 0
    keys = [row.tobytes() for row in table.reshape(len(table), -1)]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    mats = we6.element_matrices()
    assert mats.dtype == np.int64 and (mats == table).all()


def test_diagonal_subgroup_scan_order(diag_subgroup):
    # pins the canonical order in which the search scans W(E6)
    digest = hashlib.sha256(diag_subgroup.element_matrices().tobytes()).hexdigest()
    assert digest == (
        "c0eb300afffe358e009deddae7f6f99a3697e2a6259c438434877544edc79130"
    )


def test_order3_filter_matches_line_permutations(we6, lat6):
    # the old route: line permutations P of the whole table, P^3 = id != P
    P = _permutation_action(we6.elements, enumerate_neg_one_curves(lat6))
    P3 = np.take_along_axis(P, np.take_along_axis(P, P, axis=1), axis=1)
    ident = np.arange(P.shape[1])
    oracle = np.flatnonzero((P3 == ident).all(axis=1) & (P != ident).any(axis=1))
    cand = _order3_indices(we6.elements)
    assert cand.tolist() == oracle.tolist()
    # the three classes of order 3, told apart by their trace on Pic: 7
    # minus 3 per A2 factor, so -2, 1 and 4 for A2^3, A2^2 and A2
    traces = we6.elements[cand].trace(axis1=1, axis2=2).tolist()
    assert {t: traces.count(t) for t in set(traces)} == {-2: 80, 1: 480, 4: 240}
    assert len(cand) == 800


def _order3_by_table(group):
    """The old route: every element of the table, cubed."""
    return group.elements[_order3_indices(group.elements)]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_order3_elements_match_table_route(n):
    # the coset route against cubes of the whole table, for W(E_n) on its own
    # lattice and given by its table; for W(E6) also along the simple roots
    # reversed and rotated (towers of 720 x 72, 1920 x 27 and 240 x 216)
    gens = weyl_generators(make_lattice(n))
    towers = (gens, gens[::-1], gens[2:] + gens[:2]) if n == 6 else (gens,)
    groups = [generate_group(g) for g in towers]
    groups.append(FiniteGroup(groups[0].elements, groups[0].generators))
    for group in groups:
        found, expected = _order3_elements(group), _order3_by_table(group)
        assert found.dtype == np.int8 and found.shape == expected.shape
        assert len(found) and found.tobytes() == expected.tobytes()


def test_diagonal_search_without_order3_elements(lat6):
    # a group of rank 7 with no element of order 3 has no candidate: an
    # empty stack, and the search ends in NotFound
    reflection = generate_group(weyl_generators(lat6)[:1])
    for group in (trivial_group(7), reflection):
        assert _order3_elements(group).shape == (0, 7, 7)
        with pytest.raises(NotFound):
            find_diagonal_cubic_subgroup(group, lat6)


def test_diagonal_search_writes_no_table(diag_subgroup, lat6):
    # on a fresh W(E6) the search reads its order-3 elements off the cosets:
    # it never writes the 51,840-element table (2.5 MB of int8 alone) and
    # returns the same subgroup as the session's search
    group = generate_group(weyl_generators(lat6))
    tracemalloc.start()
    try:
        found = find_diagonal_cubic_subgroup(group, lat6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "elements" not in group.__dict__
    assert peak < 4 * 2**20
    assert found.elements.tobytes() == diag_subgroup.elements.tobytes()


def _peak(f, *args) -> int:
    """The tracemalloc peak of f(*args) in bytes; numpy reports its buffers to
    tracemalloc, so the peak covers the arrays."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_peaks(lat6):
    # every kernel forms at most one block of _BLOCK entries at a time: the
    # 256 conic-bundle candidates labelled at once took 12.8 MB, the
    # diagonal search on a fresh W(E6) 3.3 MB, and the images of the 800
    # elements of order 3 on the 27 lines in one block 2.9 MB
    group = generate_group(weyl_generators(lat6))
    cand, lines = _order3_elements(group), enumerate_neg_one_curves(lat6)
    assert len(cand) == 800 and len(lines) == 27
    assert _peak(conic_bundle_extension_analysis) < 2 * 2**20
    assert _peak(find_diagonal_cubic_subgroup, group, lat6) < 1.5 * 2**20
    assert _peak(_permutation_action, cand, lines) < 1 * 2**20
    # the order-3 scan formed the traces of all 720 x 72 coset products at
    # once: 0.69 MB
    assert _peak(_order3_elements, group) < 0.6 * 2**20


def test_whole_table_action_peak(we6, lat6):
    # the action of W(E6)'s 51,840 elements on its 27 lines took 22.2 MB when
    # the operands were bounded in one float64 copy and converted whole; the
    # permutations alone are 5.3 MB
    table, lines = we6.elements, enumerate_neg_one_curves(lat6)
    assert _peak(_permutation_action, table, lines) < 8 * 2**20


def test_trivial_group():
    group = trivial_group(4)
    assert group.order == 1 and group.generators == ()
    assert (group.element_matrices() == np.eye(4, dtype=np.int64)).all()


def test_validate_isometry():
    lat = make_lattice(2)
    gens = weyl_generators(lat)
    for g in gens:
        validate_isometry(lat, g)
    bad = ((2, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(DomainError, match="does not preserve the pairing"):
        validate_isometry(lat, bad)
    # E1 -> -E1 preserves the pairing but moves K; swapping E1 and E2 fixes it
    with pytest.raises(DomainError, match="does not fix the canonical class"):
        validate_isometry(lat, ((1, 0, 0), (0, -1, 0), (0, 0, 1)))
    validate_isometry(lat, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))


def test_pairing_preserved_on_random_pairs(we6, lat6):
    rng = random.Random(12345)
    mats = we6.element_matrices()
    for _ in range(100):
        g = mats[rng.randrange(len(mats))]
        u = tuple(rng.randint(-6, 6) for _ in range(7))
        v = tuple(rng.randint(-6, 6) for _ in range(7))
        gu = tuple(int(x) for x in g @ np.array(u))
        gv = tuple(int(x) for x in g @ np.array(v))
        assert pair(lat6, gu, gv) == pair(lat6, u, v)
        assert tuple(int(x) for x in g @ np.array(lat6.canonical)) == lat6.canonical


def test_lines_transitive_under_full_group(lat6):
    lines = enumerate_neg_one_curves(lat6)
    part = orbits_under_generators(weyl_generators(lat6), lines)
    assert part.sizes == [27]


def test_orbit_closure_violation():
    # E_1 and the fixed line H-E_1-E_2, but not E_2: the swap escapes the set
    lat = make_lattice(2)
    with pytest.raises(DomainError):
        orbits_under_generators(
            weyl_generators(lat), [(0, 1, 0), (1, -1, -1)]
        )
    with pytest.raises(DomainError, match="duplicates"):
        orbits_under_generators(
            weyl_generators(lat), [(0, 1, 0), (1, -1, -1), (0, 0, 1), (0, 1, 0)]
        )


def _orbits_by_elements(mats, classes):
    """Orbits read off every element matrix of a materialized group."""
    found, covered = [], set()
    for c in classes:
        if c not in covered:
            images = np.unique(mats @ np.array(c, dtype=np.int64), axis=0)
            found.append(tuple(sorted(tuple(int(x) for x in row) for row in images)))
            covered.update(found[-1])
    return tuple(sorted(found))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_orbits_match_group_elements(n):
    lat = make_lattice(n)
    gens = weyl_generators(lat)
    class_sets = [
        enumerate_neg_one_curves(lat),
        enumerate_conic_classes(lat),
        [c for c, _ in enumerate_cubic_classes(lat)],
    ]
    for subgens in (gens, gens[:2]):
        mats = generate_group(subgens).element_matrices()
        for classes in class_sets:
            part = orbits_under_generators(subgens, classes)
            assert part.orbits == _orbits_by_elements(mats, classes)


def _orbits_by_python_ints(gens, classes):
    """Orbits by breadth-first search, every image a sum of Python int
    products over the nonzero entries of each generator row."""
    sparse = [[[(j, a) for j, a in enumerate(row) if a] for row in g] for g in gens]
    found, covered = [], set()
    for c in classes:
        if c in covered:
            continue
        orbit, frontier = {c}, [c]
        while frontier:
            v = frontier.pop()
            for g in sparse:
                w = tuple(sum(a * v[j] for j, a in row) for row in g)
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        found.append(tuple(sorted(orbit)))
        covered |= orbit
    return tuple(sorted(found))


@pytest.mark.parametrize("n, kind", [(8, "cubics"), (6, "conics")])
def test_orbits_match_python_ints(n, kind):
    # both class sets have zero coordinates and the generators -1 entries, so
    # a float product can write -0.0, whose bytes differ from those of 0.0
    lat = make_lattice(n)
    if kind == "cubics":
        classes = [c for c, _ in enumerate_cubic_classes(lat)]
    else:
        classes = enumerate_conic_classes(lat)
    gens = weyl_generators(lat)
    assert orbits_under_generators(gens, classes).orbits == _orbits_by_python_ints(gens, classes)


def test_permutation_action_keys_integer_rows(monkeypatch, lat6):
    # small entries make the images float32 products, and a BLAS that starts
    # a sum from its first product can write -0.0, whose bytes differ from
    # those of 0.0: every class and image the action keys must be an integer
    # row, in the narrowest signed dtype that holds the classes' entries
    keyed = []

    def integer_keys(rows):
        assert rows.dtype.kind in "iu", rows.dtype
        keyed.append(rows.dtype)
        return _row_keys(rows)

    monkeypatch.setattr("delpezzo.weyl._row_keys", integer_keys)
    gens = weyl_generators(lat6)
    assert orbits_under_generators(gens, enumerate_conic_classes(lat6)).sizes == [27]
    assert _permutation_action(gens, enumerate_neg_one_curves(lat6)).shape == (6, 27)
    assert set(keyed) == {np.dtype(np.int8)}
    keyed.clear()
    lat8 = make_lattice(8)
    cubics = [c for c, _ in enumerate_cubic_classes(lat8)]
    assert orbits_under_generators(weyl_generators(lat8), cubics).sizes == [240, 17280]
    assert set(keyed) == {np.dtype(np.int8)}
    for top, dtype in ((2**31 - 1, np.int32), (2**31, np.int64)):  # the edge of int32
        keyed.clear()
        assert _permutation_action([[[1, 0], [0, 1]]], [(-(2**31), top)]).tolist() == [[0]]
        assert set(keyed) == {np.dtype(dtype)}


def test_permutation_action_narrow_keys_stay_exact():
    # the classes' entries fit int8 but the image 257 of the first does not:
    # narrowed, it would wrap onto (1, 0), so it must be a miss instead
    with pytest.raises(DomainError, match="class set is not closed: a matrix moves \\(1, 0\\)"):
        _permutation_action([[[257, 0], [0, 1]]], [(1, 0), (0, 1)])
    # two classes that float64 keys would merge into a false duplicate
    assert _permutation_action([[[1, 0], [0, 1]]], [(-1, 2**60), (-1, 2**60 + 1)]).tolist() == [[0, 1]]


def test_orbits_past_small_entries(lat6):
    # 25 (H - E1) and its images have entries well past 20
    conics = [tuple(25 * x for x in c) for c in enumerate_conic_classes(lat6)]
    assert orbits_under_generators(weyl_generators(lat6), conics).sizes == [27]


def test_orbits_refuse_inexact_entries():
    gens = weyl_generators(make_lattice(3))
    # not an int64, and an int64 whose image under s_{H-E1-E2-E3} is 2**63
    for big in (2**70, 2**62):
        with pytest.raises(DomainError, match="int64"):
            orbits_under_generators(gens, [(big, 0, 0, 0)])


def test_orbits_trivial_group():
    lat = make_lattice(3)
    lines = enumerate_neg_one_curves(lat)
    part = orbits(trivial_group(lat.rank), lines)
    assert part.sizes == [1] * len(lines)


def test_orbit_sizes_divide_group_order():
    lat = make_lattice(4)
    group = generate_group(weyl_generators(lat))
    for vectors in (enumerate_neg_one_curves(lat), enumerate_conic_classes(lat)):
        part = orbits(group, vectors)
        for s in part.sizes:
            assert group.order % s == 0


def test_invariant_sublattice_full_group(we6, lat6):
    basis = invariant_sublattice(we6, lat6)
    assert basis == [lat6.anticanonical]


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_invariant_sublattice_reads_array_generators(lat6, dtype):
    # generators as numpy arrays, a stack or a tuple of matrices, give the
    # tuples' basis in Python ints
    group = generate_group(weyl_generators(lat6)[:2])
    want = invariant_sublattice(group, lat6)
    assert len(want) == 5
    stack = np.array(group.generators, dtype=dtype)
    for gens in (stack, tuple(stack)):
        basis = invariant_sublattice(dataclasses.replace(group, generators=gens), lat6)
        assert basis == want and {type(x) for v in basis for x in v} == {int}


def test_diagonal_cubic_subgroup(diag_subgroup, lat6):
    sub = diag_subgroup
    assert sub.order == 27
    mats = sub.element_matrices()
    for M in mats:
        cube = M @ M @ M
        assert (cube == np.eye(7, dtype=np.int64)).all()
    lines = enumerate_neg_one_curves(lat6)
    conics = enumerate_conic_classes(lat6)
    assert orbits(sub, lines).sizes == [9, 9, 9]
    assert orbits(sub, conics).sizes == [9, 9, 9]
    basis = invariant_sublattice(sub, lat6)
    assert basis == [lat6.anticanonical]


def test_diagonal_cubic_search_needs_n6():
    from delpezzo import find_diagonal_cubic_subgroup

    lat = make_lattice(5)
    group = generate_group(weyl_generators(lat))
    with pytest.raises(DomainError):
        find_diagonal_cubic_subgroup(group, lat)


def test_rank_mismatch_is_a_domain_error(we6, lat6, monkeypatch):
    # the generators' rank must be the lattice's, in both directions; the
    # check comes before any element table is read
    e2 = generate_group(weyl_generators(make_lattice(2)))
    wide = generate_group(weyl_generators(make_lattice(7))[:3])
    for group, lat in ((we6, make_lattice(2)), (e2, lat6), (trivial_group(3), lat6)):
        with pytest.raises(DomainError, match="rank"):
            invariant_sublattice(group, lat)
    monkeypatch.setattr("delpezzo.weyl._coset_table", None)
    for group in (e2, wide, trivial_group(3)):
        with pytest.raises(DomainError, match="rank"):
            find_diagonal_cubic_subgroup(group, lat6)


def test_signed_perm_matrix():
    # (g.v)_i = signs_i * v[perm^-1(i)], written out without matrices
    def act(perm, signs, v):
        inv = [perm.index(i) for i in range(4)]
        return tuple(signs[i] * v[inv[i]] for i in range(4))

    pairs = [
        ((0, 1, 2, 3), (1, 1, 1, 1)),
        ((1, 0, 2, 3), (1, 1, -1, 1)),
        ((0, 2, 1, 3), (-1, 1, 1, 1)),
        ((1, 2, 3, 0), (-1, 1, -1, -1)),
        ((3, 0, 2, 1), (1, -1, -1, 1)),
    ]
    for a in pairs:
        M = np.array(_signed_perm_matrix(*a))
        for b in pairs:
            N = np.array(_signed_perm_matrix(*b))
            for v in [(3, 5, 7, 11), (-2, 13, 1, -4)]:
                assert tuple(M @ v) == act(*a, v)
                assert tuple(M @ N @ v) == act(*a, act(*b, v))


def test_conic_bundle_extension_analysis():
    report = conic_bundle_extension_analysis()
    assert report["ambient_order"] == 384
    assert report["sigma_central"] is True
    assert report["claims_verified"] is True
    subs = report["subgroups"]
    assert len(subs) == 16
    non_split = [s for s in subs if not s["split"]]
    split = [s for s in subs if s["split"]]
    assert len(non_split) == 8 and len(split) == 8
    for s in non_split:
        assert s["order"] == 48
        assert s["orbit_sizes"] == [16]
    for s in split:
        assert s["order"] == 48
        assert min(s["orbit_sizes"]) <= 8
        assert s["orbit_sizes"] == [2, 6, 8]


def _conic_bundle_report_by_closures() -> dict:
    """The conic-bundle report without tables: one closure per candidate
    <a, b, sigma> and per candidate complement <a', b'>, orbits on the sign
    vectors from `orbits_under_generators`, and centrality as matrix
    products."""
    t_perm, c_perm, ident = (1, 0, 2, 3), (1, 2, 3, 0), (0, 1, 2, 3)
    plus = (1, 1, 1, 1)
    sigma = _signed_perm_matrix(ident, (-1, -1, -1, -1))
    flips = [
        _signed_perm_matrix(ident, tuple(-1 if j == i else 1 for j in range(4)))
        for i in range(4)
    ]
    b4 = generate_group(
        [_signed_perm_matrix(t_perm, plus), _signed_perm_matrix(c_perm, plus)] + flips,
        cap=384,
    )
    mats, sig = b4.element_matrices(), np.array(sigma)
    signs = list(itertools.product((-1, 1), repeat=4))
    found = {}
    for signs_a in signs:
        a = _signed_perm_matrix(t_perm, signs_a)
        for signs_b in signs:
            b = _signed_perm_matrix(c_perm, signs_b)
            group = generate_group([a, b, sigma], cap=384)
            key = group.elements.tobytes()
            if group.order != 48 or key in found:
                continue
            perms = [tuple(p) for p in np.abs(group.elements).argmax(axis=1).tolist()]
            if perms.count(ident) != 2:
                continue
            lifts_t = [m for m, p in zip(group.elements, perms) if p == t_perm]
            lifts_c = [m for m, p in zip(group.elements, perms) if p == c_perm]
            split = any(
                generate_group([at, bc], cap=384).order == 24
                for at in lifts_t
                for bc in lifts_c
            )
            sizes = orbits_under_generators([a, b, sigma], signs).sizes
            found[key] = {"order": 48, "split": split, "orbit_sizes": sizes}
    return {
        "ambient_order": b4.order,
        "sigma_central": bool((mats @ sig == sig @ mats).all()),
        "subgroup_count": len(found),
        "subgroups": sorted(found.values(), key=lambda d: (d["split"], d["orbit_sizes"])),
        "claims_verified": True,
    }


def test_left_table_matches_kron_action():
    # the old route: elems[e] acts on the row-major flattened elements as
    # kron(elems[e], I_4)
    elems = generate_group(_signed_perm_gens(), cap=384).elements
    flat = elems.reshape(len(elems), -1)
    oracle = _permutation_action(np.kron(elems, np.eye(4, dtype=np.int8)), flat)
    assert (_left_table(elems) == oracle).all()


def _conic_bundle_scan_rows():
    """The 33 elements the conic-bundle scan reads, in its order: the 16
    lifts of (0 1), the 16 lifts of (0 1 2 3), then sigma."""
    _, lifts = _signed_perm_table()
    perms = list(itertools.permutations(range(4)))
    t, c = (np.sort(lifts[perms.index(p)]) for p in ((1, 0, 2, 3), (1, 2, 3, 0)))
    return np.concatenate((t, c, [lifts[0, 0]]))


def test_left_table_rows_match_kron_action():
    # each row asked for is the matching row of the full table's oracle, for
    # the scan's 33 rows, seeded subsets (with repeats) and every row reversed
    elems = generate_group(_signed_perm_gens(), cap=384).elements
    flat = elems.reshape(len(elems), -1)
    oracle = _permutation_action(np.kron(elems, np.eye(4, dtype=np.int8)), flat)
    rng = np.random.default_rng(24)
    cases = [_conic_bundle_scan_rows(), [7, 7, 0, 7], np.arange(384)[::-1]]
    cases += [rng.integers(0, 384, size=k) for k in (1, 5, 33, 200, 500)]
    for rows in cases:
        rows = np.asarray(rows)
        left = _left_table(elems, rows)
        assert left.shape == (len(rows), 384)
        assert (left == oracle[rows]).all()


def test_left_table_empty_rows():
    elems = generate_group(_signed_perm_gens(), cap=384).elements
    left = _left_table(elems, np.array([], dtype=int))
    assert left.shape == (0, 384)


def _candidate_blocks(labellings):
    """The leading labellings of the conic-bundle analysis: the blocks that
    label its 256 candidates <a, b, sigma>, three generator rows each, up to
    the first labelling of complements, which has two."""
    return list(itertools.takewhile(lambda perms: len(perms) == 3, labellings))


def test_union_labelling_matches_separate_calls(monkeypatch):
    # copies of B4 side by side, each generator row of copy k offset by
    # k * 384: one labelling of the union is, copy by copy, the labelling of
    # each generator set alone; first on seeded sets, then on each block the
    # analysis labels, whose copies are the 256 candidates in scan order, once
    elems = generate_group(_signed_perm_gens(), cap=384).elements
    left, n = _left_table(elems), len(elems)
    rng = np.random.default_rng(2024)
    for copies, gens in ((1, 1), (5, 2), (40, 3), (64, 1)):
        rows = rng.integers(0, n, size=(gens, copies))
        union = (left[rows] + n * np.arange(copies)[:, None]).reshape(gens, -1)
        label = _orbit_labels(union).reshape(copies, n) - n * np.arange(copies)[:, None]
        for k in range(copies):
            assert (label[k] == _orbit_labels(left[rows[:, k]])).all()
    calls = []

    def record(perms):
        calls.append(perms)
        return _orbit_labels(perms)

    monkeypatch.setattr("delpezzo.weyl._orbit_labels", record)
    conic_bundle_extension_analysis()
    scan = _conic_bundle_scan_rows()
    choices = [left[[a, b, scan[32]]] for a, b in itertools.product(scan[:16], scan[16:32])]
    k = 0
    for perms in _candidate_blocks(calls):
        label = _orbit_labels(perms)
        for j in range(perms.shape[1] // n):
            cols = slice(j * n, (j + 1) * n)
            assert (perms[:, cols] - j * n == choices[k]).all()
            assert (label[cols] - j * n == _orbit_labels(choices[k])).all()
            k += 1
    assert k == len(choices) == 256


def test_conic_bundle_reads_only_its_rows(monkeypatch):
    # the analysis multiplies by the table only the 33 rows it reads, and
    # sigma's centrality costs the 384 products e sigma more; blocks of at
    # most _BLOCK entries label the 256 candidates, each once, and each of
    # the 16 subgroups found takes one labelling for its complements and one
    # for its orbits on sign vectors
    products, labellings = [], []

    def record_products(left, right, out=None):
        products.append((len(left), len(right)))
        return _products(left, right, out)

    def record_labels(perms):
        labellings.append(perms)
        return _orbit_labels(perms)

    monkeypatch.setattr("delpezzo.weyl._products", record_products)
    monkeypatch.setattr("delpezzo.weyl._orbit_labels", record_labels)
    assert conic_bundle_extension_analysis()["subgroup_count"] == 16
    assert sorted(products) == [(33, 384), (384, 1)]
    blocks = _candidate_blocks(labellings)
    assert all(perms.size <= _BLOCK for perms in blocks)
    assert sum(perms.shape[1] for perms in blocks) == 256 * 384
    assert len(labellings) == len(blocks) + 2 * 16


def test_conic_bundle_tables_match_closures():
    # the table reads against the closures they replaced
    assert conic_bundle_extension_analysis() == _conic_bundle_report_by_closures()


def test_signed_perm_table_matches_closure():
    # the routes the construction replaced are the oracle: Dimino's closure of
    # six generators, the identity and sigma by their traces, and each
    # element's permutation by the row of the nonzero entry of each column
    table, lifts = _signed_perm_table()
    assert table.dtype == np.int8 and table.shape == (384, 4, 4)
    assert table.tobytes() == generate_group(_signed_perm_gens(), cap=384).elements.tobytes()
    perms = list(itertools.permutations(range(4)))
    signs = list(itertools.product((-1, 1), repeat=4))
    assert sorted(lifts.ravel().tolist()) == list(range(384))
    trace = table.trace(axis1=1, axis2=2)
    assert np.flatnonzero(trace == 4).tolist() == [lifts[0, signs.index((1, 1, 1, 1))]]
    assert np.flatnonzero(trace == -4).tolist() == [lifts[0, signs.index((-1, -1, -1, -1))]]
    decoded = np.abs(table).argmax(axis=1)
    for p, row in zip(perms, lifts):
        assert (decoded[row] == p).all()
        for s, e in zip(signs, row):
            assert table[e].tolist() == [list(r) for r in _signed_perm_matrix(p, s)]


def test_conic_bundle_analysis_never_closes(monkeypatch):
    # the ambient group is built, not closed: with the closure routine gone
    # the analysis still returns the full report
    def refuse(*args, **kwargs):
        raise AssertionError("generate_group called")

    monkeypatch.setattr("delpezzo.weyl.generate_group", refuse)
    non_split = {"order": 48, "split": False, "orbit_sizes": [16]}
    split = {"order": 48, "split": True, "orbit_sizes": [2, 6, 8]}
    assert conic_bundle_extension_analysis() == {
        "ambient_order": 384,
        "sigma_central": True,
        "subgroup_count": 16,
        "subgroups": [non_split] * 8 + [split] * 8,
        "claims_verified": True,
    }


@given(st.integers(2, 4), st.data())
@settings(max_examples=20, deadline=None)
def test_group_elements_are_isometries(n, data):
    lat = make_lattice(n)
    group = generate_group(weyl_generators(lat))
    mats = group.element_matrices()
    i = data.draw(st.integers(0, len(mats) - 1))
    M = tuple(tuple(int(x) for x in row) for row in mats[i])
    validate_isometry(lat, M)
