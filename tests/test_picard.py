from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from delpezzo import (
    DomainError,
    anticanonical_degree,
    generate_group,
    make_lattice,
    pair,
    weyl_generators,
)


def test_lattice_shapes():
    for n in range(9):
        lat = make_lattice(n)
        assert lat.rank == n + 1
        assert lat.degree == 9 - n
        assert lat.canonical == (-3,) + (1,) * n
        assert lat.anticanonical == (3,) + (-1,) * n
        assert lat.gram[0][0] == 1
        for i in range(1, n + 1):
            assert lat.gram[i][i] == -1
        assert sum(abs(x) for row in lat.gram for x in row) == n + 1


def test_make_lattice_domain():
    with pytest.raises(DomainError):
        make_lattice(-1)
    with pytest.raises(DomainError):
        make_lattice(9)


def test_pair_examples():
    lat = make_lattice(2)
    H = (1, 0, 0)
    E1 = (0, 1, 0)
    E2 = (0, 0, 1)
    assert pair(lat, H, H) == 1
    assert pair(lat, E1, E1) == -1
    assert pair(lat, H, E1) == 0
    assert pair(lat, E1, E2) == 0
    line = (1, -1, -1)
    assert pair(lat, line, line) == -1
    assert anticanonical_degree(lat, line) == 1
    assert anticanonical_degree(lat, lat.anticanonical) == lat.degree
    # numpy integers become Python ints, so products past int64 stay exact
    assert pair(lat, np.array(line), np.array(line, dtype=np.int8)) == -1
    assert anticanonical_degree(lat, np.array(line)) == 1
    big = np.array([2**40, 0, 0], dtype=np.int64)
    value = pair(lat, big, big)
    assert type(value) is int and value == 2**80
    # the rows of group elements pair like the tuples they hold
    lat3 = make_lattice(3)
    for M in generate_group(weyl_generators(lat3)).element_matrices():
        ints = [tuple(int(x) for x in row) for row in M]
        for row, t in zip(M, ints):
            assert pair(lat3, row, M[0]) == pair(lat3, t, ints[0])


def test_pair_length_validation():
    lat = make_lattice(3)
    with pytest.raises(DomainError):
        pair(lat, (1, 0), (1, 0, 0, 0))
    with pytest.raises(DomainError):
        anticanonical_degree(lat, (1, 0))
    for bad in (
        np.array([1.0, 0.0, 0.0, 0.0]),
        (1, np.float64(0), 0, 0),
        (1, Fraction(1, 1), 0, 0),
        (1, "0", 0, 0),
    ):
        with pytest.raises(DomainError, match="non-integer"):
            pair(lat, bad, (1, 0, 0, 0))


vecs = st.integers(-9, 9)


@given(st.integers(0, 6), st.data())
def test_pair_symmetric_bilinear(n, data):
    lat = make_lattice(n)
    rank = n + 1
    u = tuple(data.draw(st.tuples(*[vecs] * rank)))
    v = tuple(data.draw(st.tuples(*[vecs] * rank)))
    w = tuple(data.draw(st.tuples(*[vecs] * rank)))
    assert pair(lat, u, v) == pair(lat, v, u)
    uv = tuple(a + b for a, b in zip(u, v))
    assert pair(lat, uv, w) == pair(lat, u, w) + pair(lat, v, w)


@given(st.integers(0, 8))
def test_canonical_self_intersection(n):
    lat = make_lattice(n)
    assert pair(lat, lat.canonical, lat.canonical) == 9 - n
    assert anticanonical_degree(lat, lat.anticanonical) == 9 - n


def test_make_lattice_refuses_a_float():
    with pytest.raises(DomainError, match="blow-up count must be an integer"):
        make_lattice(2.0)


def test_make_lattice_reads_numpy_integers_as_ints():
    lat = make_lattice(np.int64(3))
    assert type(lat.n) is int and type(lat.rank) is int and type(lat.degree) is int
    assert lat == make_lattice(3)
