"""Picard lattices of blow-ups of the plane, in the geometric basis.

A lattice of blow-up count n has rank n+1, intersection form
diag(1, -1, ..., -1) in the basis (H, E_1, ..., E_n), canonical class
K = -3H + E_1 + ... + E_n, and degree K.K = 9 - n.  Vectors are plain integer
tuples in that basis.  All arithmetic is exact.  `WEYL_ORDERS` holds the
known order of each lattice's Weyl group, so `check_cap` can refuse a closure
past its budget (`DEFAULT_CAP` elements by default) before it starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, _check_budget, _index, _ints

Vec = tuple[int, ...]

DEFAULT_CAP = 4_000_000

# |W(E_n)| for n = 0..8 blow-ups, the Weyl group of the roots in K^perp:
# trivial for n <= 1, then A1, A2 x A1, A4, D5, E6, E7, E8
WEYL_ORDERS = (1, 1, 2, 12, 120, 1920, 51840, 2903040, 696729600)


def check_cap(count: int, cap: int) -> None:
    """Raise CapExceeded when a closure of `count` elements passes `cap`."""
    _check_budget(count, cap, f"group closure passed the cap of {cap} elements")


def _check_vec(lat: "PicardLattice", v) -> Vec:
    """The vector as a tuple of Python ints, read by `errors._ints`: a bool,
    a float or a v that is not a vector raises DomainError, as does a length
    other than the rank."""
    v = _ints(v, "vector has non-integer coordinates")
    if len(v) != _lattice(lat).rank:
        raise DomainError(f"vector length {len(v)} does not match lattice rank {lat.rank}")
    return v


@dataclass(frozen=True)
class PicardLattice:
    n: int
    rank: int = field(init=False)
    gram: tuple[tuple[int, ...], ...] = field(init=False)
    canonical: Vec = field(init=False)
    degree: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _index(self.n, "blow-up count"))
        if not (0 <= self.n <= 8):
            raise DomainError(f"blow-up count n={self.n} outside 0..8")
        r = self.n + 1
        object.__setattr__(self, "rank", r)
        gram = tuple(
            tuple((1 if i == 0 else -1) if i == j else 0 for j in range(r))
            for i in range(r)
        )
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "canonical", (-3,) + (1,) * self.n)
        object.__setattr__(self, "degree", 9 - self.n)

    @property
    def anticanonical(self) -> Vec:
        return tuple(-x for x in self.canonical)


def _lattice(lat) -> PicardLattice:
    """lat itself; anything but a PicardLattice raises DomainError.  Each path
    of the package that takes a lattice reads it here before touching it."""
    if isinstance(lat, PicardLattice):
        return lat
    raise DomainError(f"lattice must be a PicardLattice, got {lat!r}")


def make_lattice(n: int) -> PicardLattice:
    """Lattice of the plane blown up at n points (0 <= n <= 8)."""
    return PicardLattice(n)


def pair(lat: PicardLattice, a, b) -> int:
    """Intersection pairing a.b = a0*b0 - sum_i ai*bi."""
    a = _check_vec(lat, a)
    b = _check_vec(lat, b)
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def anticanonical_degree(lat: PicardLattice, c) -> int:
    """Degree of c against -K, i.e. pair(-K, c); `pair` checks c."""
    return pair(lat, _lattice(lat).anticanonical, c)
