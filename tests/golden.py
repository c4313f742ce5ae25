"""Golden digests of library results.

Each key of `golden.json` maps to the sha256 of the canonical JSON (sorted
keys, Fractions as strings) of one result, recomputed by `RESULTS[key]`.
`test_golden.py` checks every digest; a refactor changes none, and a change
that moves a value lists the key and its reason in CHANGES.md.

    PYTHONPATH=src python tests/golden.py --write

rewrites the file and prints the keys that changed.
"""

import hashlib
import json
import random
import sys
from functools import cache
from pathlib import Path

from delpezzo import (
    NormalBundleType,
    a_invariant,
    break_section,
    counting,
    fuzz_blow_up_sequences,
    hirzebruch_polarized,
    larger_a_locus,
    list_shipped_profiles,
    load_profile,
    make_lattice,
    nef_classes_of_height,
    polarized_del_pezzo,
    reachable_balanced_heights,
    threshold_report,
)
from delpezzo.counting import alpha, convergence_report
from delpezzo.errors import DomainError
from test_counting import _random_model, _seeded_cones

GOLDEN = Path(__file__).with_name("golden.json")


def digest(result) -> str:
    text = json.dumps(result, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _refused(f, *args):
    """f(*args), or None where it raises DomainError (a flat cone)."""
    try:
        return f(*args)
    except DomainError:
        return None


def _rank1_cones(seed, count):
    """Seeded rank-1 cones: one to three generators of positive height."""
    rng = random.Random(seed)
    cones = []
    for _ in range(count):
        h = rng.choice((-3, -2, -1, 1, 2, 3))
        sign = 1 if h > 0 else -1
        cones.append((tuple((sign * rng.randint(1, 4),) for _ in range(rng.randint(1, 3))), (h,)))
    return cones


@cache
def _alphas():
    """(rank, alpha or None) over 50 seeded rank-1 cones and the 800 seeded
    rank-2 and rank-3 cones of `test_counting`."""
    return [
        (len(h), _refused(alpha, g, h)) for g, h in _rank1_cones(29, 50) + _seeded_cones(29, 800)
    ]


def _triangulations(rank):
    return [a.triangulation for r, a in _alphas() if r == rank and a is not None]


def _convergence_reports():
    rng = random.Random(2024)
    return [
        convergence_report(_random_model(rng, rho), dmax)
        for rho, dmax in ((1, 12), (2, 8), (3, 5))
        for _ in range(8)
    ]


def _balanced_heights():
    """The glued heights from (1, 1) and (1, 2) up to 40, as sorted (h, a, b),
    and break_section over q = 0..9, e = 0..4 (None where it refuses)."""
    reached = [
        sorted((h, nb.a, nb.b) for h, nb in reachable_balanced_heights(NormalBundleType(*ab), 40))
        for ab in ((1, 1), (1, 2))
    ]
    parts = [_refused(break_section, q, e) for q in range(10) for e in range(5)]
    return reached, [None if r is None else (r.rigid, r.movable, r.residual) for r in parts]


RESULTS = {
    "alpha.values": lambda: [None if a is None else a.value for _, a in _alphas()],
    "alpha.triangulations.rank1": lambda: _triangulations(1),
    "alpha.triangulations.rank2": lambda: _triangulations(2),
    "alpha.triangulations.rank3": lambda: _triangulations(3),
    "counting.slice_facets": lambda: [
        _refused(counting._slice_facets, g, h) for g, h in _seeded_cones(29, 800)
    ],
    "counting.convergence_reports": _convergence_reports,
    "curves.nef_classes_of_height": lambda: [
        nef_classes_of_height(make_lattice(n), h) for h in (1, 2, 3) for n in range(2, 9)
    ],
    "fujita.a_invariants": lambda: [
        a_invariant(polarized_del_pezzo(make_lattice(n))) for n in range(9)
    ] + [a_invariant(hirzebruch_polarized(e, (1, e + 1))) for e in range(5)],
    "fujita.larger_a_locus": lambda: [larger_a_locus(make_lattice(n)) for n in range(9)],
    "ruled.balanced_heights": _balanced_heights,
    "ruled.fuzz_reports": lambda: [
        fuzz_blow_up_sequences(200, depth, seed) for depth in (8, 16) for seed in range(10)
    ],
    "thresholds.threshold_reports": lambda: [
        threshold_report(load_profile(name)) for name in list_shipped_profiles()
    ],
}


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def main(argv):
    if argv != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    old = load() if GOLDEN.exists() else {}
    new = {key: digest(make()) for key, make in sorted(RESULTS.items())}
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            print(key)
    GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
