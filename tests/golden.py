"""Golden digests of library results.

Each key of `golden.json` maps to the sha256 of the canonical JSON (sorted
keys, Fractions as strings) of one result, recomputed by `RESULTS[key]`.
`test_golden.py` checks every digest; a refactor changes none, and a change
that moves a value lists the key and its reason in CHANGES.md.

    PYTHONPATH=src python tests/golden.py --write

rewrites the file and prints the keys that changed, and

    PYTHONPATH=src python tests/golden.py --show KEY

prints the canonical JSON of one key, to diff against another revision's.
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
    break_fiber_class,
    break_section,
    conic_bundle_extension_analysis,
    counting,
    decompose_nef_integral,
    enumerate_conic_classes,
    enumerate_cubic_classes,
    enumerate_neg_one_curves,
    find_diagonal_cubic_subgroup,
    fuzz_blow_up_sequences,
    generate_group,
    hirzebruch_polarized,
    invariant_sublattice,
    larger_a_locus,
    list_shipped_profiles,
    load_profile,
    make_lattice,
    monotone_corners,
    nef_classes_of_height,
    nef_curve_cone,
    polarized_del_pezzo,
    orbits_under_generators,
    reachable_balanced_heights,
    threshold_report,
    weyl_generators,
)
from delpezzo.counting import alpha, convergence_report
from delpezzo.errors import DomainError
from delpezzo.linalg import dual_cone_rays
from test_counting import _random_model, _seeded_cones
from test_thresholds import _seeded_oracles

GOLDEN = Path(__file__).with_name("golden.json")


def canonical(result) -> str:
    return json.dumps(result, sort_keys=True, default=str, separators=(",", ":"))


def digest(result) -> str:
    return hashlib.sha256(canonical(result).encode()).hexdigest()


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


def _orbit_partitions():
    """Orbits of W(E_n) on lines, conics and cubics, n = 2..8."""
    out = []
    for n in range(2, 9):
        lat = make_lattice(n)
        cubics = [c for c, _ in enumerate_cubic_classes(lat)]
        for classes in (enumerate_neg_one_curves(lat), enumerate_conic_classes(lat), cubics):
            out.append(orbits_under_generators(weyl_generators(lat), classes).orbits)
    return out


def _diagonal_cubic():
    """The diagonal-cubic subgroup of W(E6): its sorted element table and its
    invariant sublattice."""
    lat = make_lattice(6)
    sub = find_diagonal_cubic_subgroup(generate_group(weyl_generators(lat)), lat)
    return sub.elements.tolist(), invariant_sublattice(sub, lat)


def _corners():
    """The corners of the examples of `test_thresholds` and of 50 seeded
    monotone oracles in boxes of dimension 1-4."""
    examples = [
        (lambda w: 1 if (w[0] >= 1 and w[1] >= 0) or (w[0] >= 0 and w[1] >= 2) else 0, 1, (4, 4)),
        (lambda w: 0, 1, (4, 4)),
        (lambda w: w[0] + w[1], 3, (5, 5)),
        (lambda w: w[0] + w[1], 63, (63, 63)),
        (lambda w: min(w), 1, (3, 3, 3)),
    ]
    return [monotone_corners(*case) for case in examples + _seeded_oracles(2024, 50)]


def _nef_sums(seed):
    """(lattice, class): sums of two to five seeded nef rays (`nef_curve_cone`)
    on 2 to 7 blow-ups, five per lattice."""
    rng = random.Random(seed)
    out = []
    for n in range(2, 8):
        lat = make_lattice(n)
        rays = nef_curve_cone(lat).generators
        for _ in range(5):
            parts = [rng.choice(rays) for _ in range(rng.randint(2, 5))]
            out.append((lat, tuple(map(sum, zip(*parts)))))
    return out


def _dual_cones(seed, count):
    """Seeded normals of dimension 1-5: one to five more normals than the
    dimension, entries in -1..3, some not spanning."""
    rng = random.Random(seed)
    return [
        [tuple(rng.randint(-1, 3) for _ in range(dim)) for _ in range(dim + rng.randint(1, 5))]
        for dim in (rng.randint(1, 5) for _ in range(count))
    ]


RESULTS = {
    "alpha.values": lambda: [None if a is None else a.value for _, a in _alphas()],
    "alpha.triangulations.rank1": lambda: _triangulations(1),
    "alpha.triangulations.rank2": lambda: _triangulations(2),
    "alpha.triangulations.rank3": lambda: _triangulations(3),
    "counting.slice_facets": lambda: [
        _refused(counting._slice_facets, g, h) for g, h in _seeded_cones(29, 800)
    ],
    "counting.convergence_reports": _convergence_reports,
    "curves.break_fiber_class": lambda: [break_fiber_class(lat, c) for lat, c in _nef_sums(7)],
    "curves.decompose_nef_integral": lambda: [
        decompose_nef_integral(lat, c) for lat, c in _nef_sums(5)
    ],
    "curves.nef_curve_cone": lambda: [
        nef_curve_cone(make_lattice(n)).generators for n in range(9)
    ],
    "curves.nef_classes_of_height": lambda: [
        nef_classes_of_height(make_lattice(n), h) for h in (1, 2, 3) for n in range(2, 9)
    ],
    "fujita.a_invariants": lambda: [
        a_invariant(polarized_del_pezzo(make_lattice(n))) for n in range(9)
    ] + [a_invariant(hirzebruch_polarized(e, (1, e + 1))) for e in range(5)],
    "fujita.larger_a_locus": lambda: [larger_a_locus(make_lattice(n)) for n in range(9)],
    "linalg.dual_cone_rays": lambda: [_refused(dual_cone_rays, N) for N in _dual_cones(11, 100)],
    "ruled.balanced_heights": _balanced_heights,
    "ruled.fuzz_reports": lambda: [
        fuzz_blow_up_sequences(200, depth, seed) for depth in (8, 16) for seed in range(10)
    ],
    "thresholds.monotone_corners": _corners,
    "thresholds.threshold_reports": lambda: [
        threshold_report(load_profile(name)) for name in list_shipped_profiles()
    ],
    "weyl.conic_bundle_report": conic_bundle_extension_analysis,
    "weyl.diagonal_cubic_subgroup": _diagonal_cubic,
    "weyl.orbit_partitions": _orbit_partitions,
}


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def main(argv):
    if argv[:1] == ["--show"] and len(argv) == 2 and argv[1] in RESULTS:
        print(canonical(RESULTS[argv[1]]()))
        return
    if argv != ["--write"]:
        sys.exit("usage: python tests/golden.py --write | --show KEY, KEY one of: "
                 + ", ".join(sorted(RESULTS)))
    old = load() if GOLDEN.exists() else {}
    new = {key: digest(make()) for key, make in sorted(RESULTS.items())}
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            print(key)
    GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
