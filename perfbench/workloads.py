"""The four workloads: seeded inputs, the timed operations, and their checks.

`build(workload, seed, ctx)` returns a list of `Op`.  Each op's `run` is the
timed call into the package (or one cold CLI process); its `check` receives
the result, or the exception raised, and returns None when the answer is
correct or a one-line reason when it is not.  Library calls go through module
attributes (`weyl.generate_group`, not a name bound at import time) so that
the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref

CAP = 300_000


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, BaseException | None], str | None]


class Failed(str):
    """A check message for an operation that ended in an error (exception,
    traceback, wrong exit code) rather than in a wrong value."""


def _raised(exc) -> Failed:
    return Failed(f"raised {type(exc).__name__}: {exc}")


def _expect(value):
    def check(result, exc):
        if exc is not None:
            return _raised(exc)
        return None if result == value else f"got {result!r}, want {value!r}"
    return check


def _checked(fn):
    """Turn a check on the result into one that fails on any exception."""
    def check(result, exc):
        if exc is not None:
            return _raised(exc)
        return fn(result)
    return check


def _classes_ok(classes, square, height_, count):
    if len(classes) != count:
        return f"{len(classes)} classes, want {count}"
    if len(set(map(tuple, classes))) != count:
        return "duplicate classes"
    bad = [c for c in classes
           if ref.pairing(c, c) != square or ref.height(c) != height_]
    return f"class {bad[0]} has the wrong square or height" if bad else None


def _all_nef(classes, n):
    mask = ref.nef_mask(classes, n)
    return None if mask.all() else f"class {classes[int(np.argmin(mask))]} is not nef"


def _weyl_word(rng, n: int, length: int = 40):
    """A random word in the simple reflections of W(E_n), as their roots."""
    roots = ref.simple_roots(n)
    return [rng.choice(roots) for _ in range(length)]


def _act(word, x):
    """Apply the reflections of `word` to x.  They are isometries fixing K,
    so the image keeps the square, the height and nefness of x."""
    for r in word:
        k = ref.pairing(x, r)
        x = tuple(a + k * b for a, b in zip(x, r))
    return x


# ---------------------------------------------------------------- weyl-closure

# Dynkin types of the seeded closures, each realized by a subset of the E8
# simple roots with E1..E8 relabeled by a seeded permutation.  The relabeling
# conjugates the group, so the closure does the same work whatever the seed;
# the seed also picks among the subsets that realize A1xD5 and A6.  At the
# cap, E7 and D7 are refused and A1xE6 closes.
SEEDED_TYPES = ["E7", "D7", "A1xE6", "A7", "D6", "A2xD5", "A1xA6", "A1xD5", "A6"]


def _e8_subsets_by_type():
    roots = ref.simple_roots(8)
    out = {}
    for k in (5, 6, 7):
        for sub in itertools.combinations(range(8), k):
            label = "x".join(t for t, _ in ref.dynkin_type([roots[i] for i in sub]))
            out.setdefault(label, []).append(sub)
    return out


def _orbit_sizes(mats, classes):
    """Orbits of a whole group (all its element matrices) on a class set."""
    index = {tuple(c): i for i, c in enumerate(classes)}
    images = np.einsum("gij,cj->cgi", mats, np.array(classes, dtype=np.int64))
    seen, sizes = set(), []
    for i, c in enumerate(classes):
        if i in seen:
            continue
        orbit = {index[tuple(int(v) for v in img)] for img in images[i]}
        seen |= orbit
        sizes.append(len(orbit))
    return sorted(sizes)


def weyl_closure(seed, ctx):
    weyl, picard, errors = ctx.weyl, ctx.picard, ctx.errors
    rng = random.Random(seed)
    lat6 = picard.make_lattice(6)
    state = {}

    def e6():
        state["e6"] = weyl.generate_group(weyl.weyl_generators(lat6))
        return state["e6"].order

    def diagonal():
        state["sub"] = weyl.find_diagonal_cubic_subgroup(state["e6"], lat6)
        return state["sub"]

    def check_diagonal(sub):
        if sub.order != 27:
            return f"subgroup order {sub.order}, want 27"
        mats = sub.element_matrices()
        eye = np.eye(7, dtype=np.int64)
        if not all((m @ m @ m == eye).all() for m in mats):
            return "an element does not have order dividing 3"
        if not (np.einsum("aij,bjk->abik", mats, mats)
                == np.einsum("bij,ajk->abik", mats, mats)).all():
            return "subgroup is not abelian"
        for label, classes in (("line", ref.lines(6)), ("conic", ref.conics6())):
            sizes = _orbit_sizes(mats, classes)
            if sizes != [9, 9, 9]:
                return f"{label} orbits {sizes}, want [9, 9, 9]"
        return None

    def check_bundle(rep):
        subs = rep["subgroups"]
        split = [s for s in subs if s["split"]]
        if (rep["ambient_order"], rep["sigma_central"], rep["claims_verified"],
                rep["subgroup_count"]) != (2 ** 4 * 24, True, True, 16):
            return f"summary {[rep[k] for k in ('ambient_order', 'subgroup_count')]}"
        if len(split) != 8:
            return f"{len(split)} split subgroups, want 8"
        if any(s["orbit_sizes"] != [16] for s in subs if not s["split"]):
            return "a non-split subgroup has more than one orbit"
        if not all(any(x in (2, 4, 8) for x in s["orbit_sizes"]) for s in split):
            return "a split subgroup has no orbit of size 2, 4 or 8"
        return None

    ops = [
        Op("W(E6) closure", e6, _expect(ref.weyl_order(ref.simple_roots(6)))),
        Op("diagonal cubic subgroup", diagonal, _checked(check_diagonal)),
        Op("invariant sublattice", lambda: weyl.invariant_sublattice(state["sub"], lat6),
           _expect([(3, -1, -1, -1, -1, -1, -1)])),
        Op("conic bundle extensions", lambda: weyl.conic_bundle_extension_analysis(),
           _checked(check_bundle)),
    ]

    roots = ref.simple_roots(8)
    by_type = _e8_subsets_by_type()
    for label in SEEDED_TYPES:
        sub = rng.choice(by_type[label])
        sigma = rng.sample(range(1, 9), 8)  # E_j -> E_sigma[j-1]
        relabeled = []
        for k in sub:
            r = [roots[k][0]] + [0] * 8
            for j in range(1, 9):
                r[sigma[j - 1]] = roots[k][j]
            relabeled.append(tuple(r))
        order = ref.weyl_order(relabeled)
        gens = [ref.reflection(r) for r in relabeled]

        def check(result, exc, order=order):
            if order > CAP:
                if isinstance(exc, errors.CapExceeded):
                    return None
                if exc is not None:
                    return _raised(exc)
                return f"order {order} > cap must raise CapExceeded, got {result!r}"
            if exc is not None:
                return _raised(exc)
            return None if result == order else f"order {result}, want {order}"

        ops.append(Op(f"closure {label}",
                      lambda gens=gens: weyl.generate_group(gens, cap=CAP).order,
                      check))
    return ops


# ---------------------------------------------------------------- cone-duality

SUBCONES = 4
SUBCONE_NORMALS = 40
# (blow-ups, heights of the two summands) of the seeded nef classes
DECOMPOSE = [(6, (2, 2)), (6, (2, 3)), (6, (3, 3)), (7, (2, 2)), (7, (2, 3))]


def cone_duality(seed, ctx):
    curves, linalg, weyl, fujita, picard = (ctx.curves, ctx.linalg, ctx.weyl,
                                            ctx.fujita, ctx.picard)
    errors = ctx.errors
    rng = random.Random(seed)
    ops = []

    def nef_cones():
        return [curves.nef_curve_cone(picard.make_lattice(n)).generators
                for n in (5, 6, 7)]

    def check_nef_cones(cones):
        counts = [len(c) for c in cones]
        if counts != [26, 99, 702]:
            return f"ray counts {counts}, want [26, 99, 702]"
        for n, rays in zip((5, 6, 7), cones):
            bad = _all_nef(rays, n)
            if bad:
                return bad
        return None

    ops.append(Op("nef_curve_cone n=5..7", nef_cones, _checked(check_nef_cones)))

    def a_invariants():
        out = [fujita.a_invariant(fujita.polarized_del_pezzo(picard.make_lattice(n)))
               for n in range(8)]
        for e in range(7):
            try:
                out.append(fujita.a_invariant(fujita.hirzebruch_polarized(e)))
            except errors.DomainError:
                out.append("DomainError")
            out.append(fujita.a_invariant(fujita.hirzebruch_polarized(e, (1, e + 1))))
        return out

    # -K is nef on F_e only for e <= 2; the ample class C0 + (e+1)F has a = 2
    want = [1] * 8
    for e in range(7):
        want += [1 if e <= 2 else "DomainError", 2]
    ops.append(Op("a_invariant", a_invariants, _expect(want)))

    # Fixed 40-line subsets, each moved by a seeded element of W(E8).  The
    # image is again a set of 40 lines, and double description does the same
    # work on it (the isometry maps every intermediate cone), so the seed
    # changes the input but not its cost.
    base = random.Random(0)
    for k in range(SUBCONES):
        word = _weyl_word(rng, 8, 60)
        lines = [_act(word, ref.lines(8)[i])
                 for i in base.sample(range(240), SUBCONE_NORMALS)]
        normals = [(g[0],) + tuple(-x for x in g[1:]) for g in lines]

        def check_subcone(rays, normals=normals):
            if not rays or len(set(rays)) != len(rays):
                return "empty or repeated rays"
            N = np.array(normals, dtype=np.int64)
            values = np.array(rays, dtype=np.int64) @ N.T
            if (values < 0).any():
                return "a ray violates a normal"
            for ray, row in zip(rays, values):
                if np.gcd.reduce(np.array(ray)) != 1:
                    return f"ray {ray} is not primitive"
                if ref.exact_rank([normals[j] for j in np.flatnonzero(row == 0)]) != 8:
                    return f"ray {ray} has a tight set of rank != 8"
            return None

        ops.append(Op(f"rank-9 subcone {k}",
                      lambda normals=normals: linalg.dual_cone_rays(normals),
                      _checked(check_subcone)))

    for n, h, count in ((8, 2, 2401), (7, 3, 632)):
        def check_height(classes, n=n, h=h, count=count):
            if len(classes) != count or sorted(set(classes)) != list(classes):
                return f"{len(classes)} classes or unsorted, want {count} sorted"
            if any(ref.height(c) != h for c in classes):
                return f"a class has height != {h}"
            return _all_nef(classes, n)

        ops.append(Op(f"nef_classes_of_height n={n} h={h}",
                      lambda n=n, h=h: curves.nef_classes_of_height(picard.make_lattice(n), h),
                      _checked(check_height)))

    lat8 = picard.make_lattice(8)

    def conics():
        return curves.enumerate_conic_classes(lat8)

    def cubics():  # without the kind tag each cubic class carries
        return [c for c, _ in curves.enumerate_cubic_classes(lat8)]

    # (label, enumerator, square, height, class count, orbit sizes)
    for label, enumerate_, square, height_, count, want in (
            ("conics", conics, 0, 2, 2160, [2160]),
            ("cubics", cubics, 1, 3, 17520, [240, 17280])):
        def orbits(enumerate_=enumerate_):
            classes = enumerate_()
            return classes, weyl.orbits_under_generators(weyl.weyl_generators(lat8),
                                                         classes).sizes

        def check_orbits(result, square=square, height_=height_, count=count, want=want):
            classes, sizes = result
            bad = _classes_ok(classes, square, height_, count)
            if bad:
                return bad
            return None if sizes == want else f"orbit sizes {sizes}, want {want}"

        ops.append(Op(f"W(E8) orbits on {label}", orbits, _checked(check_orbits)))

    seeded = []
    for n, parts in DECOMPOSE:
        bases = {2: (1, -1) + (0,) * (n - 1), 3: (1,) + (0,) * n}
        c = tuple(map(sum, zip(*(_act(_weyl_word(rng, n), bases[p]) for p in parts))))
        seeded.append((n, picard.make_lattice(n), c))

    def decompose():
        return [(curves.decompose_nef_integral(lat, c), curves.break_fiber_class(lat, c))
                for _, lat, c in seeded]

    def check_decompose(results):
        for (n, _, c), (plan, (c0, c1)) in zip(seeded, results):
            if tuple(map(sum, zip(*plan))) != c:
                return f"decomposition of {c} does not sum back"
            if tuple(a + b for a, b in zip(c0, c1)) != c:
                return f"break of {c} does not sum back"
            pieces = list(plan) + [c0, c1]
            if any(ref.height(p) < 2 for p in pieces):
                return f"a piece of {c} has height < 2"
            bad = _all_nef(pieces, n)
            if bad:
                return bad
        return None

    ops.append(Op("decompose+break x5", decompose, _checked(check_decompose)))
    return ops


# --------------------------------------------------------------- counting-fuzz

MODELS_PER_RANK = 8
# models are drawn in pools of this size and taken at evenly spaced quantiles
# of their predicted scan size, so every seed counts about as many points
POOL = 64
DMAX = {1: 120, 2: 60, 3: 20}
FUZZ_TRIALS = 400


def random_model(rng, rank: int) -> dict:
    """A counting model as JSON: generator entries 0..3, height covector
    entries 1..2, translate entries -1..1, q in {3/2, 2, ..., 4}."""
    while True:
        k = rank + rng.randint(0, 1)
        gens = [[rng.randint(0, 3) for _ in range(rank)] for _ in range(k)]
        if all(any(g) for g in gens) and ref.exact_rank(gens) == rank:
            break
    hcov = [rng.randint(1, 2) for _ in range(rank)]
    while True:
        t = [rng.randint(-1, 1) for _ in range(rank)]
        if sum(a * b for a, b in zip(hcov, t)) >= -1:
            break
    profile = {
        "name": f"random-rank-{rank}", "fiber_degree": 3, "rho_eta": rank,
        "neg": -1, "maxdef_table": {"-1": 1}, "brauer_order": rng.randint(1, 2),
        "num_profiles": 1, "lattice_index": rng.randint(1, 3),
        "has_ff_conic": False,
        "nef_cone_eta": {"generators": gens, "height": hcov},
    }
    q = Fraction(rng.randint(3, 8), 2)
    return {"profile": profile, "translates": [t], "q": str(q)}


def scan_size(model: dict) -> float:
    """Predicted points per slice of a model, up to the height: the extent
    of the cone per unit height along every coordinate but the one with the
    largest height entry, multiplied together (1 in rank 1)."""
    cone = model["profile"]["nef_cone_eta"]
    gens, hcov = cone["generators"], cone["height"]
    heights = [sum(a * b for a, b in zip(hcov, g)) for g in gens]
    pivot = max(range(len(hcov)), key=lambda k: abs(hcov[k]))
    size = 1.0
    for k in range(len(hcov)):
        if k != pivot:
            size *= 2 * sum(abs(g[k]) / h for g, h in zip(gens, heights))
    return size


def check_report(report, model: dict, dmax: int) -> str | None:
    """Exact counts against independent slice counts, and the closed-form
    constant against an independent alpha in rank <= 2."""
    p = model["profile"]
    gens = [tuple(g) for g in p["nef_cone_eta"]["generators"]]
    hcov = tuple(p["nef_cone_eta"]["height"])
    q = Fraction(model["q"])
    br = p["brauer_order"]
    rho = len(hcov)
    pts: dict[int, int] = {}
    for t in model["translates"]:
        for i, c in ref.slice_counts(gens, hcov, tuple(t), dmax).items():
            pts[i] = pts.get(i, 0) + c
    rows = report["rows"]
    if [r["d"] for r in rows] != list(range(1, dmax + 1)):
        return "rows do not run over d = 1..dmax"
    theorem = Fraction(str(report["theorem_constant"]))
    if rho <= 2:
        alpha = ref.alpha_rank_le2(gens, hcov, p["lattice_index"])
        want = p["num_profiles"] * p["lattice_index"] * alpha * br * q / (q - 1)
        if theorem != want:
            return f"theorem constant {theorem}, want {want}"
    for r in rows:
        d = r["d"]
        exact = sum((br * c * q ** (i + 2) for i, c in pts.items() if i <= d),
                    Fraction(0))
        if Fraction(str(r["exact"])) != exact:
            return f"exact count at d={d} is {r['exact']}, want {exact}"
        asym = theorem * q ** d * d ** (rho - 1)
        if Fraction(str(r["asymptotic"])) != asym:
            return f"asymptotic at d={d} is {r['asymptotic']}, want {asym}"
        if Fraction(str(r["ratio"])) != exact / asym:
            return f"ratio at d={d} is not exact/asymptotic"
    return None


def counting_fuzz(seed, ctx):
    counting, ruled, thresholds = ctx.counting, ctx.ruled, ctx.thresholds
    rng = random.Random(seed)
    ops = []
    for rank in (1, 2, 3):
        pool = sorted((random_model(rng, rank) for _ in range(POOL)), key=scan_size)
        for i in range(MODELS_PER_RANK):
            data = pool[(2 * i + 1) * POOL // (2 * MODELS_PER_RANK)]
            model = counting.model_from_json(data)
            ops.append(Op(
                f"convergence_report rank={rank} {data['profile']['nef_cone_eta']}",
                lambda model=model, rank=rank: counting.convergence_report(model, DMAX[rank]),
                _checked(lambda rep, data=data, rank=rank: check_report(rep, data, DMAX[rank]))))

    for depth in (12, 16):
        fuzz_seed = rng.randrange(2 ** 31)

        def check_fuzz(rep, depth=depth, fuzz_seed=fuzz_seed):
            if not rep["all_passed"] or rep["contractions"] != rep["trials"]:
                return f"fuzz report {rep}"
            if (rep["trials"], rep["depth"], rep["seed"]) != (FUZZ_TRIALS, depth, fuzz_seed):
                return "fuzz report echoes the wrong parameters"
            if rep["second_minus_one_checks"] < 1 or rep["max_components"] > depth + 1:
                return f"fuzz counters out of range: {rep}"
            return None

        ops.append(Op(f"fuzz_blow_up_sequences depth={depth}",
                      lambda depth=depth, fuzz_seed=fuzz_seed: ruled.fuzz_blow_up_sequences(
                          count=FUZZ_TRIALS, depth=depth, seed=fuzz_seed),
                      _checked(check_fuzz)))

    names = sorted(f.stem for f in ctx.profiles.glob("*.json"))
    want = [ref.threshold_report(json.loads((ctx.profiles / f"{n}.json").read_text()))
            for n in names]
    ops.append(Op("threshold_report x4",
                  lambda: [thresholds.threshold_report(thresholds.load_profile(n))
                           for n in names],
                  _expect(want)))
    return ops


# ------------------------------------------------------------------- cli-cold

# The criterion-10 invocations and the sha256 of their stdout at the commit
# that introduced this benchmark; later changes must keep them byte-identical.
CRITERION_10 = [
    (["lattice", "--degree", "3"],
     "b2c50c38ff42a8f6d204de67945cfce9af5704c601c35b7ee4b049264e305051"),
    (["curves", "--degree", "6", "--kind", "cubics"],
     "bd032506b7c979ebd4efed7a5af3128eb6d92c26a846fc27b28310d70b57d7a2"),
    (["weyl", "--degree", "5"],
     "147257dfa1ecdc2a9062fd11ffc500aced3f8de9e8de5bbb98c2788c18c5f3b9"),
    (["orbits", "--degree", "4", "--classes", "lines"],
     "d9e93efd38635db9413dfe95301604554baa7f6e498fbd3372c8743686bcf067"),
    (["fujita", "--degree", "2"],
     "f141da5bd7d8d5d41eb3f53d31acb5ecf99c9679f9f1de8307838690ad89b7a7"),
    (["thresholds", "--profile", "hypersurface-23"],
     "c9e1592f2af4e076bfb6d7f02cf8b16e381aa217762161e5f914c782ffa57199"),
    (["ruled", "--seed", "7", "--trials", "200"],
     "ce5ac37c5e0040798506f7c21e92e809b23ca6945a69c2110cf6ce51031dcbbd"),
    (["count", "--profile", "cubic-pencil", "--q", "2", "--dmax", "6"],
     "129508aa9ff18b9528d20936aa48d4fd6d49da3591b007b2427159c5e2f33dcd"),
    (["example", "--name", "diagonal-cubic", "--q", "2", "--dmax", "4"],
     "63367ad92840b2863ffd3631f549d970bc6be0279b0b2043039e0e487fe76d10"),
]
CLI_MODEL_DMAX = {1: 40, 2: 20, 3: 10}


@dataclass
class Invocation:
    rc: int
    stdout: bytes
    stderr: str
    maxrss_kb: int


def child_env(src: Path) -> dict:
    """Environment of every process the benchmark starts: the package from
    `src`, and numpy arrays without transparent huge pages.  Whether the
    kernel grants huge pages depends on the memory state of the whole
    machine, and with them the peak RSS of the same closure moved by 20 %
    from one set of runs to the next."""
    return dict(os.environ, PYTHONPATH=str(src), NUMPY_MADVISE_HUGEPAGE="0")


def run_process(argv, env, out_dir: Path, timeout: float = 120.0) -> Invocation:
    """Run one process to completion, with its own peak RSS from wait4; a
    process still running after `timeout` seconds is killed."""
    out_path, err_path = out_dir / "stdout", out_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(proc.returncode, out_path.read_bytes(),
                      err_path.read_text(errors="replace"), usage.ru_maxrss)


def _cli_check(rc, stdout_check=None):
    """Exit code must match; a non-zero exit must leave one `error:` line on
    stderr (exit 2 is click's usage message); no traceback ever."""
    def check(inv, exc):
        if exc is not None:
            return _raised(exc)
        if "Traceback" in inv.stderr:
            return Failed(f"traceback: {inv.stderr.strip().splitlines()[-1]}")
        if inv.rc != rc:
            return Failed(f"exit {inv.rc}, want {rc}")
        if rc == 1:
            lines = inv.stderr.strip().splitlines()
            if len(lines) != 1 or not lines[0].startswith("error:"):
                return Failed(f"stderr is not one error line: {inv.stderr!r}")
        return stdout_check(inv.stdout) if stdout_check else None
    return check


def _sha(digest):
    def check(out):
        got = hashlib.sha256(out).hexdigest()
        return None if got == digest else f"stdout sha256 {got[:12]}, want {digest[:12]}"
    return check


def _json_check(fn):
    def check(out):
        return fn(json.loads(out))
    return check


def _check_cubics_csv(out):
    rows = list(csv.reader(io.StringIO(out.decode())))
    if rows[0] != [f"c{k}" for k in range(9)] + ["kind"]:
        return f"header {rows[0]}"
    classes = [tuple(int(x) for x in r[:9]) for r in rows[1:]]
    if any(r[9] != "CubicLinePullback" for r in rows[1:]):
        return "a row has the wrong kind tag"
    return _classes_ok(classes, 1, 3, 17520)


def cli_cold(seed, ctx):
    rng = random.Random(seed)
    tmp = ctx.tmp
    model_paths = []
    for rank in (1, 2, 3):
        data = random_model(rng, rank)
        path = tmp / f"model-rank{rank}.json"
        path.write_text(json.dumps(data))
        model_paths.append((path, data, CLI_MODEL_DMAX[rank]))
    x5 = json.loads((ctx.profiles / "x5-pencil.json").read_text())
    x5_model = {"profile": x5, "translates": [[x5["neg"]]], "q": "5/2"}
    bad = {
        "model-q-zero-denominator.json": dict(model_paths[0][1], q="1/0"),
        "model-top-level-list.json": [model_paths[0][1]],
        "profile-maxdef-list.json": dict(x5, maxdef_table=[[-1, 1]]),
    }
    for name, data in bad.items():
        (tmp / name).write_text(json.dumps(data))

    invocations = [(args, _cli_check(0, _sha(digest))) for args, digest in CRITERION_10]
    invocations += [
        (["fujita", "--hirzebruch", "1"], _cli_check(0, _json_check(
            lambda d: None if d == {"a_invariant": "1", "surface": "Hirzebruch 1"}
            else f"got {d}"))),
        (["orbits", "--degree", "1", "--classes", "lines"], _cli_check(0, _json_check(
            lambda d: None if (d["count"], d["orbit_sizes"]) == (240, [240])
            else f"got count {d['count']} orbits {d['orbit_sizes']}"))),
        (["curves", "--degree", "1", "--kind", "cubics", "--format", "csv"],
         _cli_check(0, _check_cubics_csv)),
        (["count", "--profile", "x5-pencil", "--q", "5/2", "--dmax", "12"],
         _cli_check(0, _json_check(lambda d: check_report(d, x5_model, 12)))),
    ]
    for path, data, dmax in model_paths:
        invocations.append((
            ["count", "--model", str(path), "--dmax", str(dmax)],
            _cli_check(0, _json_check(lambda d, data=data, dmax=dmax: check_report(d, data, dmax)))))
    invocations += [
        (["weyl", "--degree", "2", "--cap", "100000"], _cli_check(1)),
        # ROADMAP item 5: each must end in a usage error or one error line
        (["count", "--profile", "cubic-pencil", "--q", "abc"], _cli_check(2)),
        (["count", "--model", str(tmp / "model-q-zero-denominator.json")], _cli_check(1)),
        (["count", "--model", str(tmp / "model-top-level-list.json")], _cli_check(1)),
        (["thresholds", "--profile", str(tmp / "profile-maxdef-list.json")], _cli_check(1)),
    ]
    # file arguments are named by their base name, so names repeat across runs
    return [Op(" ".join(Path(a).name if "/" in a else a for a in args),
               lambda args=args: ctx.invoke(args), check)
            for args, check in invocations]


WORKLOADS = {
    "cli-cold": cli_cold,
    "weyl-closure": weyl_closure,
    "cone-duality": cone_duality,
    "counting-fuzz": counting_fuzz,
}


def build(workload: str, seed: int, ctx) -> list[Op]:
    return WORKLOADS[workload](seed, ctx)
