"""Cold `delpezzo` processes, one table row each, and the one runner of them.

A row holds the argv after `python` (`-m delpezzo.cli ...` or a `-c`
library snippet), the expected exit code, a stdout check (the sha256 of the
whole stdout, a substring or a whole line; a row with none must print
nothing), a wall bound the process is killed at, a peak RSS bound where one
is set, and whether the process may load numpy (a row that may not runs
under `-X importtime` and fails on numpy's core, click or sympy, a test-only
dependency, or on a module of theirs, and runs a second time under `-S`,
with the same checks: without site-packages numpy cannot be imported, as
where it is not installed).  `{docs}` in an argv is the directory `write_documents` fills.

    PYTHONPATH=src python tests/cold_commands.py

writes the documents to a temporary directory and runs every row with `src`
on PYTHONPATH, one after another, then the `-S` runs.  It reads each child's
wall time and peak RSS (`ru_maxrss`) from `os.wait4`, checks the exit code,
one `error:` line on exit 1, no traceback, the stdout check and the modules,
prints one line per run and exits 1 if any run fails.  It imports only the
standard library: a child's `ru_maxrss` includes the peak RSS of the process
that spawned it.  The Tier-1 suite starts it once, in a process of its own,
as soon as collection ends, so that it runs beside the in-process tests
(`tests/conftest.py`), and reads one test's verdict off each run's line
(`tests/test_cli.py`).
"""

import json
import os
import re
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parents[1] / "src"


class Row(NamedTuple):
    name: str
    argv: tuple
    exit: int = 0
    stdout: tuple | None = None  # ("sha256" | "contains" | "line", value)
    wall: float = 10.0  # seconds
    rss: float | None = None  # MB
    numpy: bool = True


def cli(name, args, **kw) -> Row:
    """A row running `python -m delpezzo.cli ARGS`, ARGS split on spaces."""
    return Row(name, ("-m", "delpezzo.cli", *args.split()), **kw)


def lib(name, code, **kw) -> Row:
    """A row running `python -c CODE`, a snippet of the library."""
    return Row(name, ("-c", code), **kw)


ROWS = [
    # the criterion-10 invocations and the sha256 of their stdout; the
    # benchmark pins the same digests
    cli("lattice", "lattice --degree 3", numpy=False,
        stdout=("sha256", "b2c50c38ff42a8f6d204de67945cfce9af5704c601c35b7ee4b049264e305051")),
    cli("curves", "curves --degree 6 --kind cubics", numpy=False,
        stdout=("sha256", "bd032506b7c979ebd4efed7a5af3128eb6d92c26a846fc27b28310d70b57d7a2")),
    cli("weyl", "weyl --degree 5",
        stdout=("sha256", "147257dfa1ecdc2a9062fd11ffc500aced3f8de9e8de5bbb98c2788c18c5f3b9")),
    cli("orbits", "orbits --degree 4 --classes lines",
        stdout=("sha256", "d9e93efd38635db9413dfe95301604554baa7f6e498fbd3372c8743686bcf067")),
    cli("fujita", "fujita --degree 2",
        stdout=("sha256", "f141da5bd7d8d5d41eb3f53d31acb5ecf99c9679f9f1de8307838690ad89b7a7")),
    cli("thresholds", "thresholds --profile hypersurface-23", numpy=False,
        stdout=("sha256", "c9e1592f2af4e076bfb6d7f02cf8b16e381aa217762161e5f914c782ffa57199")),
    cli("ruled", "ruled --seed 7 --trials 200", numpy=False,
        stdout=("sha256", "ce5ac37c5e0040798506f7c21e92e809b23ca6945a69c2110cf6ce51031dcbbd")),
    cli("count", "count --profile cubic-pencil --q 2 --dmax 6", numpy=False,
        stdout=("sha256", "129508aa9ff18b9528d20936aa48d4fd6d49da3591b007b2427159c5e2f33dcd")),
    # W(E6) closed, then the search over its 800 order-3 elements, read off
    # its cosets (no table written): the subgroup of order 27
    cli("example", "example --name diagonal-cubic --q 2 --dmax 4", wall=5,
        stdout=("sha256", "63367ad92840b2863ffd3631f549d970bc6be0279b0b2043039e0e487fe76d10")),
    # numpy loads on first use; a count of rank 2 or 3 reads its facets off
    # the cone's height-1 slice, and a Hirzebruch surface carries its nef rays
    cli("count-rank3-model", "count --model {docs}/model-rank-3.json --dmax 6", numpy=False,
        stdout=("sha256", "5cef392bda3cf842bd047620aae157742a0551bb3cd7b52f2d7819dbe19a5516")),
    cli("count-x5-pencil", "count --profile x5-pencil --q 5/2 --dmax 12", numpy=False,
        stdout=("sha256", "93b78f0ea729fda537f568b98f4b67f8985879a366d3e8105dd8631fbe3300d1")),
    *(cli(f"fujita-hirzebruch-{e}", f"fujita --hirzebruch {e}", numpy=False,
          stdout=("sha256", digest))
      for e, digest in enumerate((
          "995478d47b7c4e30d9790bc3495ffdc9f40a5122b140ace346d51c56b9ad3513",
          "9cf7f11159e93cbbd92f45e6f48a46e5d018fb91b03770f00ddf3fa9a7ce5768",
          "4b44779ebb34b5d06948df99b6b5888c1f3e19d353526346e730bfb74fac1c83"))),
    cli("weyl-refused", "weyl --degree 2 --cap 100000", exit=1, numpy=False),
    # the --cap default comes from picard, not weyl
    cli("weyl-help", "weyl --help", stdout=("contains", "[default: 4000000]"), numpy=False),
    # the known order of W(E8) passes the default cap: refused before any closure
    cli("weyl-e8-refused", "weyl --degree 1", exit=1, wall=20, numpy=False),
    # the closure itself counts the cosets of S_8 in W(E8) against the cap
    # before it writes any
    lib("generate-group-e8-refused", """
from delpezzo import CapExceeded, generate_group, make_lattice, weyl_generators
try:
    generate_group(weyl_generators(make_lattice(8)))
except CapExceeded:
    pass
else:
    raise SystemExit("W(E8) closed past the default cap")
"""),
    # the 576 cosets of S_7 in W(E7) along the simple roots and no table of
    # the group: about 31 MB, where the whole table is 186 MB
    cli("weyl-e7", "weyl --degree 2", stdout=("line", '  "order": 2903040'), wall=5, rss=100),
    # no simple roots: order 1 without numpy
    cli("weyl-trivial", "weyl --degree 9", numpy=False,
        stdout=("sha256", "cd3900fd9bbe99609894a7fa584260011cb1b361a9920fceb9e09c366a397001")),
    cli("weyl-trivial-8", "weyl --degree 8", numpy=False,
        stdout=("sha256", "b224d5848820b1397b49b1267fb3c77191f8c8e693e031f5c5f38967f9c68825")),
    # 19,440 nef rays from 19,680 conic and cubic classes, no double description
    cli("fujita-e8", "fujita --degree 1", stdout=("contains", '"a_invariant": "1"')),
    # a header and one row per square-1 cubic class, 17,521 lines
    cli("curves-e8-cubics-csv", "curves --degree 1 --kind cubics --format csv", numpy=False,
        stdout=("sha256", "5a7b42ff17d8e91302d36be99bdeec7097d0f141bf1c556c7b0af6fa517de047")),
    cli("orbits-cubics", "orbits --degree 3 --classes cubics",
        stdout=("contains", '"orbit_sizes"')),
    # one box of candidates per first coordinate and no class search
    lib("break-fiber-class", """
from delpezzo import break_fiber_class, make_lattice
for n in (3, 6, 7):
    lat = make_lattice(n)
    c = tuple(2000 * x for x in lat.anticanonical)
    c0, c1 = break_fiber_class(lat, c)
    assert c0 == (1, -1) + (0,) * (n - 1) and tuple(map(sum, zip(c0, c1))) == c, (c0, c1)
"""),
    # B4 as its 384 signed permutations; the lift scan multiplies only the 33
    # rows it reads
    lib("conic-bundle-analysis", "from delpezzo import conic_bundle_extension_analysis as f; "
        "r = f(); assert (r['ambient_order'], r['subgroup_count'], r['claims_verified']) == "
        "(384, 16, True), r"),
    # trials x depth is the one fuzz budget and a trial costs O(depth log
    # depth): the slowest split of it, and two others, each all passed
    *(cli(f"ruled-depth-{depth}", f"ruled --trials {trials} --depth {depth}", wall=5,
          stdout=("sha256", digest), numpy=False)
      for trials, depth, digest in (
          (1, 32768, "37fe10a8c4611808f92c276a7fc001b79d42131dbf36e41e4edb6af0a3ee3503"),
          (8, 4096, "6bcd61ced78160023131f2c062d1a1bc370afb45ec1b6ee3389b2f8d6e84f158"),
          (32768, 1, "b8ef6066c94325640af36bf180b1e0a8c84ff1f670cfe86ef2bcc9e22ce6f8f1"))),
    # counted a slice by intervals; a box scan would test 120,000,006 points
    cli("count-wide-rank-2", "count --model {docs}/model-wide-rank-2.json --dmax 5",
        numpy=False,
        stdout=("sha256", "ffbe4c6f29fd6637909c5d4cf3b3e6bfa26b7e7a2be7cb68aa9ce99d50528875")),
    # bad inputs: exit 1 with one `error:` line, or a usage error (exit 2)
    cli("q-not-rational", "count --profile cubic-pencil --q abc", exit=2, numpy=False),
    cli("example-q-not-rational", "example --name x5-pencil --q x/2", exit=2, numpy=False),
    cli("model-with-q", "count --model {docs}/model.json --q 7", exit=2, numpy=False),
    # `.` reads as a shipped profile name, `./` and {docs} as directories
    cli("profile-dot", "thresholds --profile .", exit=1, numpy=False),
    cli("profile-dot-slash", "thresholds --profile ./", exit=1, numpy=False),
    cli("profile-directory", "thresholds --profile {docs}", exit=1, numpy=False),
    cli("count-profile-directory", "count --profile {docs}", exit=1, numpy=False),
    cli("model-directory", "count --model {docs}", exit=1, numpy=False),
    cli("profile-not-utf8", "thresholds --profile {docs}/not-utf8.json", exit=1, numpy=False),
    cli("model-not-utf8", "count --model {docs}/not-utf8.json", exit=1, numpy=False),
    cli("maxdef-list", "thresholds --profile {docs}/maxdef-list.json", exit=1, numpy=False),
    cli("profile-fiber-degree-9", "thresholds --profile {docs}/profile-fiber-degree-9.json",
        exit=1, numpy=False),
    *(cli(name, f"count --model {{docs}}/{name}.json", exit=1, numpy=False)
      for name in ("q-zero-denominator", "top-level-list", "model-nested-too-deep",
                   "model-translate-empty")),
    # refused before the first slice or before q is expanded
    cli("count-dmax-past-budget", "count --profile cubic-pencil --dmax 100000000", exit=1,
        numpy=False),
    cli("q-past-power-bound", "count --profile cubic-pencil --q 1e3000000 --dmax 5", exit=1,
        numpy=False),
    cli("model-brauer-past-int64", "count --model {docs}/model-brauer-past-int64.json --dmax 1100",
        exit=1, numpy=False),
    # the wide rank-3 cone would count 360,000,018 column-generator pairs
    *(cli(name, f"count --model {{docs}}/{name}.json --dmax 5", exit=1, numpy=False)
      for name in ("model-brauer-5001-digits", "model-huge-q", "model-dim-rule-past-budget",
                   "model-cone-past-budget", "model-flat-rank-2", "model-flat-rank-3",
                   "model-rank-4")),
]

CLI = {row.name: row for row in ROWS if row.argv[:2] == ("-m", "delpezzo.cli")}

# the criterion-10 invocations (argv after `delpezzo`) and their digests: the
# sha256 rows named after their command, one per command
CRITERION_10 = [(list(row.argv[2:]), row.stdout[1]) for row in ROWS
                if row.stdout and row.stdout[0] == "sha256" and row.argv[2:3] == (row.name,)]

# every run of the runner: each row, then each numpy-free row under `-S`
RUNS = [(row, ()) for row in ROWS] + [(row, ("-S",)) for row in ROWS if not row.numpy]


def run_name(row, flags) -> str:
    """The name the runner prints for a run of `row` under the interpreter `flags`."""
    return " ".join([row.name, *flags])


def row_argv(row, docs) -> list:
    """The row's argv after `python`, reading the documents in `docs`."""
    return [a.replace("{docs}", str(docs)) for a in row.argv]


# an integer literal of 5001 digits, past Python's limit of 4300 digits on
# int strings; json.dumps cannot write it, so it is spliced into the text
HUGE_LITERAL = "1" + "0" * 5000


def _profile(name):
    return json.loads((SRC / "delpezzo" / "profiles" / f"{name}.json").read_text())


def write_documents(docs) -> list:
    """Write every document a row reads into the directory `docs`: unreadable
    or refused profile and counting-model files, and the few that load.
    Returns their file names."""
    x5, cubic = _profile("x5-pencil"), _profile("cubic-pencil")
    model = {"profile": x5, "translates": [[-1]], "q": "2"}

    def on_cone(gens, height, base=x5, q="2"):
        rank = len(gens[0])
        cone = {"generators": gens, "height": height}
        return {"profile": dict(base, rho_eta=rank, nef_cone_eta=cone),
                "translates": [[0] * rank], "q": q}

    files = {
        "not-utf8.json": b"\xff" * 64,
        "model-brauer-5001-digits.json": json.dumps(dict(model, profile=dict(x5, brauer_order=-1)))
        .replace('"brauer_order": -1', '"brauer_order": ' + HUGE_LITERAL),
        # arrays nested past the recursion limit
        "model-nested-too-deep.json": "[" * 100000 + "]" * 100000,
    }
    documents = {
        "model.json": {"profile": "cubic-pencil", "translates": [[-1]], "q": "3"},
        "model-rank-3.json": on_cone([[1, 0, 0], [0, 1, 1], [1, 1, 3], [2, 1, 1]], [1, -1, 2],
                                     base=cubic, q="3/2"),
        "model-wide-rank-2.json": on_cone([[1, -1000000], [1, 1000000]], [1, 0]),
        "model-cone-past-budget.json": on_cone(
            [[1, -1000000, 0], [1, 1000000, 0], [1, 0, 1]], [1, 0, 0]),
        "model-flat-rank-2.json": on_cone([[1, 0], [2, 0]], [1, 1]),
        "model-flat-rank-3.json": on_cone([[1, 0, 0], [0, 1, 0], [1, 1, 0]], [1, 1, 1]),
        "model-rank-4.json": on_cone([[int(i == j) for j in range(4)] for i in range(4)], [1] * 4),
        "q-zero-denominator.json": dict(model, q="1/0"),
        "top-level-list.json": [model],
        "maxdef-list.json": dict(x5, maxdef_table=[[-1, 1]]),
        "profile-fiber-degree-9.json": dict(cubic, fiber_degree=9),
        "model-translate-empty.json": {"profile": cubic, "translates": [[]], "q": "2"},
        "model-dim-rule-past-budget.json": dict(model, dim_rule=10**14),
        "model-brauer-past-int64.json": dict(model, profile=dict(x5, brauer_order=10**4000)),
        "model-huge-q.json": {"profile": "cubic-pencil", "translates": [[-1]], "q": "1e3000000"},
    }
    files.update((name, json.dumps(doc)) for name, doc in documents.items())
    for name, data in files.items():
        path = Path(docs) / name
        path.write_bytes(data) if isinstance(data, bytes) else path.write_text(data)
    return sorted(files)


def _spawn(row, docs, env, flags=()):
    """(exit code, wall s, peak RSS MB, stdout, stderr lines) of one row's
    child, run with the interpreter `flags` and killed with SIGKILL at the
    row's wall bound."""
    imports = () if row.numpy else ("-X", "importtime")
    args = [*flags, *imports, *row_argv(row, docs)]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])

        def kill(*_):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, row.wall)
        _, status, usage = os.wait4(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        out.seek(0), err.seek(0)
        stdout, stderr = out.read(), err.read().decode(errors="replace").splitlines()
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024, stdout, stderr


def _faults(row, code, wall, rss, stdout, stderr) -> list:
    """What one row's child did wrong."""
    # hashlib loads OpenSSL (about 3.6 MB), so it is imported once every
    # child has run: a child's ru_maxrss counts this process's peak RSS
    import hashlib

    imports = [line for line in stderr if line.startswith("import time:")]
    errors = [line for line in stderr if not line.startswith("import time:")]
    # numpy's core, click or sympy, or a module of theirs: `-X importtime`
    # does not name a module that importlib.import_module loads, but does name
    # the modules it imports in turn
    forbidden = re.compile(r"\| +(numpy\.(_core|core)|click|sympy)(\.|$)")
    kind, value = row.stdout or (None, None)
    text = stdout.decode(errors="replace")
    faults = [
        (code == -signal.SIGKILL or wall > row.wall, f"killed at its {row.wall} s bound"),
        (code != row.exit, f"exit {code}, expected {row.exit}"),
        (any("Traceback" in line for line in errors), "a traceback on stderr"),
        (row.exit == 1 and not (len(errors) == 1 and errors[0].startswith("error: ")),
         "not one `error:` line on stderr"),
        (row.rss is not None and rss >= row.rss, f"peak RSS past {row.rss} MB"),
        (any(map(forbidden.search, imports)), "loaded numpy, click or sympy"),
        (kind is None and stdout, "printed to stdout with no check of it"),
        (kind == "sha256" and hashlib.sha256(stdout).hexdigest() != value, "stdout digest"),
        (kind == "contains" and value not in text, f"no {value!r} in stdout"),
        (kind == "line" and value not in text.splitlines(), f"no line {value!r} in stdout"),
    ]
    return [why for bad, why in faults if bad]


def child_env() -> dict:
    """The environment of a child `python` that imports the package from `src`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def main() -> int:
    env = child_env()
    with tempfile.TemporaryDirectory() as docs:
        write_documents(docs)
        results = [(row, flags, _spawn(row, docs, env, flags)) for row, flags in RUNS]
    failed = 0
    for row, flags, (code, wall, rss, stdout, stderr) in results:
        faults = _faults(row, code, wall, rss, stdout, stderr)
        failed += bool(faults)
        name = run_name(row, flags)
        print(f"{'FAIL' if faults else 'ok  '} {name:30} exit {code:3} {wall:6.2f} s "
              f"{rss:6.1f} MB  {'; '.join(faults)}".rstrip())
    print(f"{len(RUNS) - failed} of {len(RUNS)} runs passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
