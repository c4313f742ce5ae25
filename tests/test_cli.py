import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cold_commands import (CLI, HUGE_LITERAL, ROWS, RUNS, _spawn, child_env, row_argv, run_name,
                           write_documents)
from delpezzo.cli import _COMMANDS, _parser, _rational, run_example
from delpezzo.counting import COUNT_BUDGET, COUNT_POWER_BITS, default_model, load_model, model_to_json
from delpezzo.errors import DomainError, FieldError, ToolkitError, _read_json
from delpezzo.picard import DEFAULT_CAP, WEYL_ORDERS
from delpezzo.ruled import (
    FUZZ_BUDGET,
    blow_up_fiber,
    fibertree_from_json,
    fibertree_to_json,
    irreducible_fiber,
    with_marked,
)
from delpezzo.thresholds import list_shipped_profiles, load_profile, profile_to_dict


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """A directory of the documents the cold-command rows read."""
    docs = tmp_path_factory.mktemp("docs")
    write_documents(docs)
    return docs


def _args(name, docs):
    """The argv after `delpezzo` of the cold-command row `name`."""
    return row_argv(CLI[name], docs)[2:]


def test_lattice(cli):
    res = cli(["lattice", "--degree", "3"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["rank"] == 7
    assert data["anticanonical"] == [3, -1, -1, -1, -1, -1, -1]


def test_curves_json_and_csv(cli):
    res = cli(["curves", "--degree", "5", "--kind", "lines"])
    assert res.exit_code == 0
    assert json.loads(res.output)["count"] == 10
    res = cli(["curves", "--degree", "7", "--kind", "conics", "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "c0,c1,c2"
    assert len(lines) == 3


def test_curves_cubics_tagged(cli):
    res = cli(["curves", "--degree", "3", "--kind", "cubics"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["count"] == 73
    kinds = [row["kind"] for row in data["classes"]]
    assert kinds.count("CubicLinePullback") == 72
    assert kinds.count("CubicAnticanonical") == 1
    assert all(len(row["class"]) == 7 for row in data["classes"])
    res = cli(["curves", "--degree", "3", "--kind", "cubics", "--format", "csv"])
    lines = res.output.splitlines()
    assert lines[0] == "c0,c1,c2,c3,c4,c5,c6,kind"
    assert len(lines) == 74


def test_weyl_and_orbits(cli):
    res = cli(["weyl", "--degree", "5"])
    assert json.loads(res.output)["order"] == 120
    # no simple roots for n <= 1: the group is trivial
    for degree in ("8", "9"):
        res = cli(["weyl", "--degree", degree])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert (data["generators"], data["order"]) == (0, 1)
    res = cli(["orbits", "--degree", "4", "--classes", "lines"])
    data = json.loads(res.output)
    assert data["orbit_sizes"] == [16]


@pytest.mark.parametrize(
    "degree, sizes",
    [(1, [240, 17280]), (2, None), (3, [1, 72]), (4, None), (5, [5]), (6, None),
     (7, None), (8, None), (9, [1])],
)
def test_orbits_of_cubics(cli, degree, sizes):
    # the cubic classes' kind tags are not part of the classes acted on
    res = cli(["orbits", "--degree", str(degree), "--classes", "cubics"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert sum(data["orbit_sizes"]) == data["count"]
    if sizes is not None:
        assert data["orbit_sizes"] == sizes


def test_weyl_refuses_known_order_past_cap(cli, monkeypatch):
    # refused from the closed-form order, before any closure runs
    def closure(*args, **kwargs):
        raise AssertionError("the closure ran")

    monkeypatch.setattr("delpezzo.weyl.generate_group", closure)
    for args, cap in ((["--degree", "1"], 4_000_000), (["--degree", "3", "--cap", "51839"], 51839)):
        res = cli(["weyl", *args])
        assert res.exit_code == 1
        assert res.stderr == f"error: group closure passed the cap of {cap} elements\n"


def test_fujita_cmd(cli):
    res = cli(["fujita", "--degree", "9"])
    data = json.loads(res.output)
    assert data["a_invariant"] == "1"
    assert data["larger_a_locus_size"] == 0
    res = cli(["fujita", "--hirzebruch", "1"])
    assert json.loads(res.output)["a_invariant"] == "1"
    res = cli(["fujita", "--hirzebruch", "3"])
    assert res.exit_code == 1
    res = cli(["fujita", "--degree", "3", "--hirzebruch", "1"])
    assert res.exit_code == 2


def test_thresholds_cmd(cli):
    res = cli(["thresholds", "--profile", "cubic-pencil"])
    data = json.loads(res.output)
    assert data["q"] == 6
    assert data["mbb_bound"] == 3
    res = cli(["thresholds", "--profile", "nope"])
    assert res.exit_code == 1


def test_ruled_cmd(cli):
    res = cli(["ruled", "--seed", "5", "--trials", "50"])
    data = json.loads(res.output)
    assert data["all_passed"] is True
    assert data["trials"] == 50


@pytest.mark.parametrize(
    "args", [["--trials", "1000000000"], ["--trials", "2", "--depth", "100000000"]]
)
def test_ruled_budget_refused(cli, args):
    res = cli(["ruled", *args])
    assert res.exit_code == 1 and res.stdout == ""
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "--trials" in lines[0] and "--depth" in lines[0]
    help_text = " ".join(cli(["ruled", "--help"]).output.split())
    assert f"trials x depth <= {FUZZ_BUDGET}." in help_text


@pytest.mark.parametrize(
    "args",
    [["count", "--profile", "cubic-pencil", "--dmax", "100000000"],
     ["example", "--name", "x5-pencil", "--dmax", "100000000"]],
    ids=["count", "example"],
)
def test_count_budget_refused(cli, args):
    res = cli(args)
    assert res.exit_code == 1 and res.stdout == ""
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --dmax 100000000 ")
    help_text = " ".join(cli([args[0], "--help"]).output.split())
    assert f"at most {COUNT_BUDGET} column-generator pairs" in help_text
    assert f"at most {COUNT_POWER_BITS} bits" in help_text


def test_huge_q_exponent_refused_at_once(cli, docs):
    # every q with a decimal exponent past 4096 in size is past the power
    # bound; it is refused before Fraction builds the number
    for name, words in (
        ("q-past-power-bound", "error: a decimal exponent"),
        ("model-huge-q", "error: counting model JSON field 'q': a decimal exponent"),
    ):
        start = time.perf_counter()
        res = cli(_args(name, docs))
        assert time.perf_counter() - start < 0.5
        assert res.exit_code == 1 and res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(words)
        assert "past the counting budget" in lines[0]


def test_cross_field_errors_name_the_document(cli, docs):
    for name, line in (
        ("profile-fiber-degree-9", "error: profile JSON: fiber degree 9 outside 1..8"),
        ("model-translate-empty",
         "error: counting model JSON: translate () does not match rho_eta"),
    ):
        res = cli(_args(name, docs))
        assert res.exit_code == 1 and res.stderr.splitlines() == [line]
    with pytest.raises(DomainError) as ex:
        fibertree_from_json({"components": [[-1, 1], [-1, 1]], "edges": []})
    assert str(ex.value) == "fiber tree JSON: edge count must be component count minus one"
    # a field's own error keeps naming its path
    with pytest.raises(FieldError, match=r"^fiber tree JSON field 'edges': "):
        fibertree_from_json({"components": [[-1, 1], [-1, 1]], "edges": [[0]]})


def test_count_csv_header(cli):
    res = cli(
        ["count", "--profile", "cubic-pencil", "--q", "2", "--dmax", "5", "--format", "csv"]
    )
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "d,exact,asymptotic,ratio"
    assert len(lines) == 6
    assert lines[1].split(",")[1] == "14"


def test_count_json(cli):
    res = cli(["count", "--profile", "x5-pencil", "--q", "5/2", "--dmax", "4"])
    data = json.loads(res.output)
    assert data["measured_offset"] == "25/4"
    assert data["stabilizes"] is True


def test_count_model_file(cli, tmp_path):
    model = {
        "profile": "cubic-pencil",
        "translates": [[-1]],
        "q": "3",
        "dim_rule": 2,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    res = cli(["count", "--model", str(path), "--dmax", "4"])
    assert res.exit_code == 0
    assert json.loads(res.output)["measured_offset"] == "9"
    res = cli(["count", "--model", str(path), "--profile", "cubic-pencil"])
    assert res.exit_code == 2
    res = cli(["count", "--dmax", "4"])
    assert res.exit_code == 2
    # a model file carries its own q: an explicit --q is refused, not ignored
    res = cli(["count", "--model", str(path), "--q", "7"])
    assert res.exit_code == 2
    assert "--q applies to --profile only" in res.stderr


def test_count_domain_errors(cli):
    res = cli(["count", "--profile", "cubic-pencil", "--q", "1"])
    assert res.exit_code == 1
    res = cli(["count", "--profile", "cubic-pencil", "--dmax", "2"])
    assert res.exit_code == 1


def test_example_reports():
    rep = run_example("cubic-pencil", q=2, dmax=4)
    assert rep["thresholds"]["q"] == 6
    assert rep["thresholds"]["mbb_bound"] == 3
    assert rep["monodromy"]["line_orbit_sizes"] == [27]
    rep23 = run_example("hypersurface-23", q=2, dmax=4)
    assert rep23["thresholds"]["non_dominant_threshold"] == 3


def test_example_cmd_and_unknown_name(cli):
    res = cli(["example", "--name", "x5-pencil", "--dmax", "4"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["monodromy"]["line_orbit_sizes"] == [10]
    assert data["convergence"]["measured_offset"] == "4"
    res = cli(["example", "--name", "bogus"])
    assert res.exit_code == 2


def test_example_csv(cli):
    res = cli(["example", "--name", "cubic-pencil", "--dmax", "4", "--format", "csv"])
    lines = res.output.splitlines()
    assert lines[0] == "d,exact,asymptotic,ratio"
    assert len(lines) == 5


def test_main_builds_its_parser_once(cli, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kw):
        built.append(kw.get("prog"))
        init(self, *args, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _parser.cache_clear()
    for _ in range(2):
        assert cli(["lattice", "--degree", "3"]).exit_code == 0
        # the top parser and one per command, all in the first call
        assert built.count("delpezzo") == 1 and len(built) == 1 + len(_COMMANDS)


def test_usage_errors(cli):
    assert cli(["lattice", "--degree", "12"]).exit_code == 2
    # an option is never abbreviated
    assert cli(["lattice", "--deg", "3"]).exit_code == 2


# every flag of every command and its default (None: no default)
_FLAGS = {
    "lattice": {"--degree": None},
    "curves": {"--degree": None, "--kind": "lines", "--format": "json"},
    "weyl": {"--degree": None, "--cap": DEFAULT_CAP},
    "orbits": {"--degree": None, "--classes": "lines"},
    "fujita": {"--degree": None, "--hirzebruch": None},
    "thresholds": {"--profile": None},
    "ruled": {"--seed": 0, "--trials": 1000, "--depth": 8},
    "count": {"--profile": None, "--model": None, "--q": 2, "--dmax": 12, "--format": "json"},
    "example": {"--name": None, "--q": 2, "--dmax": 12, "--format": "json"},
}


@pytest.mark.parametrize("name", _FLAGS)
def test_help_names_every_flag(cli, name):
    res = cli([name, "--help"])
    assert res.exit_code == 0
    assert sorted(flag for flag, _ in _options(name)) == sorted(_FLAGS[name])
    text = " ".join(res.stdout.split())
    for flag, default in _FLAGS[name].items():
        # the flag's entry in the list after the usage line: its metavar and
        # help, up to the next flag
        entry = text.rpartition(f"{flag} ")[2].partition(" --")[0]
        assert entry, flag
        assert ("[default: " in entry) == (default is not None), entry
        assert default is None or f"[default: {default}]" in entry
    assert cli(["curves", "--degree", "3", "--kind", "quartics"]).exit_code == 2


def test_emitted_json_reparses_to_report(cli):
    res = cli(["thresholds", "--profile", "diagonal-cubic"])
    parsed = json.loads(res.output)
    from delpezzo import load_profile, threshold_report
    from delpezzo.cli import _jsonable

    direct = threshold_report(load_profile("diagonal-cubic"))
    assert parsed == json.loads(json.dumps(_jsonable(direct), sort_keys=True))


@pytest.mark.parametrize(
    "args",
    [
        ["lattice", "--degree", "4"],
        ["curves", "--degree", "6", "--kind", "cubics", "--format", "csv"],
        ["weyl", "--degree", "4"],
        ["orbits", "--degree", "3", "--classes", "conics"],
        ["fujita", "--degree", "7"],
        ["thresholds", "--profile", "x5-pencil"],
        ["ruled", "--seed", "9", "--trials", "60"],
        ["count", "--profile", "hypersurface-23", "--q", "3", "--dmax", "5"],
        ["example", "--name", "x5-pencil", "--dmax", "4"],
    ],
)
def test_byte_identical_reruns(cli, args):
    first = cli(args)
    second = cli(args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output


# every row whose stdout the cold-command table pins by its sha256, run in
# this process, where every module is loaded, against the digest its cold runs
# meet: the criterion-10 rows, each named after its command, and the rest
@pytest.mark.parametrize("name", [name for name, row in CLI.items()
                                  if row.stdout and row.stdout[0] == "sha256"])
def test_criterion_10_stdout_digests(cli, docs, name):
    res = cli(_args(name, docs))
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == CLI[name].stdout[1]


# the usage error each exit-2 row prints
_USAGE = {
    "q-not-rational": "argument --q: 'abc' is not a rational number",
    "example-q-not-rational": "argument --q: 'x/2' is not a rational number",
    "model-with-q": "--q applies to --profile only",
}


@pytest.mark.parametrize("name", [name for name, row in CLI.items() if row.exit])
def test_bad_input_exits_cleanly(cli, docs, name):
    res = cli(_args(name, docs))
    assert res.exit_code == CLI[name].exit
    assert "Traceback" not in res.stderr
    if res.exit_code == 1:
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert _USAGE[name] in res.stderr.splitlines()[-1]


def test_cold_command_rows(docs):
    # a renamed flag or a stale row fails here, not only where the rows run
    # cold: every row parses (an exit-1 row may be refused as an option is
    # read, a help row exits 0), a usage-error row exits 2, and every
    # document the rows read is written
    assert len({row.name for row in ROWS}) == len(ROWS)
    for name, row in CLI.items():
        try:
            opts = _parser("delpezzo").parse_args(_args(name, docs))
            if row.exit == 2:
                opts.run(opts)
            code = 0
        except SystemExit as ex:
            code = ex.code
        except ToolkitError:
            code = 1
        assert code in ({0, 1} if row.exit == 1 else {row.exit}), name
    read = {a for row in ROWS for a in row.argv}
    assert all(f"{{docs}}/{name}" in read for name in write_documents(docs))


# leaf replacements of the JSON property test: wrong types, NaN, Infinity, a
# nested list, integers that other fields or a range contradict, integers
# past int64 and the 5001-digit literal (spliced into the text for its
# placeholder), and a removal
_LITERAL_PLACEHOLDER = "<5001-digit literal>"
_MISSING = object()
_BAD_LEAVES = ["x", 2.5, True, None, {}, [[1]], float("nan"), float("inf"), 0, 2, 9,
               2**70, 10**4000, _LITERAL_PLACEHOLDER, _MISSING]


def _json_documents():
    """(document name, document) pairs: the four shipped profiles, a seeded
    counting model on each (and one naming its profile) and seeded fiber
    trees."""
    rng = random.Random(5)
    profiles = [profile_to_dict(load_profile(name)) for name in list_shipped_profiles()]
    docs = [("profile", p) for p in profiles]
    for p in profiles:
        model = default_model(load_profile(p["name"]), rng.choice(["2", "5/2", "7"]))
        docs.append(("counting model", dict(model_to_json(model), dim_rule=rng.randint(0, 3))))
    docs.append(("counting model", {"profile": "cubic-pencil", "translates": [[-1]], "q": "3"}))
    for _ in range(4):
        t = irreducible_fiber()
        for _ in range(rng.randint(1, 5)):
            t = blow_up_fiber(t, rng.choice([*range(len(t.components)), *t.edges]))
        ones = [i for i, (_, m) in enumerate(t.components) if m == 1]
        docs.append(("fiber tree", fibertree_to_json(with_marked(t, rng.choice(ones)))))
    return docs


_DOCUMENTS = _json_documents()


def _leaf_paths(node, path=()):
    """The paths to the values of a JSON document that are not containers."""
    if not isinstance(node, (dict, list)):
        return [path]
    items = node.items() if isinstance(node, dict) else enumerate(node)
    return [leaf for key, value in items for leaf in _leaf_paths(value, path + (key,))]


def _mutate(name, doc, edits):
    """(name, JSON text, paths) of `doc` with each (path, value) edit made in
    turn: the value replaces the one at the path, or _MISSING removes it; a
    path that an earlier removal took away is skipped."""
    doc = json.loads(json.dumps(doc))
    paths = []
    for path, value in edits:
        *parents, last = path
        node = doc
        try:
            for key in parents:
                node = node[key]
            if value is _MISSING:
                del node[last]
            else:
                node[last] = value
        except IndexError:
            continue
        paths.append(path)
    text = json.dumps(doc).replace(json.dumps(_LITERAL_PLACEHOLDER), HUGE_LITERAL)
    return name, text, paths


@st.composite
def _mutated_document(draw):
    """A document with one or two leaves replaced by a bad value or removed:
    the leaf's key from its object, or one element of a list on its path,
    such as a whole translate, generator or component."""
    name, doc = draw(st.sampled_from(_DOCUMENTS))
    paths = draw(st.lists(st.sampled_from(_leaf_paths(doc)), min_size=1, max_size=2, unique=True))
    edits = []
    for path in paths:
        value = draw(st.sampled_from(_BAD_LEAVES))
        if value is _MISSING:
            cut = draw(st.sampled_from(
                [i for i, key in enumerate(path) if isinstance(key, int) or i == len(path) - 1]
            ))
            path = path[: cut + 1]
        edits.append((path, value))
    return _mutate(name, doc, edits)


# the three explicit examples reach a constructor's check across fields,
# one per document, and count toward the 200 examples
@given(case=_mutated_document())
@example(case=_mutate(*_DOCUMENTS[0], [(("rho_eta",), 2)]))
@example(case=_mutate(*_DOCUMENTS[4], [(("translates", 0, 0), _MISSING)]))
@example(case=_mutate(*_DOCUMENTS[10], [(("components", 3), _MISSING)]))
@settings(derandomize=True, deadline=None, max_examples=197)
def test_json_documents_load_or_name_the_fault(cli, docs, case):
    # every mutated document loads, or raises one DomainError that names a
    # field on the path to a mutation, the file it could not read, or, for a
    # check across fields, the document
    name, text, paths = case
    path = docs / "document.json"
    path.write_text(text)
    read = {
        "profile": lambda: load_profile(str(path)),
        "counting model": lambda: load_model(path),
        "fiber tree": lambda: fibertree_from_json(_read_json("fiber tree", path)),
    }[name]
    try:
        read()
    except FieldError as ex:
        assert str(ex).startswith(f"{name} JSON field '")
        field = ex.path.split(".")
        keys = [list(itertools.takewhile(lambda k: isinstance(k, str), p)) for p in paths]
        assert any(field[: len(k)] == k[: len(field)] for k in keys), (ex, paths)
    except DomainError as ex:
        assert str(ex).startswith((f"cannot load {name} {path}: ", f"{name} JSON: ")), ex
    if name == "counting model":
        res = cli(["count", "--model", str(path), "--dmax", "5"])
        assert res.exit_code in (0, 1)
        assert "Traceback" not in res.stderr
        if res.exit_code == 1:
            lines = res.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("name", [run_name(row, flags) for row, flags in RUNS])
def test_cold_command_run(cold_runs, name):
    # the runner's checks of one cold process: its exit code, its stderr, its
    # stdout, its wall and RSS bounds, and the modules it may not load
    lines, stderr = cold_runs
    assert name in lines, f"the runner printed no line for {name}:\n{stderr[-2000:]}"
    assert lines[name].startswith("ok "), lines[name]


def test_cold_lattice_loads_only_the_lattice(docs):
    # `lattice` reads nothing but the lattice: no other module of the package
    # is on its cold path.  Read off `-v`, which names every module loaded:
    # `-X importtime` misses one loaded by importlib.import_module, as the
    # package's lazy attributes load theirs
    code, *_, stderr = _spawn(CLI["lattice"], docs, child_env(), ("-v",))
    loaded = {m[1] for line in stderr if (m := re.match(r"import '([\w.]+)'", line))}
    assert code == 0
    package = {m for m in loaded if m.split(".")[0] == "delpezzo"}
    assert package <= {"delpezzo", "delpezzo.cli", "delpezzo.picard", "delpezzo.errors"}


def test_command_needing_numpy_refused_without_it():
    # under -S numpy cannot be imported: a command that computes with it ends
    # in one `error:` line naming numpy, not a traceback
    proc = subprocess.run([sys.executable, "-S", "-m", "delpezzo.cli", "weyl", "--degree", "5"],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == ["error: this command needs numpy, which is not installed"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_closed_stdout_exits_quietly(fmt):
    # a reader that stops after 10 bytes, as `| head -c 10` does: the command
    # still exits 0, with nothing on stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "delpezzo.cli", "curves", "--degree", "1", "--kind", "cubics",
         "--format", fmt],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize(
    "args", [["thresholds", "--profile", "/dev/zero"], ["count", "--model", "/dev/zero"]],
    ids=["profile", "model"],
)
def test_device_path_refused_before_reading(args):
    # /dev/zero never ends: it is refused as a path that is not a regular
    # file.  The child's address space is capped at 600 MB and it has a
    # timeout, so a reader that reads on cannot hang or exhaust this process
    resource = pytest.importorskip("resource")
    cap = 600 * 2**20
    proc = subprocess.run(
        [sys.executable, "-m", "delpezzo.cli", *args], env=child_env(), capture_output=True,
        text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot load "), proc.stderr[-300:]


# the top-level exports: every public name of the modules, and the modules
_EXPORTS = """
    AInvariantClass AlphaResult BreakResult CapExceeded Cone CountingModel CurveClassKind
    DEFAULT_CAP DecompositionNotFound DomainError FiberTree FibrationProfile FieldError
    FiniteGroup HeightBelowModel HirzebruchModel INFINITE_A MbbSource NefConeEta
    NonIntegralCoefficient NormalBundleType NotApplicable NotFound OrbitPartition
    PicardLattice PolarizedSurface SectionClass ThresholdReport ToolkitError Vec WEYL_ORDERS
    a_invariant alpha anticanonical_degree asymptotic blow_up_fiber break_fiber_class
    break_section check_cap classify_kind classify_vertical_family
    conic_bundle_extension_analysis contract_keeping_section convergence_report count_exact
    counting curves decompose_nef_integral default_model effective_cone_generators
    enumerate_conic_classes enumerate_cubic_classes enumerate_neg_one_curves errors
    fibertree_from_json fibertree_to_json find_diagonal_cubic_subgroup fujita
    fuzz_blow_up_sequences generate_group glue_normal_bundle gw_thresholds
    hirzebruch_polarized invariant_sublattice irreducible_fiber is_nef larger_a_locus
    lattice_points_at_height linalg list_shipped_profiles load_model load_profile
    make_lattice maxdef_height_bound maxdef_of_x mbb_bound minimal_moving_height
    model_from_json model_to_json monotone_corners nef_classes_of_height nef_curve_cone
    non_dominant_threshold orbits orbits_under_generators pair picard polarized_del_pezzo
    profile_to_dict q_of_x reachable_balanced_heights ruled same_a_low_height_bound
    section_height simple_roots tau theorem_constant threshold_report thresholds
    validate_isometry verify_second_minus_one weyl weyl_generators with_marked
""".split()


def test_package_exports():
    import delpezzo
    from delpezzo import picard, weyl

    assert sorted(delpezzo.__all__) == _EXPORTS and len(_EXPORTS) == 104
    namespace = {}
    exec("from delpezzo import *", namespace)
    assert set(_EXPORTS) <= set(namespace) and set(_EXPORTS) <= set(dir(delpezzo))
    assert namespace["weyl"] is weyl and namespace["make_lattice"] is picard.make_lattice
    assert (delpezzo.DEFAULT_CAP, delpezzo.WEYL_ORDERS) == (DEFAULT_CAP, WEYL_ORDERS)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        delpezzo.no_such_name


# option values by parameter type: valid ones next to huge, zero and negative
# integers, malformed or huge rationals, unknown choices, and missing,
# directory, non-UTF-8 and wrong-kind paths ({tmp} is a scratch directory)
_INTS = st.one_of(
    st.integers(1, 12), st.sampled_from([0, -1, -(2**63), 2**63, 10**8, 10**30])
)
_RATIONALS = st.sampled_from(
    ["2", "5/2", "7/3", "1", "0", "-3", "1/0", "abc", "x/2", "2.5", "1e400", "1e5000", ""]
)
_PATHS = st.sampled_from(
    ["cubic-pencil", "x5-pencil", "nope", "", "{tmp}", "{tmp}/missing.json",
     "{tmp}/model.json", "{tmp}/not-utf8.json"]
)


def _options(name):
    """The (flag, argparse keywords) pairs of a command in the parser's table,
    each member of a choice of exactly one among them."""
    return [opt for o in _COMMANDS[name][1] for opt in (o if isinstance(o, list) else [o])]


@st.composite
def _argv(draw):
    """A command and a value for each option it declares, each optional
    one left out half the time (so a choice of one may get none or two)."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    opts = {}
    for flag, kw in _options(name):
        if not kw.get("required") and not draw(st.booleans()):
            continue
        if kw.get("type") is _rational:
            values = _RATIONALS
        elif kw.get("type") is int:
            values = _INTS
        elif "choices" in kw:
            values = st.sampled_from([*kw["choices"], "bogus"])
        else:
            assert "type" not in kw, f"no values drawn for {kw['type']}"
            values = _PATHS
        opts[flag] = draw(values)
    return name, opts


def _slow(name, opts) -> bool:
    """Valid draws that take seconds or much memory: the W(E7) and W(E8)
    closures, the 17520 cubic classes of degree 1, the diagonal-cubic search
    and long fuzz runs; what they do is tested elsewhere."""
    degree = opts.get("--degree")
    if name == "weyl" and degree in (1, 2):
        return opts.get("--cap", DEFAULT_CAP) >= WEYL_ORDERS[9 - degree]
    if name in ("curves", "orbits") and degree == 1:
        return "cubics" in (opts.get("--kind"), opts.get("--classes"))
    if name == "ruled":
        trials, depth = opts.get("--trials", 1000), opts.get("--depth", 8)
        return 0 < depth and 256 < trials * depth <= FUZZ_BUDGET
    return opts.get("--name") == "diagonal-cubic"


@given(argv=_argv())
@example(argv=("orbits", {"--degree": 3, "--classes": "cubics"}))
@settings(derandomize=True, deadline=None, max_examples=200)
def test_argv_exits_cleanly(cli, docs, argv):
    name, opts = argv
    if _slow(name, opts):
        return
    args = [name]
    for opt, value in opts.items():
        args += [opt, str(value).replace("{tmp}", str(docs))]
    res = cli(args)
    assert res.exit_code in (0, 1, 2)
    assert "Traceback" not in res.stderr
    if res.exit_code == 0 and opts.get("--format") == "csv":
        rows = list(csv.reader(io.StringIO(res.stdout)))
        assert rows and all(len(row) == len(rows[0]) for row in rows)
    elif res.exit_code == 0:
        json.loads(res.stdout)
