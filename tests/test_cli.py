import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from delpezzo.cli import main, run_example
from delpezzo.thresholds import load_profile, profile_to_dict


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_lattice(runner):
    res = invoke(runner, ["lattice", "--degree", "3"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["rank"] == 7
    assert data["anticanonical"] == [3, -1, -1, -1, -1, -1, -1]


def test_curves_json_and_csv(runner):
    res = invoke(runner, ["curves", "--degree", "5", "--kind", "lines"])
    assert res.exit_code == 0
    assert json.loads(res.output)["count"] == 10
    res = invoke(
        runner, ["curves", "--degree", "7", "--kind", "conics", "--format", "csv"]
    )
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "c0,c1,c2"
    assert len(lines) == 3


def test_curves_cubics_tagged(runner):
    res = invoke(runner, ["curves", "--degree", "3", "--kind", "cubics"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["count"] == 73
    kinds = [row["kind"] for row in data["classes"]]
    assert kinds.count("CubicLinePullback") == 72
    assert kinds.count("CubicAnticanonical") == 1
    assert all(len(row["class"]) == 7 for row in data["classes"])
    res = invoke(
        runner, ["curves", "--degree", "3", "--kind", "cubics", "--format", "csv"]
    )
    lines = res.output.splitlines()
    assert lines[0] == "c0,c1,c2,c3,c4,c5,c6,kind"
    assert len(lines) == 74


def test_weyl_and_orbits(runner):
    res = invoke(runner, ["weyl", "--degree", "5"])
    assert json.loads(res.output)["order"] == 120
    # no simple roots for n <= 1: the group is trivial
    for degree in ("8", "9"):
        res = invoke(runner, ["weyl", "--degree", degree])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert (data["generators"], data["order"]) == (0, 1)
    res = invoke(runner, ["orbits", "--degree", "4", "--classes", "lines"])
    data = json.loads(res.output)
    assert data["orbit_sizes"] == [16]


def test_weyl_refuses_known_order_past_cap(runner, monkeypatch):
    # refused from the closed-form order, before any closure runs
    def closure(*args, **kwargs):
        raise AssertionError("the closure ran")

    monkeypatch.setattr("delpezzo.weyl.generate_group", closure)
    for args, cap in ((["--degree", "1"], 4_000_000), (["--degree", "3", "--cap", "51839"], 51839)):
        res = invoke(runner, ["weyl", *args])
        assert res.exit_code == 1
        assert res.stderr == f"error: group closure passed the cap of {cap} elements\n"


def test_fujita_cmd(runner):
    res = invoke(runner, ["fujita", "--degree", "9"])
    data = json.loads(res.output)
    assert data["a_invariant"] == "1"
    assert data["larger_a_locus_size"] == 0
    res = invoke(runner, ["fujita", "--hirzebruch", "1"])
    assert json.loads(res.output)["a_invariant"] == "1"
    res = invoke(runner, ["fujita", "--hirzebruch", "3"])
    assert res.exit_code == 1
    res = invoke(runner, ["fujita", "--degree", "3", "--hirzebruch", "1"])
    assert res.exit_code == 2


def test_thresholds_cmd(runner):
    res = invoke(runner, ["thresholds", "--profile", "cubic-pencil"])
    data = json.loads(res.output)
    assert data["q"] == 6
    assert data["mbb_bound"] == 3
    res = invoke(runner, ["thresholds", "--profile", "nope"])
    assert res.exit_code == 1


def test_ruled_cmd(runner):
    res = invoke(runner, ["ruled", "--seed", "5", "--trials", "50"])
    data = json.loads(res.output)
    assert data["all_passed"] is True
    assert data["trials"] == 50


def test_count_csv_header(runner):
    res = invoke(
        runner,
        ["count", "--profile", "cubic-pencil", "--q", "2", "--dmax", "5",
         "--format", "csv"],
    )
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "d,exact,asymptotic,ratio"
    assert len(lines) == 6
    assert lines[1].split(",")[1] == "14"


def test_count_json(runner):
    res = invoke(
        runner, ["count", "--profile", "x5-pencil", "--q", "5/2", "--dmax", "4"]
    )
    data = json.loads(res.output)
    assert data["measured_offset"] == "25/4"
    assert data["stabilizes"] is True


def test_count_model_file(runner, tmp_path):
    model = {
        "profile": "cubic-pencil",
        "translates": [[-1]],
        "q": "3",
        "dim_rule": 2,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    res = invoke(runner, ["count", "--model", str(path), "--dmax", "4"])
    assert res.exit_code == 0
    assert json.loads(res.output)["measured_offset"] == "9"
    res = invoke(
        runner,
        ["count", "--model", str(path), "--profile", "cubic-pencil"],
    )
    assert res.exit_code == 2
    res = invoke(runner, ["count", "--dmax", "4"])
    assert res.exit_code == 2


def test_count_domain_errors(runner):
    res = invoke(runner, ["count", "--profile", "cubic-pencil", "--q", "1"])
    assert res.exit_code == 1
    res = invoke(runner, ["count", "--profile", "cubic-pencil", "--dmax", "2"])
    assert res.exit_code == 1


def test_example_reports():
    rep = run_example("cubic-pencil", q=2, dmax=4)
    assert rep["thresholds"]["q"] == 6
    assert rep["thresholds"]["mbb_bound"] == 3
    assert rep["monodromy"]["line_orbit_sizes"] == [27]
    rep23 = run_example("hypersurface-23", q=2, dmax=4)
    assert rep23["thresholds"]["non_dominant_threshold"] == 3


def test_example_cmd_and_unknown_name(runner):
    res = invoke(runner, ["example", "--name", "x5-pencil", "--dmax", "4"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["monodromy"]["line_orbit_sizes"] == [10]
    assert data["convergence"]["measured_offset"] == "4"
    res = invoke(runner, ["example", "--name", "bogus"])
    assert res.exit_code == 2


def test_example_csv(runner):
    res = invoke(
        runner,
        ["example", "--name", "cubic-pencil", "--dmax", "4", "--format", "csv"],
    )
    lines = res.output.splitlines()
    assert lines[0] == "d,exact,asymptotic,ratio"
    assert len(lines) == 5


def test_usage_errors(runner):
    assert invoke(runner, ["lattice", "--degree", "12"]).exit_code == 2
    assert invoke(runner, ["curves", "--degree", "3", "--kind", "quartics"]).exit_code == 2


def test_emitted_json_reparses_to_report():
    runner = CliRunner()
    res = invoke(runner, ["thresholds", "--profile", "diagonal-cubic"])
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
def test_byte_identical_reruns(runner, args):
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output


def _bad_inputs(tmp_path):
    x5 = profile_to_dict(load_profile("x5-pencil"))
    model = {"profile": x5, "translates": [[x5["neg"]]], "q": "2"}
    files = {
        "q-zero-denominator": dict(model, q="1/0"),
        "top-level-list": [model],
        "maxdef-list": dict(x5, maxdef_table=[[-1, 1]]),
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    return {
        "q-not-rational": (["count", "--profile", "cubic-pencil", "--q", "abc"], 2),
        "example-q-not-rational": (
            ["example", "--name", "x5-pencil", "--q", "x/2"], 2
        ),
        "q-zero-denominator": (
            ["count", "--model", str(tmp_path / "q-zero-denominator.json")], 1
        ),
        "top-level-list": (
            ["count", "--model", str(tmp_path / "top-level-list.json")], 1
        ),
        "maxdef-list": (
            ["thresholds", "--profile", str(tmp_path / "maxdef-list.json")], 1
        ),
    }


@pytest.mark.parametrize(
    "case",
    [
        "q-not-rational",
        "example-q-not-rational",
        "q-zero-denominator",
        "top-level-list",
        "maxdef-list",
    ],
)
def test_bad_input_exits_cleanly(runner, tmp_path, case):
    args, code = _bad_inputs(tmp_path)[case]
    res = invoke(runner, args)
    assert res.exit_code == code
    assert "Traceback" not in res.stderr
    if code == 1:
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert "Invalid value for '--q'" in res.stderr


def test_cli_import_leaves_sympy_out():
    # sympy is a test-only dependency; the CLI must not pull it in
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import delpezzo.cli, sys; assert 'sympy' not in sys.modules",
        ],
        env=env,
        check=True,
    )
