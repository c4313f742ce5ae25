import io
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest

from delpezzo import (
    find_diagonal_cubic_subgroup,
    generate_group,
    make_lattice,
    weyl_generators,
)
from delpezzo.cli import main


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """stdout followed by stderr."""
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


def run_cli(argv) -> CliResult:
    """Run `delpezzo ARGV` in this process: its exit code and what it wrote.
    Any exception other than SystemExit propagates."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as ex:
            code = ex.code or 0
    return CliResult(code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="session")
def cli():
    return run_cli


@pytest.fixture(scope="session")
def lat6():
    return make_lattice(6)


@pytest.fixture(scope="session")
def we6(lat6):
    return generate_group(weyl_generators(lat6))


@pytest.fixture(scope="session")
def diag_subgroup(we6, lat6):
    return find_diagonal_cubic_subgroup(we6, lat6)


def _reads_cold_runs(item) -> bool:
    return "cold_runs" in getattr(item, "fixturenames", ())


def pytest_collection_modifyitems(items):
    # the tests that read the cold runs last, so that the runner works beside
    # the in-process tests rather than before them
    items.sort(key=_reads_cold_runs)


# the runner of the cold table, started when collection ends
_COLD_RUNNER = pytest.StashKey[subprocess.Popen]()


def pytest_collection_finish(session):
    """Start `tests/cold_commands.py` once, as soon as collection is final,
    where a selected test reads its runs: it spawns its processes one after
    another while the in-process tests run."""
    if any(map(_reads_cold_runs, session.items)):
        session.config.stash[_COLD_RUNNER] = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("cold_commands.py"))],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def pytest_sessionfinish(session):
    # a session that ends before the cold tests leaves no runner behind
    proc = session.config.stash.get(_COLD_RUNNER, None)
    if proc is not None:
        proc.kill()
        proc.communicate()


@pytest.fixture(scope="session")
def cold_runs(pytestconfig):
    """The line `tests/cold_commands.py` prints for each of its runs, by run
    name, and its stderr.  The runner runs once, in a process of its own that
    imports only the standard library (a child's peak RSS counts the peak of
    the process that spawned it), started when collection ends.  Each run is
    killed at its row's wall bound, and the whole table takes about 15 s."""
    stdout, stderr = pytestconfig.stash[_COLD_RUNNER].communicate(timeout=600)
    lines = re.finditer(r"^(?:ok  |FAIL) (.+?) +exit .*$", stdout, re.MULTILINE)
    return {line[1]: line[0] for line in lines}, stderr
