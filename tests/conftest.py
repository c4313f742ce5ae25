import io
from contextlib import redirect_stderr, redirect_stdout
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
