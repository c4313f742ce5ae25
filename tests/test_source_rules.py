"""The ownership rules of the package source, one table row each, and the one
test that runs them.

A row names a rule and holds a regular expression, the one module of
`src/delpezzo` allowed to match it (the module that owns the decision), the
reason, and plants: lines that break the rule, each of which the expression
must match.  The test reads every other module of `src/delpezzo` line by line
and fails listing `file:line: text` for each match.  It fails, too, when one
of the row's plants stops matching, so an expression edited into one that
misses its own violations cannot pass.  The expressions are POSIX extended
expressions that Python's `re` reads the same way, so

    grep -nE --exclude=HOME 'PATTERN' src/delpezzo/*.py

finds the same lines.
"""

import re
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "delpezzo"


class Rule(NamedTuple):
    name: str
    pattern: str
    home: str  # the one file of the package allowed to match
    reason: str
    plants: tuple  # lines that break the rule


RULES = [
    Rule("float-dtypes-in-linalg", r"np\.float(32|64)", "linalg.py",
         "linalg holds the one exact-product rule: every other module takes its dtype "
         "from linalg._exact_dtype or linalg._integer_operands",
         ("dtype = np.float32", "X.astype(np.float64)")),
    Rule("budgets-compared-in-errors",
         r"[<>]=? *([A-Z_]*BUDGET|cap|max_exponent)\b|\b([A-Z_]*BUDGET|cap|max_exponent) *[<>]",
         "errors.py",
         "errors._check_budget holds the one comparison of an amount with a work budget "
         "(a *BUDGET constant, a closure cap or an exponent bound) and raises CapExceeded; "
         "every other module calls it",
         ("if visited > SEARCH_BUDGET:", "if order >= cap:", "while COUNT_BUDGET < n:",
          "if bits > max_exponent:")),
    Rule("integers-read-in-errors", r"operator\.index|from operator import[^#]*\bindex\b",
         "errors.py",
         "errors._index reads one exact integer and errors._ints a vector or matrix of them "
         "(a bool refused, numpy integers read as Python ints); every other module calls "
         "them, and none calls operator.index",
         ("from operator import index", "from operator import mul, index",
          "n = operator.index(x)")),
    Rule("block-bound-in-linalg", r"\b_BLOCK\b *([-+*/%]{1,2}|:[^=]*)?=[^=]|/ *_BLOCK\b",
         "linalg.py",
         "linalg._BLOCK is the one working-set bound: linalg._block_rows and "
         "linalg._exact_tiles apply it, and every other module calls them",
         ("_BLOCK = 4096", "_BLOCK: int = 4096", "step = n // _BLOCK", "_BLOCK //= 2",
          "x = n / _BLOCK")),
    Rule("numpy-through-linalg", r"^\s*(import numpy\b|from numpy\b)|_lazy_import\(",
         "linalg.py",
         "linalg imports numpy once, lazily, as `np` for the whole package: a command that "
         "never computes with it never loads it, and one that does, where numpy is not "
         "installed, ends in one `error:` line",
         ("import numpy as np", "    from numpy import array", 'np = _lazy_import("numpy")')),
]


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_source_rule(rule):
    regex = re.compile(rule.pattern)
    missed = [plant for plant in rule.plants if not regex.search(plant)]
    assert not missed, f"{rule.name} no longer matches its plants {missed}"
    assert (PACKAGE / rule.home).is_file(), f"no {rule.home} in {PACKAGE}"
    broken = [
        f"{path.relative_to(ROOT)}:{n}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != rule.home
        for n, line in enumerate(path.read_text().split("\n"), 1) if regex.search(line)
    ]
    assert not broken, "\n".join([f"{rule.name}: {rule.reason}", *broken])
