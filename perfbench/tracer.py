"""Span tracer installed from outside the package.

`Tracer.install` replaces every public function of the package modules with a
wrapper, on every module attribute that refers to it, so names re-bound by
`from .x import y` (for example `counting.dual_cone_rays` or `curves.pair`)
are wrapped too and nested calls get child spans; so are the functions held
in module-level dicts.  Spans are timed on the clock
given to the tracer and stay in memory until `summary` folds them into
per-layer numbers at the end of the run.

A few helpers are called so often that a span would cost more than the call;
they are counted without a span, and their time stays in their callers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict

MODULES = ["cli", "picard", "curves", "linalg", "weyl", "fujita", "thresholds",
           "ruled", "counting"]

COUNT_ONLY = {"picard.pair", "picard.anticanonical_degree", "linalg.dot",
              "linalg.primitive", "linalg.cone_contains", "weyl.mat_apply",
              "weyl.mat_mul"}


def _size(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


# work counters read off the arguments and results of a traced call:
# name -> (counter suffix, function(args, result) -> amount)
_OBSERVE = {
    "weyl.generate_group": [("elements", lambda a, r: r.order)],
    "weyl.orbits_under_generators": [("classes", lambda a, r: _size(a[1]))],
    "linalg.dual_cone_rays": [("normals", lambda a, r: _size(a[0])),
                              ("rays", lambda a, r: len(r))],
    "curves.is_nef": [("true", lambda a, r: int(r))],
}
_REFUSALS = {"weyl.generate_group": "CapExceeded"}


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []  # (name, parent index, start, end)
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.work: Counter = Counter()

    def _span_wrapper(self, name, fn):
        spans, stack, counts, work = self.spans, self._stack, self.counts, self.work
        clock = self.clock
        observe = _OBSERVE.get(name, ())
        refusal = _REFUSALS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            counts[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as ex:
                if type(ex).__name__ == refusal:
                    work[name + ".refusals"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, stack[-1] if stack else -1, t0, t1)
            for suffix, amount in observe:
                work[f"{name}.{suffix}"] += amount(args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every package module, everywhere
        the package refers to them."""
        mods = [importlib.import_module(f"delpezzo.{m}") for m in MODULES]
        mods.append(importlib.import_module("delpezzo"))
        wrapped = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith("delpezzo."):
                    continue
                if obj not in wrapped:
                    name = f"{home.split('.', 1)[1]}.{obj.__name__}"
                    make = (self._count_wrapper if name in COUNT_ONLY
                            else self._span_wrapper)
                    wrapped[obj] = make(name, obj)
                setattr(mod, attr, wrapped[obj])
        # module-level tables of functions, such as the CLI's kind -> enumerator
        for mod in mods:
            for table in vars(mod).values():
                if isinstance(table, dict):
                    for key, value in table.items():
                        if inspect.isfunction(value) and value in wrapped:
                            table[key] = wrapped[value]

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block of the benchmark's own code."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self.counts[name] += 1
        t0 = self.clock()
        try:
            yield
        finally:
            t1 = self.clock()
            self._stack.pop()
            self.spans[idx] = (name, self._stack[-1] if self._stack else -1, t0, t1)

    def summary(self) -> dict:
        """Per-function calls and self seconds, plus work counters."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            self_s[name] += t1 - t0 - child[i]
        return {
            "calls": dict(self.counts),
            "self_s": dict(self_s),
            "work": dict(self.work),
            "spans": len(self.spans),
        }

    def dump(self, path) -> None:
        """Write every span, one JSON array per line."""
        with open(path, "w") as fh:
            for name, parent, t0, t1 in self.spans:
                fh.write(json.dumps([name, parent, t0, t1]) + "\n")


def merge(summaries) -> dict:
    """Sum several summaries (one per traced process)."""
    out = {"calls": Counter(), "self_s": Counter(), "work": Counter(), "spans": 0}
    for s in summaries:
        for key in ("calls", "self_s", "work"):
            out[key].update(s[key])
        out["spans"] += s["spans"]
    return {k: dict(v) if isinstance(v, Counter) else v for k, v in out.items()}
