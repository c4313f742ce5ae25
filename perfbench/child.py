"""One pass of a workload, in a fresh process.

Usage: python3 perfbench/child.py WORKLOAD SEED MODE CLOCK_FILE

MODE is `run` (time the operations), `trace` (time them under the tracer) or
`setup` (stop just before the first operation).  Prints one JSON object with
the clock readings at the first operation, the time and verdict of every
operation and, when traced, the per-function summary.  Times are read on the
wall clock and on the calibrator's clock in CLOCK_FILE (`speed.py`).
Memoized results of the package live only as long as this process.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _context(workload: str, traced: bool, tmp: Path, tr, cli_summaries: list,
             clock_file: str):
    ctx = SimpleNamespace(profiles=SRC / "delpezzo" / "profiles", tmp=tmp)
    if workload == "cli-cold":
        env = workloads.child_env(SRC)

        def invoke(args):
            if not traced:
                argv = [sys.executable, "-m", "delpezzo.cli", *args]
                return workloads.run_process(argv, env, tmp)
            out = tmp / f"trace-{len(cli_summaries)}.json"
            cli_summaries.append(out)
            argv = [sys.executable, str(HERE / "tracecli.py"), *args]
            return workloads.run_process(
                argv, dict(env, PERFBENCH_TRACE_OUT=str(out), PERFBENCH_CLOCK=clock_file),
                tmp)

        ctx.invoke = invoke
        return ctx
    with tr.span("cli.import") if tr else contextlib.nullcontext():
        import delpezzo.cli  # noqa: F401  (imports every package module)
    import delpezzo
    if Path(delpezzo.__file__).resolve().parent != SRC / "delpezzo":
        raise SystemExit(f"imported delpezzo from {delpezzo.__file__}, not {SRC}")
    from delpezzo import (counting, curves, errors, fujita, linalg, picard,
                          ruled, thresholds, weyl)
    ctx.__dict__.update(counting=counting, curves=curves, errors=errors,
                        fujita=fujita, linalg=linalg, picard=picard, ruled=ruled,
                        thresholds=thresholds, weyl=weyl)
    return ctx


def main() -> int:
    workload, seed, mode, clock_file = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    clock = speed.Clock(Path(clock_file))
    traced = mode == "trace"
    tr = tracing.Tracer(clock) if traced and workload != "cli-cold" else None
    tmp = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    cli_summaries: list[Path] = []
    t_import = time.perf_counter()
    try:
        ctx = _context(workload, traced, tmp, tr, cli_summaries, clock_file)
        import_s = time.perf_counter() - t_import
        ops = workloads.build(workload, seed, ctx)
        if workload == "cli-cold":
            # warm-up: compile and cache the package once, as an installed
            # package would be; no timed input is computed here
            warm = workloads.run_process(
                [sys.executable, "-c", "import delpezzo.cli"],
                workloads.child_env(SRC), tmp)
            if warm.rc != 0:
                raise SystemExit(f"cannot import delpezzo.cli: {warm.stderr}")
        if tr:
            tr.install()
        first_op = {"wall": time.monotonic(), "clock": clock()}
        if mode == "setup":
            print(json.dumps({"first_op": first_op}))
            return 0
        records = []
        for op in ops:
            result, exc = None, None
            c0, t0 = clock(), time.perf_counter()
            try:
                result = op.run()
            except Exception as ex:  # an operation failure, checked below
                exc = ex
            seconds, clock_s = time.perf_counter() - t0, clock() - c0
            try:
                error = op.check(result, exc)
            except Exception as ex:  # a malformed result is a failure too
                error = workloads.Failed(f"check raised {type(ex).__name__}: {ex}")
            rec = {"name": op.name, "seconds": seconds, "clock_s": clock_s,
                   "error": error,
                   "kind": None if error is None else
                   "failed" if isinstance(error, workloads.Failed) else "wrong"}
            if isinstance(result, workloads.Invocation):
                rec["rss_kb"] = result.maxrss_kb
                rec["stdout_bytes"] = len(result.stdout)
            records.append(rec)
        out = {"first_op": first_op, "import_s": import_s, "ops": records}
        if tr:
            out["trace"] = tr.summary()
            tr.dump(ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.jsonl")
        elif cli_summaries:
            out["trace"] = tracing.merge(json.loads(p.read_text()) for p in cli_summaries)
            with open(ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.jsonl", "w") as fh:
                for op, p in zip(ops, cli_summaries):
                    fh.write(json.dumps({"invocation": op.name}) + "\n")
                    fh.write(p.with_suffix(".jsonl").read_text())
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
