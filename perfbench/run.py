"""Benchmark entry point; run it from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in passes, each in a fresh child process
(`perfbench/child.py`): as many as fit in S at the typical pass seconds, at
least one, a number fixed by the arguments so that every run of a workload is aggregated alike.
Set-up is also sampled in processes that stop at the first operation, so
every run has at least three set-up samples.  Every process of the run is
pinned to one CPU, and the times in the metrics are read on the clock of
`perfbench/speed.py`, which runs at that CPU's speed; the wall-clock times
are recorded beside them.

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json.
With `--trace 1` they are its per-layer metrics, from one traced pass, with
one untraced pass beside it to measure the tracer's overhead.  The last line
of stdout is the result; the line before it records the environment, and
`.perfbench/` keeps every sample and span.  Without the package source in the
checkout the run exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 3
# typical wall-clock seconds of one pass, beside the calibrator, on the
# machine the baseline was taken on
PASS_SECONDS = {"cli-cold": 32, "weyl-closure": 20, "cone-duality": 20,
                "counting-fuzz": 9}
# a run must end within 180 s
RUN_LIMIT_S = 175.0
CHILD_TIMEOUT_S = 170.0

import speed  # noqa: E402
import workloads  # noqa: E402


def _git_commit() -> str | None:
    """The commit of a git checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _spawn(workload: str, seed: int, mode: str, scratch: Path, deadline: float,
           clock: speed.Clock, clock_file: Path) -> dict:
    """One child process; returns its report with the parent's measurements."""
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode,
            str(clock_file)]
    c_spawn = clock()
    t_spawn = time.monotonic()
    inv = workloads.run_process(argv, workloads.child_env(ROOT / "src"), scratch,
                                timeout=min(CHILD_TIMEOUT_S, deadline - t_spawn))
    if inv.rc != 0:
        raise RuntimeError(f"{mode} pass exited {inv.rc}: {inv.stderr.strip()[-2000:]}")
    report = json.loads(inv.stdout.decode().strip().splitlines()[-1])
    report["mode"] = mode
    report["seconds"] = time.monotonic() - t_spawn
    report["setup_s"] = report["first_op"]["wall"] - t_spawn
    report["setup_clock_s"] = report["first_op"]["clock"] - c_spawn
    report["child_rss_kb"] = inv.maxrss_kb
    return report


def _passes(args, scratch: Path) -> tuple[list[dict], list[dict]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        modes = ["run", "trace"]
    else:
        modes = ["run"] * max(1, int(args.seconds // PASS_SECONDS[args.workload]))
    clock_file = scratch / "clock"
    with speed.calibrator(clock_file) as clock:
        def spawn(mode):
            return _spawn(args.workload, args.seed, mode, scratch, deadline, clock,
                          clock_file)
        passes = [spawn(mode) for mode in modes]
        setups = passes[:]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn("setup"))
    return passes, setups


def _wall(passes, key: str) -> float:
    """Time to complete the operation list: the sum over operations of each
    operation's median time over the passes."""
    return sum(statistics.median(p["ops"][i][key] for p in passes)
               for i in range(len(passes[0]["ops"])))


def _peak_rss_kb(p) -> int:
    rss = [op["rss_kb"] for op in p["ops"] if "rss_kb" in op]
    return max(rss) if rss else p["child_rss_kb"]


def _layer_value(name: str, trace: dict, extra: dict) -> float:
    """One per-layer metric from a trace summary.  Names are
    `<module>.self_s` (the module's total self time), or
    `<module>.<function>.<stat>` with stat calls, self_s, true_ratio, or a work
    counter kept by the tracer."""
    if name in extra:
        return extra[name]
    calls, self_s, work = trace["calls"], trace["self_s"], trace["work"]
    if name == "cli.import_s":
        return self_s.get("cli.import", 0.0)
    head, _, stat = name.rpartition(".")
    if "." not in head and stat == "self_s":
        return sum((v for k, v in self_s.items()
                    if k.startswith(head + ".") and k != "cli.import"), 0.0)
    if stat == "calls":
        return calls.get(head, 0)
    if stat == "self_s":
        return self_s.get(head, 0.0)
    if stat == "true_ratio":
        n = calls.get(head, 0)
        return work.get(head + ".true", 0) / n if n else 0.0
    return work.get(name, 0)


def _median(values):
    return statistics.median(list(values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "delpezzo" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no package source under {ROOT / 'src'} or no BENCHMARK.json; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    cpu = speed.pin()
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        passes, setups = _passes(args, scratch)
    except RuntimeError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    finally:
        for f in scratch.iterdir():
            f.unlink()
        scratch.rmdir()

    plain = [p for p in passes if p["mode"] == "run"]
    traced = [p for p in passes if p["mode"] == "trace"]
    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(op["kind"] is not None for op in ops)
    correct = not any(op["kind"] == "wrong" for op in ops)

    if args.trace:
        overhead = _wall(traced, "clock_s") / _wall(plain, "clock_s") - 1
        values = {}
        for m in spec["per_layer"]:
            values[m["name"]] = _median(
                _layer_value(m["name"], p["trace"], {
                    "trace.overhead_ratio": overhead,
                    "cli.stdout_bytes": sum(op.get("stdout_bytes", 0) for op in p["ops"]),
                }) for p in traced)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": _median(p["setup_clock_s"] for p in setups),
            "wall_s": _wall(plain, "clock_s"),
            "peak_rss_mb": _median(_peak_rss_kb(p) for p in plain) / 1024,
            "pass_ratio": (attempted - failed) / attempted,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    environment = {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": {"passes": len(plain), "traced_passes": len(traced),
                    "setup": len(setups), "ops_per_pass": len(passes[0]["ops"])},
        "wall_clock": {"setup_s": _median(p["setup_s"] for p in setups),
                       "wall_s": _wall(plain, "seconds")},
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    failures = sorted({(op["name"], op["error"]) for op in ops if op["kind"]})
    record = {"environment": environment, "result": result,
              "setup_samples": [{k: p[k] for k in ("setup_s", "setup_clock_s")}
                                for p in setups],
              "failures": failures,
              "passes": [{k: v for k, v in p.items() if k != "trace"} for p in passes],
              "traces": [p["trace"] for p in traced]}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    for op_name, error in failures:
        print(f"failed: {op_name}: {error}", file=sys.stderr)
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
