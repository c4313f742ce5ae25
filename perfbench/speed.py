"""A clock that runs at the speed of the CPU the benchmark runs on.

The machine the baseline was taken on is shared: the speed of the same code
swings by a factor of two within a minute, on the process clock as on the
wall clock, and the swings last from milliseconds to seconds.  No wall-clock
time of a run repeats to within the bounds, so the benchmark times every
operation on this clock instead:

- Every process of a run is pinned to one CPU (`pin`; children inherit it).
- A calibrator process on that CPU, at nice CALIBRATOR_NICE, does fixed units
  of reference work without end and counts them in a shared file.  The
  scheduler gives it a fixed share of the CPU whenever an operation runs, so
  it samples the CPU's speed every few milliseconds, through the operation.
- `Clock()` reads the count and divides it by UNITS_PER_S.  An operation
  lasting N units did as much work as the calibrator does in N units, so its
  time on this clock, in seconds at the speed at which the calibrator
  completes UNITS_PER_S units a second, does not move with the machine's
  speed.

A unit mixes the kinds of work the package does: a Python loop over tuples
and a dict, small numpy sorts and matrix products, and copies streamed from
a 32 MB array (about a sixth of the unit).  Slow stretches slow the
interpreter's loops more than memory traffic: without the copies, the clock
over-corrected the numpy closures and the cold CLI processes, which then read
lower the slower the machine was; with more of them, it under-corrected the
Python-bound operations.  A unit calls nothing in the package, so a change to
the package moves an operation's time on this clock and not the clock.  Run as a script, this file is the
calibrator:

    python3 perfbench/speed.py COUNTER_FILE
"""

from __future__ import annotations

import contextlib
import mmap
import os
import subprocess
import sys
import time
from pathlib import Path

CALIBRATOR_NICE = 5
# units the calibrator completes during one second of an operation, chosen so
# that on the baseline machine an operation's time on this clock is about its
# wall-clock time when run alone at the machine's typical speed
UNITS_PER_S = 2600.0


def _units(count: memoryview) -> None:
    """Count units of reference work in count[0] until the parent exits."""
    import numpy as np

    rng = np.random.default_rng(0)
    keys = rng.integers(0, 2 ** 62, size=1000)
    mats = rng.integers(-2, 3, size=(20, 9, 9))
    gen = rng.integers(-2, 3, size=(9, 9))
    stream = np.ones(4 * 1024 * 1024, dtype=np.int64)
    chunk = np.empty(8192, dtype=np.int64)
    pos = 0
    parent = os.getppid()
    n = 0
    while True:
        tally: dict[tuple[int, int, int], int] = {}
        x = 1
        for i in range(100):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = (x & 255, (x >> 8) & 255, i & 15)
            tally[key] = tally.get(key, 0) + 1
        np.sort(keys)
        (mats @ gen) % 7
        for _ in range(2):
            chunk[:] = stream[pos:pos + len(chunk)]
            pos = (pos + len(chunk)) % len(stream)
        n += 1
        count[0] = n
        if n % 4096 == 0 and os.getppid() != parent:
            return


class Clock:
    """Seconds on the calibrator's clock, read from its counter file."""

    def __init__(self, path: Path):
        with open(path, "r+b") as fh:
            self._map = mmap.mmap(fh.fileno(), 8)
        self._count = memoryview(self._map).cast("q")

    def __call__(self) -> float:
        return self._count[0] / UNITS_PER_S


@contextlib.contextmanager
def calibrator(path: Path):
    """Run the calibrator on the current CPU while the block runs; yields
    its Clock.  The calibrator is killed and waited for on every way out."""
    path.write_bytes(bytes(8))
    proc = subprocess.Popen([sys.executable, __file__, str(path)])
    try:
        clock = Clock(path)
        deadline = time.monotonic() + 60
        while clock() == 0:
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the calibrator did not start")
            time.sleep(0.01)
        yield clock
        if proc.poll() is not None:
            raise RuntimeError("the calibrator stopped during the run")
    finally:
        proc.kill()
        proc.wait()


def pin() -> int:
    """Pin this process, and the processes it starts, to one allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


if __name__ == "__main__":
    os.nice(CALIBRATOR_NICE)
    with open(sys.argv[1], "r+b") as fh:
        _units(memoryview(mmap.mmap(fh.fileno(), 8)).cast("q"))
