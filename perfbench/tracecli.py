"""Run one `delpezzo` CLI command under the tracer.

Usage: PERFBENCH_TRACE_OUT=FILE PERFBENCH_CLOCK=CLOCK_FILE python3 perfbench/tracecli.py ARGS...

Behaves like `python -m delpezzo.cli ARGS...` (same stdout, stderr and exit
code) and, however the command ends, writes the trace summary to FILE and the
spans to FILE with the suffix `.jsonl`.  The import of the package is its own
span, `cli.import`; the command is the span `cli.main`.  Spans are timed on
the calibrator's clock in CLOCK_FILE (`speed.py`).
"""

import os
import sys
from pathlib import Path

import speed
import tracer as tracing

tr = tracing.Tracer(speed.Clock(Path(os.environ["PERFBENCH_CLOCK"])))
out = Path(os.environ["PERFBENCH_TRACE_OUT"])
try:
    with tr.span("cli.import"):
        from delpezzo import cli
    tr.install()
    with tr.span("cli.main"):
        cli.main.main(args=sys.argv[1:], prog_name="delpezzo")
finally:
    import json

    out.write_text(json.dumps(tr.summary()))
    tr.dump(out.with_suffix(".jsonl"))
