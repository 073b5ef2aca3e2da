"""One sweep of a workload in a fresh interpreter.

Runs every call of the workload once through rydberg_doa.cli.main(argv),
after one unrecorded warm-up pass, and writes per-call latencies and exit
codes (and, with --trace 1, per-layer figures) to the JSON file --out.
Started by run.py from the repository root; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

import metrics
import speed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def call_cli(cli, call):
    """One CLI call with stdout and stderr captured, so terminal printing
    is not measured; returns (exit code, stdout)."""
    buf_out, buf_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf_out), \
            contextlib.redirect_stderr(buf_err):
        try:
            rc = cli.main(call.argv())
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "exception: " + traceback.format_exc(limit=3)
    return rc, buf_out.getvalue()


def execute(cli, passes):
    """Run every pass; returns per-pass wall times, per-call records and
    host-speed reference timings taken before each pass and after the
    last."""
    walls, records, refs = [], [], [speed.reference_s()]
    for calls in passes:
        started = time.perf_counter()
        for call in calls:
            t0 = time.perf_counter()
            rc, stdout = call_cli(cli, call)
            records.append({
                "latency_s": time.perf_counter() - t0, "rc": rc,
                "stdout": stdout if call.kind == "check-sampling" else ""})
        walls.append(time.perf_counter() - started)
        refs.append(speed.reference_s())
    return walls, records, refs


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import rydberg_doa.cli as cli

    passes = workloads.generate(args.workload, args.seed, args.seconds,
                                args.work, write=False)
    # Warm-up, one call of each kind: lazy imports and first-call costs.
    kinds = {c.kind: c for c in passes[0]}
    execute(cli, [list(kinds.values())])
    result = {}
    if args.trace:
        with Tracer() as tracer:
            walls, records, refs = execute(cli, passes)
        result["layers"] = metrics.layer_values(tracer)
        result["absent"] = tracer.absent
        result["failed_by_class"] = {name: span.failed for name, span
                                     in tracer.spans.items() if span.failed}
    else:
        walls, records, refs = execute(cli, passes)
    result.update(walls=walls, calls=records, refs=refs)
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
