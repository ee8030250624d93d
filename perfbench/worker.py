"""Runs one workload in its own process and records every response.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR

Imports `qcgroups.cli` from the checkout's `src/`, then sends whole
rounds of requests through `cli.main(argv)`, in-process and
single-threaded, with stdout and stderr captured.  Untraced, it keeps
sending rounds until SECONDS of request time have passed; traced, it
sends exactly one round, so the per-layer counts repeat for a seed.
Only the call to `cli.main` is timed.  Responses go to
OUT_DIR/responses.jsonl between requests; the summary (latencies,
round times, peak RSS measured before any verification, and the
per-layer metrics when traced) goes to OUT_DIR/summary.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, out_dir = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4]
    from qcgroups import cli

    tracer = None
    call = cli.main
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        call = tracer.wrap("cli", cli.main)

    latencies, round_walls = [], []
    request_id = 0
    with open(os.path.join(out_dir, "responses.jsonl"), "w", encoding="utf-8") as sink:
        while not round_walls or (not trace and sum(round_walls) < seconds):
            round_wall = 0.0
            for req in workloads.round_requests(workload, seed, len(round_walls)):
                out, err = io.StringIO(), io.StringIO()
                error = None
                if tracer is not None:
                    tracer.request = request_id
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = call(req)
                except SystemExit as exc:   # argparse rejects bad argv this way
                    rc = exc.code
                except Exception:   # a crash is a counted failure, not the end of the run
                    rc, error = None, traceback.format_exc()
                elapsed = time.perf_counter() - t0
                latencies.append(elapsed)
                round_wall += elapsed
                text = out.getvalue()
                if tracer is not None:
                    tracer.out_bytes += len(text.encode())
                sink.write(json.dumps({"id": request_id, "round": len(round_walls), "argv": req,
                                       "rc": rc, "error": error, "stdout": text,
                                       "stderr_traceback": "Traceback" in err.getvalue()}) + "\n")
                request_id += 1
            round_walls.append(round_wall)

    summary = {"latencies_s": latencies, "round_walls_s": round_walls,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "qcgroups_file": os.path.abspath(cli.__file__)}
    if tracer is not None:
        summary["per_layer"] = tracer.metrics()
        summary["absent_layers"] = tracer.absent
        summary["spans_dropped"] = tracer.dropped
        with open(os.path.join(out_dir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "request"],
                                 "kept": len(tracer.spans), "dropped": tracer.dropped}) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
