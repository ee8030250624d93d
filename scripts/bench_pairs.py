#!/usr/bin/env python3
"""Interleaved parent/change benchmark pairs, written as a BENCH_*.json record.

Run it from a git checkout.  Each revision is exported with `git archive`
into its own temporary directory, and `perfbench/run.py` runs there,
unchanged, from that checkout's root:

    python3 perfbench/run.py --workload W --seed 1 --seconds 8 --trace 0

For every workload the two sides run back to back, PAIRS times; odd pairs
run the parent first and even pairs the change, so a drift of the
machine's speed falls on both sides alike.  Every run is recorded, and
none is dropped.  The summary holds the median and the inclusive
quartiles of each end-to-end metric per side; `wins` counts the pairs in
which the change is the better side.  What is learnt after the runs goes
into the record by hand.

Examples:
    python scripts/bench_pairs.py --parent d5d0d40 --change HEAD --dry-run
    python scripts/bench_pairs.py --parent d5d0d40 --change HEAD \\
        --claim "grid-sparse req_per_s" --out BENCH_29.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

SEED, SECONDS = 1, 8        # the run every claim so far was measured with
PAIRS = 12
WORKLOADS = ("grid-sparse", "grid-dense", "paper")      # as BENCHMARK.json lists them
METRICS = {"setup_s": "lower", "wall_s": "lower", "req_per_s": "higher",
           "latency_p50_ms": "lower", "latency_p90_ms": "lower", "peak_rss_mb": "lower"}


def schedule() -> list[tuple[str, int, str]]:
    """(workload, pair, side) in run order: odd pairs start with the parent."""
    order = []
    for w in WORKLOADS:
        for pair in range(1, PAIRS + 1):
            sides = ("parent", "change") if pair % 2 else ("change", "parent")
            order += [(w, pair, side) for side in sides]
    return order


def export(rev: str, into: str) -> str:
    """The files of `rev` in a fresh directory under `into`; returns its path."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    root = tempfile.mkdtemp(prefix="bench-", dir=into)
    # extraction filters came with 3.10.12 / 3.11.4; the archive is our own either way
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(root, **safe)
    return root


def run_once(root: str, workload: str) -> dict:
    """One untraced perfbench run; its last stdout line is the result record."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench/run.py printed nothing in {root}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = {"attempted": result["attempted"], "failed": result["failed"]}
    record.update({m: round(result["metrics"][m]["value"], 4) for m in METRICS})
    return record


def _spread(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                   else values * 3)
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        by_side = {s: {r["pair"]: r for r in runs if r["workload"] == w and r["side"] == s}
                   for s in ("parent", "change")}
        out = summary[w] = {}
        for side, recs in by_side.items():
            rs = list(recs.values())
            out[side] = {"runs": len(rs), "attempted": sum(r["attempted"] for r in rs),
                         "failed": sum(r["failed"] for r in rs)}
            out[side].update({m: _spread([r[m] for r in rs]) for m in METRICS})
        parent, change = by_side["parent"], by_side["change"]
        both = sorted(parent.keys() & change.keys())
        out["pairs"] = len(both)
        out["wins"] = {m: sum(_better(change[p][m], parent[p][m], b) for p in both)
                       for m, b in METRICS.items()}
    return summary


def _better(x: float, y: float, better: str) -> bool:
    return x < y if better == "lower" else x > y


def result_text(summary: dict) -> str:
    """Per workload: failures, then each metric's medians and the pairs the change won."""
    parts = []
    for w, s in summary.items():
        metrics = ", ".join(f"{m} {s['parent'][m]['median']:g} -> {s['change'][m]['median']:g} "
                            f"(change better in {s['wins'][m]} of {s['pairs']})" for m in METRICS)
        parts.append(f"{w}: failed {s['parent']['failed']} / {s['change']['failed']} "
                     f"(parent / change); {metrics}")
    return "Medians, parent -> change. " + "; ".join(parts) + "."


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--change", required=True, help="git revision of the changed side")
    ap.add_argument("--what", default="", help="what the change does, for the record")
    ap.add_argument("--claim", default=None, help="the metric the change claims to improve")
    ap.add_argument("--out", help="the BENCH_*.json file to write (required without --dry-run)")
    ap.add_argument("--dry-run", action="store_true", help="print the schedule and stop")
    args = ap.parse_args(argv)
    order = schedule()
    if args.dry_run:
        revs = {"parent": args.parent, "change": args.change}
        for w, pair, side in order:
            print(f"{w} pair {pair} {side} {revs[side]}")
        print(f"{len(order)} runs of {SECONDS} s, seed {SEED}")
        return 0
    if not args.out:
        ap.error("--out is required")

    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        roots = {"parent": export(args.parent, scratch), "change": export(args.change, scratch)}
        runs = []
        for w, pair, side in order:
            runs.append({"workload": w, "pair": pair, "side": side,
                         **run_once(roots[side], w)})
            print(json.dumps(runs[-1]), file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    import numpy
    summary = summarize(runs)
    record = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} "
                   f"--seconds {SECONDS} --trace 0, run from each side's checkout root "
                   "(git archive of each revision), by scripts/bench_pairs.py",
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "note": "one benchmark process at a time; only interleaved pairs are compared"},
        "protocol": f"{PAIRS} pairs per workload on seed {SEED}, both sides back to "
                    "back, alternating which side runs first (odd pairs: parent first); "
                    f"workloads in the order {','.join(WORKLOADS)}. Parent {args.parent}, change "
                    f"{args.change}. Every run is listed below; none was dropped.",
        "claim": args.claim,
        "result": result_text(summary),
        "summary": summary,
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
