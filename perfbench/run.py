"""Benchmark entry point for `qcg`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/`).
The run

1. times a fresh interpreter importing `qcgroups.cli` (one warm-up, then
   SETUP_REPEATS timed imports; `setup_s` is their median);
2. starts `perfbench/worker.py`, which sends the workload's requests through
   `qcgroups.cli.main` in its own process (see workloads.py for the mixes);
3. verifies every response with perfbench/verify.py, outside the timed region;
4. prints a metric table and a provenance record, then, as the last line,
   `{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
worker wraps the library's layers (tracer.py) and the metrics are the
per-layer ones.  The exit status is 0 only when every response verified.
Scratch output goes to .bench_build/perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 175


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qcgroups", "cli.py")):
        print(f"error: no qcgroups sources under {src}; run from the checkout root",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_build", "perfbench",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    setup_s = measure_setup(env, root)
    worker = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
         str(args.seconds), str(args.trace), out_dir],
        env=env, cwd=root, timeout=WORKER_TIMEOUT_S, check=False)
    if worker.returncode != 0:
        print(f"error: worker exited with status {worker.returncode}", file=sys.stderr)
        return 1
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    if not summary["qcgroups_file"].startswith(src + os.sep):
        print(f"error: imported {summary['qcgroups_file']}, not the checkout's", file=sys.stderr)
        return 1

    responses = os.path.join(out_dir, "responses.jsonl")
    checked = check_responses(args.workload, responses)
    attempted, failed = checked["attempted"], len(checked["failures"])
    if not failed:
        os.remove(responses)   # tens of MB per run; kept only to debug a failure
    if args.trace:
        metrics = {name: {"value": summary["per_layer"][name], "unit": unit}
                   for name, unit in tracer.metric_names()}
    else:
        metrics = end_to_end(summary, setup_s)

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "requests": attempted, "rounds": len(summary["round_walls_s"]),
        "fail_ratio": failed / attempted, "failures": checked["failures"][:5],
        "stdout_sha256_per_round": checked["sha256"], "inputs": checked["inputs"],
        **machine(root),
    }
    if args.trace:
        provenance.update(absent_layers=summary["absent_layers"],
                          spans_dropped=summary["spans_dropped"],
                          spans_file=os.path.relpath(os.path.join(out_dir, "spans.jsonl"), root))
    record = {"provenance": provenance, "metrics": metrics}
    if args.trace:
        record["layer_moves"] = tracer.layer_map()
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'fail_ratio':32s} {failed / attempted:>16.6g} ({failed} of {attempted} failed)")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def measure_setup(env, root) -> float:
    """Median wall time of a fresh interpreter importing qcgroups.cli."""
    cmd = [sys.executable, "-c", "import qcgroups.cli"]
    subprocess.run(cmd, env=env, cwd=root, check=True)   # fills __pycache__
    times = []
    for _ in range(SETUP_REPEATS):
        # no timeout: with one, subprocess polls the child in sleeps of up
        # to 50 ms, which would round every reading up to that grain
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=root, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(summary, setup_s) -> dict:
    """The user-facing metrics of one untraced run.

    wall_s is the median time of one round (for paper, the one
    verify-paper call); req_per_s is requests over the time spent in
    them; the latency percentiles are over every request of the run.
    """
    lat = sorted(summary["latencies_s"])
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(summary["round_walls_s"]), "s"),
        "req_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def check_responses(workload, path) -> dict:
    """Verify every recorded response; hash stdout per round; summarize input sizes."""
    failures, hashes, moduli = [], {}, set()
    attempted = total_points = 0
    largest = (0, "")
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            argv, attempted = rec["argv"], attempted + 1
            if rec["error"] or rec["stderr_traceback"]:
                problems = ["raised: " + (rec["error"] or "traceback on stderr").strip()[-300:]]
            else:
                problems = verify.check(argv, rec["rc"], rec["stdout"])
            if problems:
                failures.append({"id": rec["id"], "argv": " ".join(argv)[:200], "problems": problems})
            text = rec["stdout"]
            if workload == "paper":   # per-criterion run times are not deterministic
                text = re.sub(r'"millis": \d+', '"millis": 0', text)
            hashes.setdefault(rec["round"], hashlib.sha256()).update(text.encode())
            opts = verify.options(argv)
            size = len([t for t in opts.get("set", "").split(",") if t.strip()])
            total_points += size
            modulus = carrier_size(argv[0], opts)
            if modulus:
                moduli.add(modulus)
            largest = max(largest, (size * (modulus or 1), " ".join(argv)[:120]))
    return {"attempted": attempted, "failures": failures,
            "sha256": [hashes[r].hexdigest() for r in sorted(hashes)],
            "inputs": {"moduli": sorted(moduli), "sum_set_sizes": total_points,
                       "largest_request": {"modulus_x_set_size": largest[0], "argv": largest[1]}}}


def carrier_size(op, opts):
    """The modulus or group order a request works in, if it has one."""
    if op == "q12":
        return 3 ** int(opts.get("grid") or opts["level"])
    if "grid" in opts or "n" in opts:
        return int(opts.get("grid") or opts["n"])
    return 3 ** int(opts["level"]) if "level" in opts else None


def machine(root) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": git_commit(root)}


def git_commit(root) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
