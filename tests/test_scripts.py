"""Run each script's docstring example and pin its stdout."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of stdout; any byte changed in the output fails
EXAMPLES = [
    (["char_polar_atlas.py", "--max-char", "9", "--isolated-only"],
     "3f9a5d463b5117ce17cc10995cd367a0d307fb5a2453543f3e9f6a1eb1d01b70"),
    (["hull_census.py", "--family", "T3", "--max-entry", "6", "--max-len", "3"],
     "798ec9b67609e5eb3b3bdbdc395580ce15d2f8c0db8c8ec8f22b1e6d4ca837ce"),
    (["hull_census.py", "--family", "J3", "--max-entry", "6", "--max-len", "3"],
     "ef6c0223ebd5df58096182be87ca52806aa85f99dc6f3fe3034f0ebe7bcdb68a"),
]


@pytest.mark.parametrize("argv, digest", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_script_stdout(argv, digest):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == digest


def test_bench_pairs_dry_run_prints_the_interleaved_schedule():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
                           "--parent", "p0", "--change", "c1", "--dry-run"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:6] == [
        "grid-sparse pair 1 parent p0", "grid-sparse pair 1 change c1",
        "grid-sparse pair 2 change c1", "grid-sparse pair 2 parent p0",
        "grid-sparse pair 3 parent p0", "grid-sparse pair 3 change c1"]
    assert lines[22:26] == [
        "grid-sparse pair 12 change c1", "grid-sparse pair 12 parent p0",
        "grid-dense pair 1 parent p0", "grid-dense pair 1 change c1"]
    assert lines[-3:] == [
        "paper pair 12 change c1", "paper pair 12 parent p0", "72 runs of 8 s, seed 1"]
    # 12 pairs of each workload, each pair one run of each side
    assert sorted(lines[:-1]) == sorted(f"{w} pair {p} {side}"
                                        for w in ("grid-sparse", "grid-dense", "paper")
                                        for p in range(1, 13)
                                        for side in ("parent p0", "change c1"))


def test_bench_pairs_summary_counts_wins_by_direction():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    base = dict.fromkeys(bench_pairs.METRICS, 1.0)
    runs = [{"workload": "w", "pair": p, "side": side, "attempted": 5, "failed": 0,
             **base, "req_per_s": rps, "wall_s": wall}
            for p, side, rps, wall in [(1, "parent", 10, 2), (1, "change", 20, 1),
                                       (2, "change", 15, 3), (2, "parent", 15, 2)]]
    s = bench_pairs.summarize(runs)["w"]
    assert s["pairs"] == 2 and s["parent"]["attempted"] == 10
    assert s["wins"]["req_per_s"] == 1          # higher is better; a tie is no win
    assert s["wins"]["wall_s"] == 1             # lower is better
    assert s["wins"]["setup_s"] == 0
    assert s["change"]["req_per_s"] == {"median": 17.5, "q1": 16.25, "q3": 18.75}
