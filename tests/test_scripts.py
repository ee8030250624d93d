"""Run each script's docstring example and pin its stdout."""

import hashlib
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
