"""The traced run survives missing names and attributes work to the right layers.

    python3 -m pytest perfbench/test_tracer.py      (from the checkout root)
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402


def test_missing_names_are_absent_layers():
    t = tracer.Tracer()
    assert not t._install_one("duality.polar", "duality.no_such_function", None)
    assert not t._install_one("engine.map", "engine.NoSuchClass.map_bits", None)
    assert not t._install_one("padic.q12", "no_such_module.q12_set", None)
    metrics = t.metrics()
    assert [name for name, _ in tracer.metric_names()] == list(metrics)
    assert metrics["duality.polar.calls"] == 0 and metrics["engine.map.calls"] == 0


def test_traced_round_reports_layers(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "real-line", "3", "1", "1",
                    str(tmp_path)], env=env, cwd=ROOT, check=True, timeout=300)
    summary = json.loads((tmp_path / "summary.json").read_text())
    layers = summary["per_layer"]
    assert summary["absent_layers"] == []
    assert layers["realline.polar.calls"] > 0 and layers["realline.member.shift_den"] > 0
    assert layers["realline.hull.candidates"] >= layers["realline.hull.calls"] > 0
    assert layers["engine.grids"] == 0 and layers["engine.map.calls"] == 0
    assert layers["cli.self_s"] > 0 and layers["cli.out_bytes"] > 0
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["kept"] == len(spans) - 1
