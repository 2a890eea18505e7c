"""The benchmark's tracer still installs over the package: it imports
``abelian_codes.cli`` and wraps functions in the loaded submodules."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARGV = ["classify", "--group", "9,3", "--field", "2", "--format", "json"]


def test_traced_classify_matches_untraced(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out_path = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), "trace",
         str(out_path), "--", *ARGV], env=env, capture_output=True)
    plain = subprocess.run([sys.executable, "-m", "abelian_codes", *ARGV],
                           env=env, capture_output=True, check=True)
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    metrics = json.loads(out_path.read_text())["metrics"]
    assert metrics["codes.minimal_codes"] == 8
    assert metrics["codes.weight_enumerations"] == 3
