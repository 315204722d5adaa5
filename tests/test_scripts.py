"""Smoke test of scripts/run_shadowing.py, the one script left and the only
driver of flow.pseudotrajectory_error outside the tests."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_shadowing_smoke(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = tmp_path / "shadow"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_shadowing.py"),
         "--anchors", "1.5", "--window", "1.5", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    match = re.fullmatch(r"anchor s=1\.5 \(t=\s*4\.5\): sup shadowing error (\S+)", lines[0])
    assert match is not None, lines[0]
    # a distance between two points of the closed unit disk
    assert 0.0 <= float(match.group(1)) <= 2.0
    assert (out / "moments.csv").read_bytes().startswith(b"t,a,b,x,y\r\n")
    assert (out / "flow.csv").read_bytes().startswith(b"s,a,b\r\n")
