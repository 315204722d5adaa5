"""Smoke test of the benchmark itself.

A tiny run (``--tiny``) of every workload, untraced and traced, must pass
its correctness gates and print every metric named in ``BENCHMARK.json``
with its unit, both as a ``metric`` line and in the final JSON object; and
a directory holding only ``BENCHMARK.json`` and ``perfbench/`` must make
the benchmark fail without printing a result.

Run from the repository root, in under a minute::

    python3 perfbench/smoke_test.py
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=600)


def check_workload(workload: str, trace: int) -> None:
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float), (m, got)
        if not trace:
            assert got["value"] > 0.0, m["name"]
        pattern = rf"metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}( \(.*\))?"
        assert any(re.fullmatch(pattern, line) for line in lines), m["name"]


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(bare, _spec()["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_every_metric_printed_with_unit():
    for workload in _spec()["workloads"]:
        for trace in (0, 1):
            check_workload(workload["name"], trace)


def test_bare_directory_fails():
    check_bare_directory()


if __name__ == "__main__":
    test_every_metric_printed_with_unit()
    test_bare_directory_fails()
    print("perfbench smoke test passed")
