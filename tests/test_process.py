"""The program as a process.

`python -m sivjp`, `python -m sivjp.cli` and the `sivjp` script end
through `cli.run`, which skips the interpreter's teardown. Run as processes,
the commands must give the exit codes, output files and stderr of `main`
called in process, flush what is buffered, and run the `atexit` handlers
registered before them. A `SystemExit` from argparse and a failed flush
keep CPython's own exit.
"""

import json
import os
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

import pytest

from sivjp.cli import main

ROOT = Path(__file__).resolve().parents[1]
FLOW_DEMO = str(ROOT / "configs" / "flow_demo.json")
# stdout is block-buffered in these children, so `run` has a flush to do
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = str(ROOT / "src")


def python(args: list[str], cwd, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, env=ENV, stdin=subprocess.DEVNULL,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


def with_atexit(argv: list[str]) -> list[str]:
    """Runs the package as `python -m sivjp` does, after registering an
    `atexit` handler that prints to stdout."""
    return ["-c", "import atexit, runpy, sys\n"
                  "atexit.register(print, 'atexit ran')\n"
                  f"sys.argv = ['sivjp', *{argv!r}]\n"
                  "runpy.run_module('sivjp', run_name='__main__', alter_sys=True)"]


def digests(out: Path) -> dict[str, str]:
    return {p.name: sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def test_cli_as_a_process_matches_main(tmp_path, capsys):
    bad = json.loads(Path(FLOW_DEMO).read_text())
    bad["model"]["rho"] = "two"  # the schema refuses it before any run
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    cases = [("sivjp", ["--config", FLOW_DEMO, "fixed-points"]),
             ("sivjp.cli", ["--config", FLOW_DEMO, "--quiet", "flow"]),
             ("sivjp", ["--config", str(tmp_path / "bad.json"), "fixed-points"])]
    stderr = []
    for k, (module, argv) in enumerate(cases):
        code = main(["--out", str(tmp_path / f"main{k}"), *argv])
        err = capsys.readouterr().err
        done = python(["-m", module, "--out", str(tmp_path / f"proc{k}"), *argv], tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (code, "", err)
        if code == 0:
            assert digests(tmp_path / f"proc{k}") == digests(tmp_path / f"main{k}")
        else:
            assert not (tmp_path / f"proc{k}").exists()
        stderr.append(err)
    assert [s.count("\n") for s in stderr] == [1, 0, 1]
    assert stderr[0].startswith("65 fixed points:")  # progress, not silenced
    assert stderr[2].startswith("error: ")

    done = python(["-m", "sivjp", "--help"], tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: sivjp")

    argv = ["--config", FLOW_DEMO, "--out", str(tmp_path / "atexit"), "--quiet",
            "fixed-points"]
    done = python(with_atexit(argv), tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "atexit ran\n", "")

    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1]
    assert scripts.split("[")[0].split() == ["sivjp", "=", '"sivjp.cli:run"']


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_flush_exits_120_as_cpython_does(tmp_path):
    argv = ["--config", FLOW_DEMO, "--out", str(tmp_path / "out"), "--quiet",
            "fixed-points"]
    with open("/dev/full", "w") as full:
        done = python(with_atexit(argv), tmp_path, stdout=full)
    assert done.returncode == 120
    assert done.stderr.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert "No space left on device" in done.stderr
