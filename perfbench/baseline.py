"""Re-measure the rows of the ROADMAP baseline table, by name.

Usage, from the root of a checkout (about two minutes on two cores)::

    python3 perfbench/baseline.py

Layer rows call the package in this process; command rows time the CLI
on the shipped configs in fresh processes. Prints the environment, one
Markdown table row per baseline row and, last, the same rows as JSON.
The Tier-1 row is not re-measured here: it is the wall time of the
repository's test command.
"""

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace

from run import ROOT, environment

sys.path.insert(0, os.path.join(ROOT, "src"))

from sivjp import equilibria, flow  # noqa: E402
from sivjp.engine import quadratic_kernel_grids, run_sitp, run_sitp_general  # noqa: E402
from sivjp.geometry import PeriodicGrid, arc_sojourn  # noqa: E402
from sivjp.harness import ExperimentConfig  # noqa: E402
from sivjp.model import ModelSpec  # noqa: E402
from sivjp.potentials import make_potential  # noqa: E402

CONFIGS = os.path.join(ROOT, "configs")


def timed(fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t, out


def engine_run(config: str, t_end: float, hist_n=None):
    cfg = ExperimentConfig.from_file(os.path.join(CONFIGS, config))
    run = replace(cfg.build_sivjp(rho=cfg.model["rho"], stream_index=0, hist_n=hist_n),
                  t_end=t_end)
    return timed(run_sitp, run)


def cli_wall(work: str, config: str, command: str, threads: int) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-m", "sivjp", "--config", os.path.join(CONFIGS, config),
                    "--out", os.path.join(work, f"{command}_{threads}"), "--threads",
                    str(threads), "--quiet", command], cwd=work, env=env, check=True)
    return time.perf_counter() - t


def rows(work: str) -> list:
    out = []

    wall, trace = engine_run("supercritical.json", 2000.0)
    out.append(("`run_sitp`, per proposal", 1e6 * wall / trace.n_proposals, "us"))
    out.append(("Acceptance, `U=0`, `rho=4`", trace.n_events / trace.n_proposals, "ratio"))
    wall_n, trace_n = engine_run("localize_two_well.json", 1000.0)
    out.append(("Acceptance, `two_well`, `rho=30`",
                trace_n.n_events / trace_n.n_proposals, "ratio"))

    grid = PeriodicGrid(256)
    rng = random.Random(0)
    arcs = [(rng.uniform(0, 6.28), rng.choice((-1, 1)), rng.expovariate(3.0))
            for _ in range(20000)]
    buf = grid.nodes * 0.0
    wall, _ = timed(lambda: [arc_sojourn(x, y, s, grid, out=buf) for x, y, s in arcs])
    out.append(("Histogram deposit, `n=256` (`arc_sojourn`), per call",
                1e6 * wall / len(arcs), "us"))
    wall_h, trace_h = engine_run("localize_two_well.json", 1000.0, hist_n=256)
    out.append(("Histogram deposit, `n=256` (`arc_sojourn`), per event",
                1e6 * (wall_h - wall_n) / trace_h.n_events, "us"))

    model = ModelSpec(potential=make_potential("cos2"), rho=1.8)
    grid128 = PeriodicGrid(128)
    cfg = ExperimentConfig.from_file(os.path.join(CONFIGS, "supercritical.json"))
    run = replace(cfg.build_sivjp(rho=1.8, stream_index=0, hist_n=128), t_end=200.0,
                  model=model)
    wall, trace = timed(run_sitp_general, *quadratic_kernel_grids(model, grid128), run)
    out.append(("`run_sitp_general`, `n=128`, per proposal",
                1e6 * wall / trace.n_proposals, "us"))

    points = [(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)) for _ in range(2000)]
    wall, _ = timed(lambda: [equilibria.fbar(model, a, b) for a, b in points])
    out.append(("`fbar`, `n=512`", 1e6 * wall / len(points), "us"))
    for rho in (1.8, 4.0):
        wall, _ = timed(equilibria.find_fixed_points, replace(model, rho=rho))
        out.append((f"`find_fixed_points`, cos2, `rho={rho}`", wall, "s"))
    wall, _ = timed(flow.integrate_flow, ModelSpec(rho=4.0), (0.1, 0.0), 20.0)
    out.append(("`integrate_flow`, `T=20` with self-check", wall, "s"))
    with open(os.path.join(CONFIGS, "pitchfork_scan.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    walls = [timed(ExperimentConfig.from_dict, raw)[0] for _ in range(20)]
    out.append(("`ExperimentConfig.from_dict`", 1e3 * statistics.median(walls), "ms"))

    for config, command, threads in (("supercritical.json", "simulate", 1),
                                     ("supercritical.json", "simulate", 2),
                                     ("pitchfork_scan.json", "scan", 1),
                                     ("pitchfork_scan.json", "scan", 2),
                                     ("localize_two_well.json", "localize", 2)):
        out.append((f"`{command}` on `{config}` (`--threads {threads}`)",
                    cli_wall(work, config, command, threads), "s"))
    return out


def main() -> int:
    work = os.path.join(ROOT, ".perfbench_work", f"baseline-{os.getpid()}")
    os.makedirs(work)
    try:
        measured = rows(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("env " + json.dumps(environment(), sort_keys=True))
    print("| Layer or command | Measured |\n| --- | --- |")
    for name, value, unit in measured:
        print(f"| {name} | {value:.4g} {unit} |")
    print("| Tier-1 suite | not re-measured: time the Tier-1 command |")
    print(json.dumps([{"row": n, "value": v, "unit": u} for n, v, u in measured]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
