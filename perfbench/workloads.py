"""Workload definitions and correctness gates for the sivjp benchmark.

A workload is a list of CLI commands, each with a config generated from a
shipped config under ``configs/``. The benchmark seed reaches the program
twice, as the config's ``master_seed`` and as ``--seed``, so the program
sees only the generated config and its arguments.

The gates are derived from the paper's closed forms, not from golden
output bytes, so a change that consumes random draws differently still
passes as long as the physics holds:

* ``rho_c = 2 / (1 + I1(1)/I0(1))`` and ``rho_2 = 2 / (1 - I1(1)/I0(1))``
  for ``U = -cos 2z`` (the quadratic moments of ``exp(cos 2z)``);
* the census signature per ``rho``: one sink below ``rho_c``; a saddle at
  the origin and two sinks ``(+-a*, 0)`` between ``rho_c`` and ``rho_2``;
  above ``rho_2`` a source at the origin plus two saddles ``(0, +-b*)``;
* for ``U = 0`` and ``rho > 2`` a ring of fixed points at radius
  ``r(rho)``, the root of ``r = I1(rho r) / I0(rho r)``, which the flow
  reaches;
* the minima of ``U = a1 cos z + a2 cos 2z`` at ``0`` and ``pi`` for the
  shipped two-well parameters.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

RHO_C_COS2 = 1.3827529554
RHO_2_COS2 = 3.6126512830
THRESHOLD_TOL = 1e-9
RING_TOL = 1e-6
POSITION_TOL = 1e-8


# ---------------------------------------------------------------------------
# closed-form oracles

def bessel_i(n: int, x: float) -> float:
    """Modified Bessel function I_n(x) from its power series."""
    term = (0.5 * x) ** n / math.factorial(n)
    total = term
    k = 0
    while abs(term) > 1e-18 * abs(total):
        k += 1
        term *= (0.25 * x * x) / (k * (k + n))
        total += term
    return total


def cos2_thresholds() -> tuple[float, float]:
    ratio = bessel_i(1, 1.0) / bessel_i(0, 1.0)
    return 2.0 / (1.0 + ratio), 2.0 / (1.0 - ratio)


def ring_radius(rho: float) -> float:
    """Positive root of r = I1(rho r) / I0(rho r), for U = 0 and rho > 2."""
    lo, hi = 1e-9, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bessel_i(1, rho * mid) / bessel_i(0, rho * mid) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def axis_fixed_point(rho: float, axis: str, n: int = 4096) -> float:
    """Positive fixed point of the cos2 moment map on one axis.

    Solves m = int t(z) e^{cos 2z + rho m t(z)} / int e^{...} with
    t = cos (horizontal) or sin (vertical), by bisection on the residual.
    """
    z = 2.0 * math.pi * np.arange(n) / n
    t = np.cos(z) if axis == "a" else np.sin(z)

    def residual(m: float) -> float:
        logw = np.cos(2.0 * z) + rho * m * t
        w = np.exp(logw - logw.max())
        return float((t * w).sum() / w.sum()) - m

    lo, hi = 1e-6, 1.0
    if not residual(lo) > 0.0:
        raise ValueError(f"no {axis}-axis fixed point at rho = {rho}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def expected_cos2_census(rho: float) -> dict[tuple[float, float], str]:
    """Fixed points and stability classes of the cos2 model at rho."""
    rc, r2 = cos2_thresholds()
    if rho < rc:
        return {(0.0, 0.0): "Sink"}
    a = axis_fixed_point(rho, "a")
    points = {(0.0, 0.0): "Saddle" if rho < r2 else "Source",
              (a, 0.0): "Sink", (-a, 0.0): "Sink"}
    if rho > r2:
        b = axis_fixed_point(rho, "b")
        points[(0.0, b)] = "Saddle"
        points[(0.0, -b)] = "Saddle"
    return points


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Command:
    """One CLI invocation: its generated config and the trailing argv."""

    label: str
    config: dict
    args: tuple[str, ...]
    out: str = ""  # output directory name, filled by Workload.commands


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    build: Callable[[dict, bool], list]  # (shipped configs, tiny) -> commands
    check: Callable[[list, dict], list]  # (commands, {label: out dir}) -> gates
    seed_runs: Callable[[list], int]  # engine runs in one pass

    def commands(self, configs: dict, seed: int, tiny: bool) -> list[Command]:
        cmds = self.build(configs, tiny)
        return [Command(c.label, {**c.config, "master_seed": seed},
                        c.args, out=f"{k:02d}_{c.label.split()[0]}")
                for k, c in enumerate(cmds)]


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _gate(results: list, name: str, ok: bool, detail: str = "") -> bool:
    results.append((name, bool(ok), detail))
    return bool(ok)


def _check_thresholds(results, where: str, thr: dict) -> None:
    rc, r2 = cos2_thresholds()
    for key, stated, oracle in (("rho_c", RHO_C_COS2, rc), ("rho_2", RHO_2_COS2, r2)):
        got = thr.get(key)
        ok = (got is not None and abs(got - stated) <= THRESHOLD_TOL
              and abs(got - oracle) <= THRESHOLD_TOL)
        _gate(results, f"{where}:{key}", ok, f"got {got!r}, paper {stated}")


def _check_cos2_census(results, where: str, rho: float, census: list[dict]) -> None:
    expected = expected_cos2_census(rho)
    got = {}
    for rec in census:
        match = [p for p in expected
                 if math.hypot(rec["a"] - p[0], rec["b"] - p[1]) <= POSITION_TOL]
        got[match[0] if match else (rec["a"], rec["b"])] = rec["stability"]
    sig = ", ".join(f"{v} {k}" for k, v in sorted(Counter(got.values()).items()))
    _gate(results, f"{where}:census", got == expected and len(census) == len(expected),
          f"rho={rho}: {sig}")


# scan-pitchfork ------------------------------------------------------------

def _build_scan(configs: dict, tiny: bool) -> list[Command]:
    cfg = json.loads(json.dumps(configs["pitchfork_scan"]))
    if tiny:
        cfg["sweep"] = {"rhos": [0.8, 4.0], "seeds": 2}
        cfg["sivjp"]["T"] = 500.0
    return [Command("scan", cfg, ("--threads", "2", "scan"))]


def _scan_runs(cmds: list[Command]) -> int:
    sweep = cmds[0].config["sweep"]
    return len(sweep["rhos"]) * int(sweep["seeds"])


def _check_scan(cmds: list[Command], outs: dict) -> list:
    results: list = []
    cmd = cmds[0]
    name = cmd.config["name"]
    out = outs[cmd.label]
    info = _load(os.path.join(out, f"{name}_scan_info.json"))
    _gate(results, "scan:n_failed", info["n_failed"] == 0, f"n_failed={info['n_failed']}")
    with open(os.path.join(out, f"{name}_scan.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    _gate(results, "scan:rows", len(rows) == _scan_runs(cmds), f"{len(rows)} rows")
    for r in rows:
        _gate(results, f"scan:row rho={r['rho']} seed={r['seed']}",
              r["status"] == "ok" and float(r["a_final"]) ** 2 + float(r["b_final"]) ** 2 <= 1.0,
              f"status {r['status']}, (a, b) = ({r['a_final']}, {r['b_final']})")
    censuses = _load(os.path.join(out, f"{name}_scan_census.json"))
    for rho in cmd.config["sweep"]["rhos"]:
        payload = censuses.get(f"{rho:.12g}")
        if not _gate(results, f"scan:census_present:{rho}", payload is not None):
            continue
        _check_cos2_census(results, f"scan:rho={rho}", rho, payload["census"])
        _check_thresholds(results, f"scan:rho={rho}", payload["thresholds"])
    return results


# localize-twowell ----------------------------------------------------------

LOCALIZE_N = 6


def _build_localize(configs: dict, tiny: bool) -> list[Command]:
    cfg = json.loads(json.dumps(configs["localize_two_well"]))
    cfg["localize"]["N"] = 2 if tiny else LOCALIZE_N
    if tiny:
        cfg["localize"]["T"] = 300.0
    return [Command("localize", cfg, ("--threads", "1", "localize"))]


def _check_localize(cmds: list[Command], outs: dict) -> list:
    results: list = []
    cmd = cmds[0]
    loc = cmd.config["localize"]
    params = cmd.config["model"]["params"]
    payload = _load(os.path.join(outs[cmd.label], f"{cmd.config['name']}_localize.json"))
    # U' = -sin z (a1 + 4 a2 cos z): wells at 0 and pi while |a1| < 4|a2|, a2 < 0
    if not (params["a2"] < 0 and abs(params["a1"]) < -4.0 * params["a2"]):
        raise ValueError("localize gate assumes wells at 0 and pi")
    minima = payload["minima"]
    _gate(results, "localize:both_minima",
          len(minima) == 2 and abs(minima[0]) <= POSITION_TOL
          and abs(minima[1] - math.pi) <= POSITION_TOL, f"minima {minima}")
    runs = payload["runs"]
    _gate(results, "localize:runs", len(runs) == int(loc["N"]), f"{len(runs)} runs")
    counts = [0, 0]
    for run in runs:
        w = run["w"]
        want = int(np.argmin(w)) if min(w) < loc["delta"] else None
        _gate(results, f"localize:run seed={run['seed']}",
              len(w) == 2 and all(0.0 <= v <= 4.0 for v in w) and run["localized"] == want,
              f"w {w}, localized {run['localized']}")
        if want is not None:
            counts[want] += 1
    _gate(results, "localize:counts", payload["counts"] == counts,
          f"counts {payload['counts']} (every minimum hit: {payload['every_minimum_hit']})")
    return results


# atlas-flow ----------------------------------------------------------------

ATLAS_RHOS = (1.2, 1.8, 2.8, 4.0)


def _build_atlas(configs: dict, tiny: bool) -> list[Command]:
    cmds = []
    for rho in ((4.0,) if tiny else ATLAS_RHOS):
        cfg = {"name": f"atlas_cos2_rho{rho:g}",
               "model": {"potential": "cos2", "rho": rho, "lambda_min": 1.0}}
        cmds.append(Command(f"fixed-points rho={rho:g}", cfg, ("fixed-points",)))
    demo = json.loads(json.dumps(configs["flow_demo"]))
    if tiny:
        demo["flow"]["T_flow"] = 25.0
    cmds.append(Command("fixed-points flow_demo", demo, ("fixed-points",)))
    cmds.append(Command("flow flow_demo", demo, ("flow",)))
    return cmds


def _check_atlas(cmds: list[Command], outs: dict) -> list:
    results: list = []
    for cmd in cmds:
        out = outs[cmd.label]
        model = cmd.config["model"]
        rho = model["rho"]
        if cmd.args[-1] == "fixed-points" and model["potential"] == "cos2":
            payload = _load(os.path.join(out, "fixed_points.json"))
            _check_cos2_census(results, f"atlas:rho={rho}", rho, payload["census"])
            _check_thresholds(results, f"atlas:rho={rho}", payload["thresholds"])
        elif cmd.args[-1] == "fixed-points":
            r_ring = ring_radius(rho)
            payload = _load(os.path.join(out, "fixed_points.json"))
            census = payload["census"]
            origin = [c for c in census if math.hypot(c["a"], c["b"]) < POSITION_TOL]
            ring = [c for c in census if c not in origin]
            _gate(results, "atlas:ring_origin_source",
                  len(origin) == 1 and origin[0]["stability"] == "Source")
            off = [c for c in ring if abs(math.hypot(c["a"], c["b"]) - r_ring) > RING_TOL
                   or c["stability"] != "Degenerate"]
            _gate(results, "atlas:ring", len(ring) >= 8 and not off,
                  f"{len(ring)} ring points, {len(off)} off r({rho:g})={r_ring:.10f}")
            got = payload["thresholds"].get("r_of_rho")
            _gate(results, "atlas:r_of_rho",
                  got is not None and abs(got - r_ring) <= THRESHOLD_TOL, f"got {got!r}")
        else:
            r_ring = ring_radius(rho)
            path = os.path.join(out, f"{cmd.config['name']}_flow.csv")
            with open(path, newline="", encoding="utf-8") as fh:
                last = list(csv.reader(fh))[-1]
            s_end, a_end, b_end = (float(v) for v in last)
            err = abs(math.hypot(a_end, b_end) - r_ring)
            _gate(results, "atlas:flow_endpoint",
                  abs(s_end - cmd.config["flow"]["T_flow"]) < 1e-9 and err <= RING_TOL,
                  f"|r(end) - r({rho:g})| = {err:.3e}")
    return results


WORKLOADS = {
    w.name: w for w in (
        Workload("scan-pitchfork",
                 "full scan pipeline: serial censuses plus pooled moment-mode runs "
                 "at --threads 2; the only workload with pool and IPC cost",
                 2, _build_scan, _check_scan, _scan_runs),
        Workload("localize-twowell",
                 "single-process baseline with the 256-cell histogram deposit and "
                 "10% thinning acceptance; no census, no pool",
                 1, _build_localize, _check_localize,
                 lambda cmds: int(cmds[0].config["localize"]["N"])),
        Workload("atlas-flow",
                 "deterministic fixed-point censuses and flow integration; fbar "
                 "dominates and no engine runs",
                 1, _build_atlas, _check_atlas, lambda cmds: 0),
    )
}
