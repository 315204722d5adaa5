"""Experiment orchestration behind the command-line surface: seeded sweeps,
fixed-point atlases, bifurcation scans, multi-well localization runs and a
self-validation suite.

All outputs are CSV (RFC 4180, %.12g numerics) or JSON (UTF-8, sorted
keys). Runs are keyed by (master_seed, stream_index), so sweeps are
reproducible bit-for-bit and independent of how work is scheduled across
workers. Summaries and fixed-point files cross-reference each other by a
hash of the model configuration.

Each command imports only the modules it runs: the fixed-point atlas
(equilibria) is imported by the commands that take a census and by
is_attracting, the flow by cmd_flow, the self-checks by validation_report,
and ProcessPoolExecutor by _map_ordered when it first starts a pool, so
`localize` at --threads 1 loads none of them. Those calls go through the
module objects (equilibria.find_fixed_points, flow.integrate_flow), so
that replacements made on those modules apply.
ProcessPoolExecutor, run_sitp, _simulate_worker, classify_limit and
ExperimentConfig.from_dict stay module attributes that are looked up at
call time, because the benchmark's tracer (perfbench/traced.py) and the
tests replace them.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.resources
import io
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .engine import MomentTrace, SIVJPConfig, run_sitp
from .errors import ConfigError, DomainError
from .geometry import TWO_PI
from .markov import TelegraphState
from .model import ModelSpec
from .potentials import local_minima, make_potential
from .rng import SeedSpec
from .schemacheck import schema_error

if TYPE_CHECKING:
    from .equilibria import FixedPointRecord


# ---------------------------------------------------------------------------
# configuration

_SCHEMA_CACHE: dict | None = None


def config_schema() -> dict:
    global _SCHEMA_CACHE
    if _SCHEMA_CACHE is None:
        text = (importlib.resources.files("sivjp") / "schema"
                / "experiment_config.schema.json").read_text(encoding="utf-8")
        _SCHEMA_CACHE = json.loads(text)
    return _SCHEMA_CACHE


_SIVJP_DEFAULTS = {"r": 1.0, "mu0": [0.0, 0.0], "x0": None, "y0": 1,
                   "T": 10000.0, "record_stride": 10.0, "log_stride": False,
                   "record_t0": 1.0}

_LOCALIZE_DEFAULTS = {"N": 50, "delta": 0.2, "T": 4000.0, "rho_min": 10.0}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (mirrors the JSON schema)."""

    name: str
    model: dict
    sivjp: dict
    sweep: dict
    flow: dict
    localize: dict
    master_seed: int = 0
    output_dir: str | None = None

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        message = schema_error(raw, config_schema())
        if message is not None:
            raise ConfigError(f"config rejected by schema: {message}")
        model = {"potential": "zero", "params": {}, "rho": 0.0, "lambda_min": 1.0}
        model.update(raw.get("model", {}))
        sivjp = dict(_SIVJP_DEFAULTS)
        sivjp.update(raw.get("sivjp", {}))
        if "y0" in raw.get("sivjp", {}) and sivjp["x0"] is None:
            raise ConfigError("sivjp.y0 needs sivjp.x0: without x0 the start is "
                              "drawn uniformly with velocity +1")
        localize = dict(_LOCALIZE_DEFAULTS)
        localize.update(raw.get("localize", {}))
        cfg = ExperimentConfig(
            name=raw["name"],
            model=model,
            sivjp=sivjp,
            sweep=dict(raw.get("sweep", {})),
            flow=dict(raw.get("flow", {})),
            localize=localize,
            master_seed=int(raw.get("master_seed", 0)),
            output_dir=raw.get("output_dir"),
        )
        # builds the model too, so bad potentials and params surface here
        cfg.build_sivjp(rho=cfg.model["rho"], stream_index=0).validate()
        if not all(math.isfinite(rho) for rho in cfg.sweep.get("rhos", ())):
            raise ConfigError("sweep.rhos entries must be finite")
        if not all(math.isfinite(cfg.localize[key]) for key in ("delta", "rho_min")):
            raise ConfigError("localize.delta and localize.rho_min must be finite")
        return cfg

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return ExperimentConfig.from_dict(raw)

    def build_model(self, rho: float | None = None) -> ModelSpec:
        pot = make_potential(self.model["potential"], self.model.get("params"))
        return ModelSpec(potential=pot,
                         rho=self.model["rho"] if rho is None else rho,
                         lambda_min=self.model["lambda_min"])

    def build_sivjp(self, rho: float, stream_index: int) -> SIVJPConfig:
        s = self.sivjp
        z0 = None
        if s["x0"] is not None:
            z0 = TelegraphState(x=float(s["x0"]), y=int(s["y0"]))
        return SIVJPConfig(
            model=self.build_model(rho=rho),
            t_end=float(s["T"]),
            seed=SeedSpec(self.master_seed, stream_index),
            r=float(s["r"]),
            mu0=(float(s["mu0"][0]), float(s["mu0"][1])),
            z0=z0,
            record_stride=float(s["record_stride"]),
            log_stride=bool(s["log_stride"]),
            record_t0=float(s["record_t0"]),
        )

    def model_hash(self, rho: float | None = None) -> str:
        payload = dict(self.model)
        if rho is not None:
            payload["rho"] = rho
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# run summaries and limit classification

LIMIT_RADIUS = 0.05
TAIL_FRACTION = 0.1


def is_attracting(rec: FixedPointRecord) -> bool:
    """No eigenvalue with real part beyond +STABILITY_TOL.

    Sinks qualify, and so do degenerate points whose only marginal
    direction is neutral (the supercritical circle of fixed points with no
    exterior potential): trajectories do settle on those.
    """
    from . import equilibria
    return bool(np.max(rec.eigenvalues.real) <= equilibria.STABILITY_TOL)


def classify_limit(trace: MomentTrace, census: list[FixedPointRecord],
                   ring: float | None = None) -> tuple[str, int, float]:
    """(classification, nearest fixed point index, distance at the end).

    converged-to-sink: the last 10% of the trace stays within 0.05 of one
    attracting census point, or radially within 0.05 of the ring of fixed
    points at radius `ring` (r(rho) of a rotation-invariant model, whose
    circle of individually degenerate points attracts as a set);
    near-saddle: same but for a non-attracting point; unresolved otherwise.
    """
    times = trace.times
    tail = times >= (1.0 - TAIL_FRACTION) * times[-1]
    pts = np.stack([trace.a_vals[tail], trace.b_vals[tail]], axis=-1)
    end = np.array([trace.final.a, trace.final.b])
    dists_end = [float(np.hypot(*(end - np.array([r.a, r.b])))) for r in census]
    nearest = int(np.argmin(dists_end))
    label = "unresolved"
    best = math.inf
    for k, rec in enumerate(census):
        d_max = float(np.max(np.hypot(pts[:, 0] - rec.a, pts[:, 1] - rec.b)))
        if d_max <= LIMIT_RADIUS and dists_end[k] < best:
            best = dists_end[k]
            label = "converged-to-sink" if is_attracting(rec) else "near-saddle"
            nearest = k
    if label == "unresolved" and ring is not None:
        tail_radii = np.hypot(pts[:, 0], pts[:, 1])
        if float(np.max(np.abs(tail_radii - ring))) <= LIMIT_RADIUS:
            label = "converged-to-sink"
    return label, nearest, dists_end[nearest]


def run_summary(seed_index: int, trace: MomentTrace,
                census: list[FixedPointRecord], ring: float | None) -> dict:
    label, nearest, dist = classify_limit(trace, census, ring)
    out = trace.summary()
    out.update({"seed": seed_index, "classification": label,
                "nearest_fp": nearest, "nearest_fp_dist": dist})
    return out


# ---------------------------------------------------------------------------
# workers (module level so process pools can pickle them)

def _simulate_worker(cfg: ExperimentConfig, rho: float,
                     stream_index: int) -> MomentTrace | Exception:
    """One run of the validated config; a failure is returned, not raised,
    so that one bad run does not abort a sweep."""
    try:
        return run_sitp(cfg.build_sivjp(rho=rho, stream_index=stream_index))
    except Exception as exc:
        return exc


ProcessPoolExecutor = None  # imported when _map_ordered first starts a pool


def _map_ordered(worker, jobs: list[tuple], threads: int) -> list:
    global ProcessPoolExecutor
    threads = min(threads, len(jobs))  # a pool starts all its workers at the first submit
    if threads <= 1:
        return [worker(*job) for job in jobs]
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, *zip(*jobs)))


def _traces(results: list) -> list[MomentTrace]:
    """The runs of a command that needs all of them; raises the first failure."""
    for res in results:
        if isinstance(res, Exception):
            raise res
    return results


# ---------------------------------------------------------------------------
# output helpers

def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def ensure_outdir(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise OSError(f"output directory {out_dir!r} is not writable")


def fixed_point_payload(cfg: ExperimentConfig, model: ModelSpec,
                        records: list[FixedPointRecord], rho: float) -> dict:
    from . import equilibria
    payload = {"model_hash": cfg.model_hash(rho=rho),
               "rho": rho,
               "census": [r.as_dict() for r in records],
               "thresholds": {}}
    thr = payload["thresholds"]
    if model.du_sup == 0.0 and rho > 2.0:  # U constant: rotation invariant
        thr["r_of_rho"] = equilibria.solve_r_of_rho(rho)
    try:
        thr["rho_c"] = equilibria.rho_c(model)
        thr["rho_2"] = equilibria.rho_2(model)
    except DomainError:
        pass  # non-centred exterior potential: thresholds undefined
    a_stars = sorted(r.a for r in records if r.a > 1e-9 and abs(r.b) < 1e-9)
    b_stars = sorted(r.b for r in records if r.b > 1e-9 and abs(r.a) < 1e-9)
    if a_stars:
        thr["a_star"] = a_stars[-1]
    if b_stars:
        thr["b_star"] = b_stars[-1]
    return payload


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(cfg: ExperimentConfig, out_dir: str, threads: int = 1,
                 quiet: bool = True) -> dict:
    """Run sweep.seeds independent runs at the model's rho; write per-seed
    moment CSVs plus summary.json and fixed_points.json."""
    from . import equilibria
    ensure_outdir(out_dir)
    n_seeds = int(cfg.sweep.get("seeds", 1))
    rho = cfg.model["rho"]
    model = cfg.build_model()
    census = equilibria.find_fixed_points(model)
    payload = fixed_point_payload(cfg, model, census, rho)
    ring = payload["thresholds"].get("r_of_rho")
    traces = _traces(_map_ordered(_simulate_worker,
                                  [(cfg, rho, k) for k in range(n_seeds)], threads))
    summaries = []
    for k, trace in enumerate(traces):
        csv_path = os.path.join(out_dir, f"{cfg.name}_seed{k:04d}.csv")
        write_text(csv_path, trace.to_csv())
        summaries.append(run_summary(k, trace, census, ring))
        if not quiet:
            s = summaries[-1]
            print(f"seed {k}: |m| = {s['final_r_polar']:.4f} {s['classification']}",
                  file=sys.stderr)
    write_json(os.path.join(out_dir, "summary.json"),
               {"name": cfg.name, "model_hash": cfg.model_hash(rho=rho),
                "master_seed": cfg.master_seed, "runs": summaries})
    write_json(os.path.join(out_dir, "fixed_points.json"), payload)
    return {"summaries": summaries, "census": census}


def cmd_fixed_points(cfg: ExperimentConfig, out_dir: str, quiet: bool = True) -> dict:
    """Fixed-point census plus threshold constants for the configured model."""
    from . import equilibria
    ensure_outdir(out_dir)
    model = cfg.build_model()
    records = equilibria.find_fixed_points(model)
    payload = fixed_point_payload(cfg, model, records, cfg.model["rho"])
    write_json(os.path.join(out_dir, "fixed_points.json"), payload)
    if not quiet:
        print(f"{len(records)} fixed points: {equilibria.census_signature(records)}",
              file=sys.stderr)
    return payload


def cmd_flow(cfg: ExperimentConfig, out_dir: str, quiet: bool = True) -> str:
    """Integrate the reduced flow from flow.start and write its CSV."""
    from . import flow
    spec = cfg.flow
    if "start" not in spec or "T_flow" not in spec:
        raise ConfigError("cmd_flow: config needs flow.start and flow.T_flow")
    model = cfg.build_model()
    trace = flow.integrate_flow(model, (spec["start"][0], spec["start"][1]),
                                spec["T_flow"], dt=spec.get("dt", 0.01))
    ensure_outdir(out_dir)
    path = os.path.join(out_dir, f"{cfg.name}_flow.csv")
    write_text(path, trace.to_csv())
    if not quiet:
        print(f"flow: {trace.times.size} steps -> {path}", file=sys.stderr)
    return path


def cmd_scan(cfg: ExperimentConfig, out_dir: str, threads: int = 1,
             quiet: bool = True) -> tuple[int, str]:
    """Sweep rho: per-rho census plus per-seed final moments, written as a
    tidy CSV. Every census is computed first, then all rho x seed runs go
    through one ordered map (one pool). A run that fails, in the engine or
    in classification, becomes an "error:<Type>: <message>" row. Returns
    (exit_code, csv_path); exit 4 when more than 10% of the rows failed."""
    from . import equilibria
    rhos = cfg.sweep.get("rhos") or []
    if not rhos:
        raise ConfigError("cmd_scan: sweep.rhos must be a non-empty list")
    n_seeds = int(cfg.sweep.get("seeds", 1))
    ensure_outdir(out_dir)
    censuses, records, rings = {}, [], []
    for rho in rhos:
        model = cfg.build_model(rho=rho)
        records.append(equilibria.find_fixed_points(model))
        payload = fixed_point_payload(cfg, model, records[-1], rho)
        censuses[f"{rho:.12g}"] = payload
        rings.append(payload["thresholds"].get("r_of_rho"))
    jobs = [(cfg, rho, i * n_seeds + k) for i, rho in enumerate(rhos) for k in range(n_seeds)]
    results = _map_ordered(_simulate_worker, jobs, threads)
    rows = []
    theta_finals = []
    n_failed = 0
    for (_, rho, stream), res in zip(jobs, results):
        try:
            if isinstance(res, Exception):
                raise res
            i = stream // n_seeds
            summ = run_summary(stream, res, records[i], rings[i])
            theta_finals.append(summ["final_theta"])
            rows.append([rho, stream, summ["final_a"], summ["final_b"],
                         summ["final_r_polar"], summ["nearest_fp"],
                         summ["nearest_fp_dist"], "ok"])
        except Exception as exc:  # per-row failure, recorded not raised
            n_failed += 1
            rows.append([rho, stream, "", "", "", "", "",
                         f"error:{type(exc).__name__}: {exc}"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["rho", "seed", "a_final", "b_final", "r_final", "nearest_fp",
                     "dist", "status"])
    for row in rows:
        writer.writerow(["%.12g" % v if isinstance(v, float) else v for v in row])
    csv_path = os.path.join(out_dir, f"{cfg.name}_scan.csv")
    write_text(csv_path, buf.getvalue())
    write_json(os.path.join(out_dir, f"{cfg.name}_scan_census.json"), censuses)
    write_json(os.path.join(out_dir, f"{cfg.name}_scan_info.json"),
               {"theta_ks_uniform": _ks_uniform_angle(theta_finals),
                "n_rows": len(rows), "n_failed": n_failed})
    if not quiet:
        print(f"scan: {len(rows)} rows, {n_failed} failed -> {csv_path}", file=sys.stderr)
    code = 0 if n_failed <= 0.1 * len(rows) else 4
    return code, csv_path


def _ks_uniform_angle(thetas: list[float]) -> float | None:
    """Informational KS statistic of final angles against the uniform law."""
    if not thetas:
        return None
    u = np.sort(np.mod(thetas, TWO_PI)) / TWO_PI
    n = u.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - u), np.max(u - grid_lo)))


def cmd_localize(cfg: ExperimentConfig, out_dir: str, threads: int = 1,
                 quiet: bool = True) -> dict:
    """Multi-well localization experiment.

    Requires a potential with at least two non-degenerate local minima and
    a large interaction strength. Runs N seeds of the exact moment engine
    with horizon localize.T and, for each detected minimum x0, counts the
    runs whose occupation measure satisfies

        int dist^2(z, x0) d mu_T = 2 - 2 (a cos x0 + b sin x0) < delta,

    which holds exactly since dist^2(z, x0) = 2 - 2 cos(z - x0).
    """
    model = cfg.build_model()
    minima = local_minima(model.potential)
    if len(minima) < 2:
        raise ConfigError(
            f"cmd_localize: potential {model.potential.name!r} has "
            f"{len(minima)} local minima; need at least 2")
    loc = cfg.localize
    if abs(model.rho) < loc["rho_min"]:
        raise ConfigError(
            f"cmd_localize: |rho| = {abs(model.rho)} below configured floor "
            f"{loc['rho_min']} (localization needs strong attraction)")
    run_cfg = replace(cfg, sivjp={**cfg.sivjp, "T": loc["T"]})
    run_cfg.build_sivjp(rho=cfg.model["rho"], stream_index=0).validate()
    ensure_outdir(out_dir)
    traces = _traces(_map_ordered(
        _simulate_worker, [(run_cfg, cfg.model["rho"], k) for k in range(int(loc["N"]))],
        threads))
    per_run = []
    counts = [0] * len(minima)
    for k, trace in enumerate(traces):
        a, b = trace.final.a, trace.final.b
        w_vals = [2.0 - 2.0 * (a * math.cos(x0) + b * math.sin(x0)) for x0 in minima]
        localized = int(np.argmin(w_vals)) if min(w_vals) < loc["delta"] else None
        if localized is not None:
            counts[localized] += 1
        per_run.append({"seed": k, "w": w_vals, "localized": localized})
    payload = {"minima": minima, "delta": loc["delta"], "T": loc["T"],
               "rho": cfg.model["rho"], "counts": counts,
               "every_minimum_hit": all(c > 0 for c in counts),
               "master_seed": cfg.master_seed, "runs": per_run}
    write_json(os.path.join(out_dir, f"{cfg.name}_localize.json"), payload)
    if not quiet:
        print(f"localize: counts per minimum {counts} (minima at {minima})",
              file=sys.stderr)
    return payload


# ---------------------------------------------------------------------------
# validation suite

def _check(name: str, fn) -> dict:
    try:
        detail = fn()
        return {"name": name, "passed": True, "detail": detail or "ok"}
    except Exception as exc:
        return {"name": name, "passed": False, "detail": f"{type(exc).__name__}: {exc}"}


def validation_report(master_seed: int = 0, quad_n: int = 16) -> dict:
    """Named self-checks over every module; deterministic given the seed."""
    from . import validate as checks
    report = [
        _check("wrap-identities", lambda: checks.check_wrap(master_seed)),
        _check("dist-triangle-inequality", lambda: checks.check_triangle(master_seed)),
        _check("quad-trig-exactness", lambda: checks.check_quad_exactness(quad_n)),
        _check("quad-bessel-i0", checks.check_quad_bessel),
        _check("stream-determinism", lambda: checks.check_stream_determinism(master_seed)),
        _check("stream-separation", lambda: checks.check_stream_separation(master_seed)),
        _check("advect-semigroup", lambda: checks.check_advect_semigroup(master_seed)),
        _check("moment-disk", lambda: checks.check_moment_disk(master_seed)),
        _check("drift-formula", checks.check_drift_formula),
        _check("jacobian-vs-finite-diff", lambda: checks.check_jacobian_fd(master_seed)),
        _check("rho-c-bessel-series", checks.check_rho_c_series),
        _check("census-cos2", checks.check_census_cos2),
        _check("free-energy-two-routes", checks.check_free_energy),
        _check("flow-equilibrium", checks.check_flow_equilibrium),
        _check("sitp-rho0-matches-telegraph", lambda: checks.check_rho0_reduction(master_seed)),
        _check("telegraph-exponential-gaps", lambda: checks.check_exp_gaps(master_seed)),
    ]
    return {"master_seed": master_seed,
            "all_passed": all(c["passed"] for c in report),
            "checks": report}


def cmd_validate(out_dir: str | None = None, master_seed: int = 0,
                 quad_n: int = 16, quiet: bool = True) -> dict:
    report = validation_report(master_seed=master_seed, quad_n=quad_n)
    if out_dir is not None:
        ensure_outdir(out_dir)
        write_json(os.path.join(out_dir, "validate_report.json"), report)
    if not quiet:
        for c in report["checks"]:
            print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}",
                  file=sys.stderr)
    return report
