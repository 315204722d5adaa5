"""Experiment orchestration behind the command-line surface: seeded sweeps,
fixed-point atlases, flows, the shadowing diagnostic, bifurcation scans,
multi-well localization runs and a self-validation suite.

All outputs are CSV (the format of markov.csv_text) or JSON (UTF-8,
sorted keys). Runs are keyed by (master_seed, stream_index), so sweeps are
reproducible bit-for-bit and independent of how work is scheduled across
workers; simulate, scan and localize take them as one stream in job order
(_map_ordered) and keep of each run only what their outputs need.
Summaries and fixed-point files cross-reference each other by a hash of
the model configuration.

Each command imports only the modules it runs. A config loads from
model's run spec (SIVJPConfig, TelegraphState, MAX_PROPOSALS), so the
engine (engine, markov) is imported only by the commands that simulate:
run_sitp imports it on its first call, and _map_ordered just before it
starts a pool, so that the workers the pool forks inherit it rather than
each compiling it. The fixed-point atlas (equilibria) is imported by the
commands that take a census, the flow by cmd_flow and cmd_shadow (which
takes its windows from flow.shadow_anchors, the home of the rule), the
self-checks by validation_report, markov's csv_text and ks_uniform by
cmd_shadow and cmd_scan, and ProcessPoolExecutor by _map_ordered when it
first starts a pool. model_hash uses CPython's built-in SHA-256, not
hashlib, so only the commands that simulate load OpenSSL (numpy.random
imports hashlib). So `fixed-points` loads neither the engine, markov nor
hashlib, `flow` loads no engine and no hashlib (flow loads markov for
csv_text), and `localize` at --threads 1 loads no atlas, flow or pool.
Those calls go through the module objects
(equilibria.find_fixed_points, flow.integrate_flow), so that replacements
made on those modules apply.
ProcessPoolExecutor, run_sitp, _simulate_worker, classify_limit and
ExperimentConfig.from_dict stay module attributes that are looked up at
call time, because the benchmark's tracer (perfbench/traced.py) and the
tests replace them.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import os
import sys
from contextlib import closing
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DomainError, SweepError
from .geometry import TWO_PI
from .model import MAX_PROPOSALS, ModelSpec, SIVJPConfig, TelegraphState
from .potentials import local_minima, make_potential
from .rng import SeedSpec
from .schemacheck import schema_error

if TYPE_CHECKING:
    from .engine import MomentTrace
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


# every config section is this table updated by the config's own keys;
# model_hash hashes the defaulted model section
_DEFAULTS = {
    "model": {"potential": "zero", "params": {}, "rho": 0.0, "lambda_min": 1.0},
    "sivjp": {"r": 1.0, "mu0": [0.0, 0.0], "x0": None, "y0": 1, "T": 10000.0,
              "record_stride": 10.0, "log_stride": False, "record_t0": 1.0},
    "sweep": {"rhos": [], "seeds": 1},
    "flow": {"dt": 0.01},
    "localize": {"N": 50, "delta": 0.2, "T": 4000.0, "rho_min": 10.0},
}

# most runs a command may make: pool.map submits every job at once; simulate writes a file per run
MAX_RUNS = 10_000


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
        cfg = ExperimentConfig(
            name=raw["name"],
            **{key: {**defaults, **raw.get(key, {})} for key, defaults in _DEFAULTS.items()},
            master_seed=int(raw.get("master_seed", 0)),
            output_dir=raw.get("output_dir"),
        )
        if "y0" in raw.get("sivjp", {}) and cfg.sivjp["x0"] is None:
            raise ConfigError("sivjp.y0 needs sivjp.x0: without x0 the start is "
                              "drawn uniformly with velocity +1")
        rhos, seeds, loc = cfg.sweep["rhos"], cfg.sweep["seeds"], cfg.localize
        n_sweep = seeds * max(1, len(rhos))
        for what, n in (("localize.N", loc["N"]), ("sweep.seeds x rhos", n_sweep)):
            if n > MAX_RUNS:
                raise ConfigError(f"{what} asks for {n} runs, above MAX_RUNS = {MAX_RUNS}")
        if len({f"{rho:.12g}" for rho in rhos}) < len(rhos):  # scan's census keys and rows
            raise ConfigError(f"sweep.rhos {rhos} has entries that print alike as %.12g")
        # builds the models too, so bad potentials and params surface here
        runs = [cfg.build_sivjp(rho=rho, stream_index=0) for rho in [cfg.model["rho"], *rhos]]
        for run in runs:
            run.validate()
        # each family's expected proposals, under the global envelope (above the local one)
        lam = [run.model.thinning_bound for run in runs]
        for what, total in (("sweep", seeds * cfg.sivjp["T"] * max(lam[0], sum(lam[1:]))),
                            ("localize", loc["N"] * lam[0] * loc["T"])):
            if not total <= MAX_PROPOSALS:  # NaN fails too
                raise ConfigError(f"the {what} runs expect {total:.3g} proposals in all, "
                                  f"not at most MAX_PROPOSALS = {MAX_PROPOSALS:.0e}")
        if not all(math.isfinite(loc[key]) for key in ("delta", "rho_min")):
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
        pot = make_potential(self.model["potential"], self.model["params"])
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
        """First 12 hex digits of the SHA-256 of the defaulted model section
        (rho replaced when given) as sorted, compact JSON. Every number is
        written as a float, so that a model spelled with 2 or with 2.0 has
        one hash.

        The digest comes from CPython's built-in SHA-256 (_sha2 from 3.12,
        _sha256 before), which hashlib itself falls back to without OpenSSL:
        importing hashlib loads OpenSSL's _hashlib extension, 3.4 MB of
        resident memory (27.1 -> 30.5 MB in a process holding numpy), which
        fixed-points and scan's main process need for nothing else.
        """
        for module in ("_sha2", "_sha256", "hashlib"):  # hashlib if built without both
            try:
                sha256 = importlib.import_module(module).sha256
            except ImportError:
                continue
            break
        model = self.model
        payload = {"potential": model["potential"],
                   "params": {key: [float(v) for v in value] if isinstance(value, list)
                              else float(value) for key, value in model["params"].items()},
                   "rho": float(model["rho"] if rho is None else rho),
                   "lambda_min": float(model["lambda_min"])}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# run summaries and limit classification

LIMIT_RADIUS = 0.05
TAIL_FRACTION = 0.1


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
            label = "converged-to-sink" if rec.attracting else "near-saddle"
            nearest = k
    if label == "unresolved" and ring is not None:
        tail_radii = np.hypot(pts[:, 0], pts[:, 1])
        if float(np.max(np.abs(tail_radii - ring))) <= LIMIT_RADIUS:
            label = "converged-to-sink"
    return label, nearest, dists_end[nearest]


def run_summary(seed_index: int, trace: MomentTrace,
                census: list[FixedPointRecord], payload: dict) -> dict:
    label, nearest, dist = classify_limit(trace, census, payload["thresholds"].get("r_of_rho"))
    out = trace.summary()
    out.update({"seed": seed_index, "classification": label,
                "nearest_fp": nearest, "nearest_fp_dist": dist})
    return out


# ---------------------------------------------------------------------------
# the engine, imported by the commands that simulate

def run_sitp(cfg: SIVJPConfig) -> MomentTrace:
    """engine.run_sitp, with the engine imported on the first call."""
    from .engine import run_sitp as run
    return run(cfg)


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


def _map_ordered(worker, jobs: list[tuple], threads: int):
    """Yields worker(*job) for each job in order, each run when asked for at
    one thread; closing the stream cancels a pool's jobs not yet started."""
    global ProcessPoolExecutor
    threads = min(threads, len(jobs))  # a pool starts all its workers at the first submit
    if threads <= 1:
        yield from (worker(*job) for job in jobs)
        return
    # loaded here, the engine is inherited by the workers the pool forks
    from . import engine  # noqa: F401
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(worker, *zip(*jobs))


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


def _census(cfg: ExperimentConfig, rho: float) -> tuple[list[FixedPointRecord], dict]:
    """The fixed-point census of the model at rho and its fixed_points.json
    payload, which adds the threshold constants."""
    from . import equilibria
    model = cfg.build_model(rho=rho)
    records = equilibria.find_fixed_points(model)
    payload = {"model_hash": cfg.model_hash(rho=rho),
               "rho": rho,
               "census": [r.as_dict() for r in records],
               "thresholds": {}}
    thr = payload["thresholds"]
    try:
        thr["rho_c"] = equilibria.rho_c(model)
        thr["rho_2"] = equilibria.rho_2(model)
    except DomainError:
        pass  # non-centred exterior potential: thresholds undefined
    a_stars = sorted(r.a for r in records if r.a > 1e-9 and abs(r.b) < 1e-9)
    b_stars = sorted(r.b for r in records if r.b > 1e-9 and abs(r.a) < 1e-9)
    if a_stars:
        thr["a_star"] = a_stars[-1]
        if model.potential.dv_sup == 0.0:  # U constant: the radius of the census's ring
            thr["r_of_rho"] = a_stars[-1]
    if b_stars:
        thr["b_star"] = b_stars[-1]
    return records, payload


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(cfg: ExperimentConfig, out_dir: str, threads: int = 1,
                 quiet: bool = True) -> dict:
    """Run sweep.seeds independent runs at the model's rho; write per-seed
    moment CSVs as the runs end, then summary.json and fixed_points.json.
    A failed run raises at once, after the CSVs of the runs before it."""
    rho = cfg.model["rho"]
    records, payload = _census(cfg, rho)
    ensure_outdir(out_dir)
    summaries = []
    jobs = [(cfg, rho, k) for k in range(int(cfg.sweep["seeds"]))]
    with closing(_map_ordered(_simulate_worker, jobs, threads)) as traces:
        for k, trace in enumerate(traces):
            if isinstance(trace, Exception):
                raise trace
            write_text(os.path.join(out_dir, f"{cfg.name}_seed{k:04d}.csv"), trace.to_csv())
            summaries.append(run_summary(k, trace, records, payload))
            if not quiet:
                s = summaries[-1]
                print(f"seed {k}: |m| = {s['final_r_polar']:.4f} {s['classification']}",
                      file=sys.stderr)
    write_json(os.path.join(out_dir, "summary.json"),
               {"name": cfg.name, "model_hash": cfg.model_hash(rho=rho),
                "master_seed": cfg.master_seed, "runs": summaries})
    write_json(os.path.join(out_dir, "fixed_points.json"), payload)
    return {"summaries": summaries, "census": records}


def cmd_fixed_points(cfg: ExperimentConfig, out_dir: str, quiet: bool = True) -> dict:
    """Fixed-point census plus threshold constants for the configured model."""
    from . import equilibria
    records, payload = _census(cfg, cfg.model["rho"])
    ensure_outdir(out_dir)
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
                                spec["T_flow"], dt=spec["dt"])
    ensure_outdir(out_dir)
    path = os.path.join(out_dir, f"{cfg.name}_flow.csv")
    write_text(path, trace.to_csv())
    if not quiet:
        print(f"flow: {trace.times.size} steps -> {path}", file=sys.stderr)
    return path


def cmd_shadow(cfg: ExperimentConfig, out_dir: str, quiet: bool) -> list[list]:
    """Shadowing diagnostic: how closely one run's moments, replotted in
    flow time s = ln t, follow the limiting flow.

    The run is stream 0 of the sivjp section at the model's rho. Its
    anchors are flow.shadow_anchors of its snapshot schedule, the home of
    the window rule: a schedule that fits none is a ConfigError, and so,
    before the run, is a flow.dt that flow.check_horizon refuses for a
    window or for the flow. Writes the moment trace, the flow from the
    first snapshot for the last anchor plus flow.SHADOW_WINDOW, and one
    row (s, t, sup_error) of flow.pseudotrajectory_error per anchor.
    Returns those rows.
    """
    from . import flow
    from .markov import csv_text
    run = cfg.build_sivjp(rho=cfg.model["rho"], stream_index=0)
    anchors = flow.shadow_anchors(run.snapshot_times())
    if not anchors:
        raise ConfigError(f"cmd_shadow: no window of length {flow.SHADOW_WINDOW} in flow "
                          f"time holds {flow.MIN_SNAPSHOTS} snapshots between the first "
                          f"snapshot and sivjp.T")
    dt, window = cfg.flow["dt"], flow.SHADOW_WINDOW
    for horizon in (window, anchors[-1] + window):  # the windows, the flow
        flow.check_horizon(horizon, dt)
    trace = run_sitp(run)
    rows = [[s, math.exp(s),
             flow.pseudotrajectory_error(trace, run.model, s, window, dt=dt)]
            for s in anchors]
    flow_trace = flow.integrate_flow(run.model, (trace.a_vals[0], trace.b_vals[0]),
                                     anchors[-1] + window, dt=dt)
    ensure_outdir(out_dir)
    write_text(os.path.join(out_dir, f"{cfg.name}_moments.csv"), trace.to_csv())
    write_text(os.path.join(out_dir, f"{cfg.name}_flow.csv"), flow_trace.to_csv())
    write_text(os.path.join(out_dir, f"{cfg.name}_shadow.csv"),
               csv_text(["s", "t", "sup_error"], rows))
    if not quiet:
        for s, t, err in rows:
            print(f"anchor s={s:.1f} (t={t:9.1f}): sup shadowing error {err:.5f}",
                  file=sys.stderr)
    return rows


def cmd_scan(cfg: ExperimentConfig, out_dir: str, threads: int = 1,
             quiet: bool = True) -> str:
    """Sweep rho: per-rho census plus per-seed final moments, written as a
    tidy CSV. Every census is computed first, then all rho x seed runs go
    through one ordered map (one pool). A run that fails, in the engine or
    in classification, becomes an "error:<Type>: <message>" row. Returns
    the CSV path; raises SweepError, once every output is written, when
    more than 10% of the rows failed."""
    from .markov import csv_text, ks_uniform
    rhos = cfg.sweep["rhos"]
    if not rhos:
        raise ConfigError("cmd_scan: sweep.rhos must be a non-empty list")
    n_seeds = int(cfg.sweep["seeds"])
    censuses = [_census(cfg, rho) for rho in rhos]  # (records, payload) per rho
    ensure_outdir(out_dir)
    jobs = [(cfg, rho, i * n_seeds + k) for i, rho in enumerate(rhos) for k in range(n_seeds)]
    rows, theta_finals, n_failed = [], [], 0
    # the stream first, so that zip exhausts it and its pool shuts down here
    for res, (_, rho, stream) in zip(_map_ordered(_simulate_worker, jobs, threads), jobs):
        try:
            if isinstance(res, Exception):
                raise res
            summ = run_summary(stream, res, *censuses[stream // n_seeds])
            theta_finals.append(summ["final_theta"])
            rows.append([rho, stream, summ["final_a"], summ["final_b"],
                         summ["final_r_polar"], summ["nearest_fp"],
                         summ["nearest_fp_dist"], "ok"])
        except Exception as exc:  # per-row failure, recorded not raised
            n_failed += 1
            rows.append([rho, stream, "", "", "", "", "",
                         f"error:{type(exc).__name__}: {exc}"])
    csv_path = os.path.join(out_dir, f"{cfg.name}_scan.csv")
    write_text(csv_path, csv_text(["rho", "seed", "a_final", "b_final", "r_final",
                                   "nearest_fp", "dist", "status"], rows))
    write_json(os.path.join(out_dir, f"{cfg.name}_scan_census.json"),
               {f"{rho:.12g}": payload for rho, (_, payload) in zip(rhos, censuses)})
    write_json(os.path.join(out_dir, f"{cfg.name}_scan_info.json"),
               {"theta_ks_uniform": ks_uniform(np.mod(theta_finals, TWO_PI) / TWO_PI)
                if theta_finals else None,
                "n_rows": len(rows), "n_failed": n_failed})
    if not quiet:
        print(f"scan: {len(rows)} rows, {n_failed} failed -> {csv_path}", file=sys.stderr)
    if n_failed > 0.1 * len(rows):
        raise SweepError(f"cmd_scan: {n_failed} of {len(rows)} rows failed (more than 10%)")
    return csv_path


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
    # only trace.final is read: one snapshot, at T, whatever the strides say
    run_cfg = replace(cfg, sivjp={**cfg.sivjp, "T": loc["T"], "record_stride": loc["T"],
                                  "log_stride": False})
    run_cfg.build_sivjp(rho=cfg.model["rho"], stream_index=0).validate()
    ensure_outdir(out_dir)
    per_run = []
    jobs = [(run_cfg, cfg.model["rho"], k) for k in range(int(loc["N"]))]
    with closing(_map_ordered(_simulate_worker, jobs, threads)) as traces:
        for k, trace in enumerate(traces):
            if isinstance(trace, Exception):
                raise trace
            a, b = trace.final.a, trace.final.b
            w_vals = [2.0 - 2.0 * (a * math.cos(x0) + b * math.sin(x0)) for x0 in minima]
            localized = int(np.argmin(w_vals)) if min(w_vals) < loc["delta"] else None
            per_run.append({"seed": k, "w": w_vals, "localized": localized})
    counts = [sum(run["localized"] == i for run in per_run) for i in range(len(minima))]
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
