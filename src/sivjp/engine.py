"""The self-interacting engine: event-driven simulation of the telegraph
process whose flip rate depends on the normalized occupation measure of its
own past positions.

The occupation measure with initial weight r,

    mu_t = (r*mu_0 + int_0^t delta_{X_s} ds) / (r + t),

enters the dynamics only through its trigonometric moments
(a, b) = (int cos d mu_t, int sin d mu_t) because the interaction kernel is
-rho*cos(x - z). Along a free-flight leg x(s) = x0 + y*s the moments update
in closed form,

    a <- (w*a + y*(sin(x0 + y*tau) - sin x0)) / (w + tau),
    b <- (w*b - y*(cos(x0 + y*tau) - cos x0)) / (w + tau),     w = r + t,

so the self-interaction is exact and O(1) per event: the whole pair
(state, occupation) is simulated with no time-discretization error, by
Poisson thinning under the envelope lambda_min + sup|U'| + |rho| (valid
because a^2 + b^2 <= 1).

run_sitp is this exact moment engine; it carries no histogram. A run that
asks for one (hist_grid) gets it binned once at the end from the recorded
flight legs. run_sitp_general is the general-kernel mode, where the drift is
a grid convolution of the kernel derivative against an occupation histogram
kept up to date at every proposal; it is approximate (bias of the order of
the grid spacing) and exists for kernels that do not reduce to two moments.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError, RunawayRateError
from .geometry import PeriodicGrid, TWO_PI, arc_sojourn, segments_sojourn, wrap
from .model import ModelSpec
from .markov import MAX_PROPOSALS, TelegraphState
from .rng import DrawBuffer, SeedSpec, derive_stream

MOMENT_DISK_TOL = 1e-12


@dataclass(frozen=True)
class OccupationStats:
    """Sufficient statistics of the normalized occupation measure: initial
    weight r, elapsed time t and the exact moments (a, b)."""

    r: float
    t: float
    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.r > 0.0:
            raise ConfigError("OccupationStats: initial weight r must be > 0")
        if self.t < 0.0:
            raise ConfigError("OccupationStats: elapsed time must be >= 0")
        if self.a ** 2 + self.b ** 2 > 1.0 + MOMENT_DISK_TOL:
            raise DomainError(
                f"OccupationStats: moments ({self.a}, {self.b}) leave the unit disk")

    @property
    def weight(self) -> float:
        return self.r + self.t


def advect_occupation(occ: OccupationStats, x0: float, y: int,
                      tau: float) -> OccupationStats:
    """Closed-form update of the occupation measure along a free-flight leg.

    Exact semigroup: splitting the leg at any intermediate time gives the
    same result as one joint update, up to round-off.
    """
    if not tau > 0.0:
        raise ConfigError("advect_occupation: tau must be > 0")
    w = occ.weight
    x1 = x0 + y * tau
    a = (w * occ.a + y * (math.sin(x1) - math.sin(x0))) / (w + tau)
    b = (w * occ.b - y * (math.cos(x1) - math.cos(x0))) / (w + tau)
    return replace(occ, t=occ.t + tau, a=a, b=b)


def drift_vprime(model: ModelSpec, x: float, occ: OccupationStats) -> float:
    """V'(x) against the occupation measure: U'(x) + rho*(a sin x - b cos x)."""
    return model.potential.dv_scalar(x) + model.rho * (
        occ.a * math.sin(x) - occ.b * math.cos(x))


@dataclass(frozen=True)
class SIVJPConfig:
    """One self-interacting run.

    z0 = None draws the initial position uniformly (the first stream draw)
    with velocity +1. mu0 gives the initial occupation moments; a run with
    a histogram grid starts from the uniform measure, so its mu0 must be
    (0, 0).

    record_stride is the snapshot interval; with log_stride=True it is a
    multiplicative ratio and snapshots sit at record_t0 * stride^k, which
    gives a uniform density in logarithmic time.
    """

    model: ModelSpec
    t_end: float
    seed: SeedSpec
    r: float = 1.0
    mu0: tuple[float, float] = (0.0, 0.0)
    z0: TelegraphState | None = None
    record_stride: float = 10.0
    log_stride: bool = False
    record_t0: float = 1.0
    hist_grid: PeriodicGrid | None = None
    lambda_bar_override: float | None = None

    def validate(self) -> None:
        if not self.r > 0.0:
            raise ConfigError("SIVJPConfig: r must be > 0")
        if not self.t_end > 0.0:
            raise ConfigError("SIVJPConfig: T must be > 0")
        if not self.record_stride > 0.0:
            raise ConfigError("SIVJPConfig: record_stride must be > 0")
        if self.log_stride and self.record_stride <= 1.0:
            raise ConfigError("SIVJPConfig: multiplicative record_stride must be > 1")
        if self.log_stride and not self.record_t0 > 0.0:
            raise ConfigError("SIVJPConfig: record_t0 must be > 0")
        a0, b0 = self.mu0
        if a0 * a0 + b0 * b0 > 1.0 + MOMENT_DISK_TOL:
            raise ConfigError("SIVJPConfig: mu0 moments must lie in the closed unit disk")
        if self.hist_grid is not None and (a0 != 0.0 or b0 != 0.0):
            raise ConfigError("SIVJPConfig: a histogram run starts uniform, "
                              "so mu0 must be (0, 0)")

    def snapshot_times(self) -> np.ndarray:
        if self.log_stride:
            count = int(math.floor(
                math.log(self.t_end / self.record_t0) / math.log(self.record_stride)))
            ts = self.record_t0 * self.record_stride ** np.arange(max(count + 1, 0))
            ts = ts[(ts > 0.0) & (ts < self.t_end)]
        else:
            ts = np.arange(1, int(self.t_end / self.record_stride) + 1) * self.record_stride
            ts = ts[ts < self.t_end]
        if ts.size > 2_000_000:
            raise ConfigError("SIVJPConfig: snapshot schedule too dense")
        return np.concatenate([ts, [self.t_end]])


@dataclass
class MomentTrace:
    """Snapshots of the occupation moments along one run; hist holds the
    final occupation measure on cfg.hist_grid (cell masses summing to 1)
    when the run asked for one."""

    times: np.ndarray
    a_vals: np.ndarray
    b_vals: np.ndarray
    x_vals: np.ndarray
    y_vals: np.ndarray
    final: OccupationStats
    final_state: TelegraphState
    n_events: int
    n_proposals: int
    wall_time_s: float
    hist: np.ndarray | None = None

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["t", "a", "b", "x", "y"])
        for row in zip(self.times, self.a_vals, self.b_vals, self.x_vals, self.y_vals):
            writer.writerow(["%.12g" % v for v in row])
        return buf.getvalue()

    def summary(self) -> dict:
        return {
            "final_a": self.final.a,
            "final_b": self.final.b,
            "final_r_polar": math.hypot(self.final.a, self.final.b),
            "final_theta": math.atan2(self.final.b, self.final.a) % TWO_PI,
            "n_events": self.n_events,
            "n_proposals": self.n_proposals,
            "wall_time_s": self.wall_time_s,
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True)


def _initial_state(cfg: SIVJPConfig, gen: np.random.Generator) -> tuple[float, int]:
    if cfg.z0 is not None:
        return wrap(cfg.z0.x), cfg.z0.y
    return gen.random() * TWO_PI, 1


def _envelope(cfg: SIVJPConfig, lam_bar: float) -> float:
    """The thinning envelope: the certified bound, or an override above it."""
    if cfg.lambda_bar_override is None:
        return lam_bar
    if cfg.lambda_bar_override < lam_bar:
        raise ConfigError("lambda_bar_override must dominate the certified envelope")
    return cfg.lambda_bar_override


def _record_due(rec, snaps: list, k: int, t_next: float, r: float, t: float,
                x: float, y: int, a: float, b: float) -> int:
    """Record the snapshots due by t_next on the leg that leaves x at time t
    with velocity y and moments (a, b); returns the next snapshot's index.

    The schedule ends at t_end, so the last record is the final state.
    """
    w = r + t
    while k < len(snaps) and snaps[k] <= t_next:
        s = snaps[k]
        dt = s - t
        xs = x + y * dt
        rec[0].append(s)
        rec[1].append((w * a + y * (math.sin(xs) - math.sin(x))) / (w + dt))
        rec[2].append((w * b - y * (math.cos(xs) - math.cos(x))) / (w + dt))
        rec[3].append(wrap(xs))
        rec[4].append(y)
        k += 1
    return k


def _finalize(cfg: SIVJPConfig, rec, hist_raw, n_events, n_proposals,
              t0) -> MomentTrace:
    times, a_vals, b_vals, x_vals, y_vals = rec
    return MomentTrace(times=np.array(times), a_vals=np.array(a_vals),
                       b_vals=np.array(b_vals), x_vals=np.array(x_vals),
                       y_vals=np.array(y_vals),
                       final=OccupationStats(r=cfg.r, t=cfg.t_end,
                                             a=a_vals[-1], b=b_vals[-1]),
                       final_state=TelegraphState(x=x_vals[-1], y=y_vals[-1]),
                       n_events=n_events, n_proposals=n_proposals,
                       wall_time_s=time.perf_counter() - t0,
                       hist=None if hist_raw is None else hist_raw / hist_raw.sum())


def run_sitp(cfg: SIVJPConfig) -> MomentTrace:
    """Exact moment-mode simulation of the self-interacting telegraph process.

    With rho = 0 the interaction vanishes and this is the plain telegraph
    engine with the same draw consumption, so matched seeds reproduce
    simulate_telegraph exactly. With cfg.hist_grid set, the flight legs
    between flips are recorded and binned once at the end into
    MomentTrace.hist; the draws and moments are the same as without.
    """
    cfg.validate()
    t_start = time.perf_counter()
    model = cfg.model
    lam_min = model.lambda_min
    lam_bar = _envelope(cfg, model.thinning_bound)
    rho = model.rho
    du = model.potential.dv_scalar

    gen = derive_stream(cfg.seed)
    x, y = _initial_state(cfg, gen)
    draws = DrawBuffer(gen)
    a, b = cfg.mu0
    r = cfg.r
    t = 0.0
    t_end = cfg.t_end
    legs = [] if cfg.hist_grid is not None else None  # (start, direction, length)
    seg_x, seg_t = x, 0.0

    snaps = cfg.snapshot_times().tolist()
    snap_idx = 0
    next_snap = snaps[0]
    rec: tuple[list, list, list, list, list] = ([], [], [], [], [])
    n_events = 0
    n_prop = 0
    sin = math.sin
    cos = math.cos
    log1p = math.log1p

    while True:
        u_gap, u_acc = draws.pair()
        tau = -log1p(-u_gap) / lam_bar
        t_next = t + tau
        if t_next >= next_snap:
            snap_idx = _record_due(rec, snaps, snap_idx, t_next, r, t, x, y, a, b)
            if t_next >= t_end:
                break
            next_snap = snaps[snap_idx]
        w = r + t
        xs = x + y * tau
        a = (w * a + y * (sin(xs) - sin(x))) / (w + tau)
        b = (w * b - y * (cos(xs) - cos(x))) / (w + tau)
        x = wrap(xs)
        t = t_next
        n_prop += 1
        if n_prop > MAX_PROPOSALS:
            raise RunawayRateError("run_sitp: proposal budget exceeded")
        drift = du(x) + rho * (a * sin(x) - b * cos(x))
        yd = y * drift
        rate = lam_min + (yd if yd > 0.0 else 0.0)
        if u_acc * lam_bar < rate:
            if legs is not None:
                legs.append((seg_x, y, t - seg_t))
                seg_x, seg_t = x, t
            y = -y
            n_events += 1

    hist_raw = None
    if legs is not None:
        legs.append((seg_x, y, t_end - seg_t))
        grid = cfg.hist_grid
        hist_raw = segments_sojourn(*np.array(legs).T, grid) + r / grid.n
    return _finalize(cfg, rec, hist_raw, n_events, n_prop, t_start)


def run_sitp_general(w_grid: np.ndarray, dw_grid: np.ndarray,
                     cfg: SIVJPConfig) -> MomentTrace:
    """Histogram-mode simulation for a general symmetric interaction kernel.

    w_grid and dw_grid sample W(x, z) and its x-derivative on
    hist_grid x hist_grid; the drift at x is the grid convolution of
    dw_grid against the occupation histogram, with piecewise-linear
    interpolation in x. The histogram carries the uniform initial mass r
    plus the exact sojourn masses of the trajectory, so the only bias is
    the cell-width smearing of the kernel, of the order of the grid spacing.

    The exterior potential must be baked into the kernel
    (W = U(x) + Wint(x, z) + U(z)); cfg.model contributes lambda_min and
    rho is ignored here.
    """
    cfg.validate()
    if cfg.hist_grid is None:
        raise ConfigError("run_sitp_general: hist_grid is required")
    t_start = time.perf_counter()
    grid = cfg.hist_grid
    n = grid.n
    w_grid = np.asarray(w_grid, dtype=float)
    dw_grid = np.asarray(dw_grid, dtype=float)
    if w_grid.shape != (n, n) or dw_grid.shape != (n, n):
        raise ConfigError("run_sitp_general: kernel grids must be n x n on hist_grid")
    asym = float(np.max(np.abs(w_grid - w_grid.T)))
    if asym > 1e-12:
        raise ConfigError(f"run_sitp_general: kernel is not symmetric (max {asym:.2e})")

    lam_min = cfg.model.lambda_min
    lam_bar = _envelope(cfg, lam_min + 1.05 * float(np.max(np.abs(dw_grid))))

    gen = derive_stream(cfg.seed)
    x, y = _initial_state(cfg, gen)
    draws = DrawBuffer(gen)
    a, b = cfg.mu0
    r = cfg.r
    t = 0.0
    t_end = cfg.t_end
    hist_raw = np.full(n, r / n)  # uniform initial measure of mass r
    inv_h = n / TWO_PI

    snaps = cfg.snapshot_times().tolist()
    snap_idx = 0
    next_snap = snaps[0]
    rec: tuple[list, list, list, list, list] = ([], [], [], [], [])
    n_events = 0
    n_prop = 0
    sin = math.sin
    cos = math.cos
    log1p = math.log1p

    while True:
        u_gap, u_acc = draws.pair()
        tau = -log1p(-u_gap) / lam_bar
        t_next = t + tau
        if t_next >= next_snap:
            snap_idx = _record_due(rec, snaps, snap_idx, t_next, r, t, x, y, a, b)
            if t_next >= t_end:
                arc_sojourn(x, y, t_end - t, grid, out=hist_raw)
                break
            next_snap = snaps[snap_idx]
        w = r + t
        x_prev = x
        xs = x + y * tau
        a = (w * a + y * (sin(xs) - sin(x))) / (w + tau)
        b = (w * b - y * (cos(xs) - cos(x))) / (w + tau)
        x = wrap(xs)
        arc_sojourn(x_prev, y, tau, grid, out=hist_raw)
        t = t_next
        n_prop += 1
        if n_prop > MAX_PROPOSALS:
            raise RunawayRateError("run_sitp_general: proposal budget exceeded")
        pos = x * inv_h
        i = int(pos)
        if i >= n:
            i = 0
            pos = 0.0
        frac = pos - i
        i1 = i + 1 if i + 1 < n else 0
        drift = ((1.0 - frac) * float(dw_grid[i] @ hist_raw)
                 + frac * float(dw_grid[i1] @ hist_raw)) / (r + t)
        yd = y * drift
        rate = lam_min + (yd if yd > 0.0 else 0.0)
        if u_acc * lam_bar < rate:
            y = -y
            n_events += 1

    return _finalize(cfg, rec, hist_raw, n_events, n_prop, t_start)


def quadratic_kernel_grids(model: ModelSpec,
                           grid: PeriodicGrid) -> tuple[np.ndarray, np.ndarray]:
    """W(x,z) = U(x) - rho cos(x - z) + U(z) and its x-derivative on the grid."""
    z = grid.nodes
    u_vals = np.asarray(model.u(z), dtype=float)
    du_vals = np.asarray(model.du(z), dtype=float)
    diff = z[:, None] - z[None, :]
    w = u_vals[:, None] + u_vals[None, :] - model.rho * np.cos(diff)
    dw = du_vals[:, None] + model.rho * np.sin(diff)
    return w, dw
