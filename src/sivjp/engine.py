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
Poisson thinning. The global envelope lam_bar = lambda_min + sup|U'| + |rho|
dominates the rate because a^2 + b^2 <= 1; thinning_envelope is the one
rule for raising it by an override. The moment mode proposes under the
tighter local envelope of local_clock, capped at lam_bar: along a leg the
rate is lambda_min + g(s)_+ with g(s) = y V'(x(s)), and

    g' = U''(x) + rho*(a cos x + b sin x) - rho*y*(a sin x - b cos x)/w,

with w = r + t growing, so |g'| <= slope = sup|U''| + |rho|*(1 + 1/w) at
the leg start's weight w. Then

    bound(s) = min(lambda_min + max(g0 + slope*s, 0), lam_bar)

dominates the rate, where g0 = y V'(x) at the last proposal, which the
loop has already computed (Lewis & Shedler 1979; the affine bounds of the
Zig-Zag sampler). Its clock costs more per proposal, so envelope_slope
keeps it only where the saving is predicted to repay that (strong
attraction); otherwise (weak interaction under a high floor) the run
keeps the constant lam_bar.

One thinning loop, _drive, serves both modes; only the drift differs. It
is the only thinning loop on the circle: simulate_telegraph, the plain
telegraph process, is the moment mode at rho = 0, with _drive recording
its jump skeleton. The loop inlines the clock (local_clock, which stays
the reference), the moment update (_advance) and the wrap (geometry.wrap),
with the same operations in the same order, and holds the velocity as the
float +-1.0, so a proposal makes no Python call beyond the drift and the
math functions; a leg that stays inside [0, 2 pi) reuses its end's sin
and cos. run_sitp is the exact moment mode: the drift
U'(x) + rho*(a sin x - b cos x) is computed inline, and the two moments
are the whole occupation state, so a run is a pure function of its config
and seed (markov.occupation_histogram bins a telegraph log where a
histogram is wanted). run_sitp_general is the general-kernel mode: it
owns an occupation histogram on the kernel's grid, its drift callback
deposits each flight leg there and convolves the kernel derivative
against it, and it returns the histogram beside the trace; it is
approximate (bias of the order of the grid spacing) and exists for
kernels that do not reduce to two moments, and proposes under the
constant lam_bar, as does a run with lambda_bar_override. The envelope is
checked on every accepted proposal, and a run stops with RunawayRateError
past model.proposal_budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, DomainError, RunawayRateError
from .geometry import PeriodicGrid, TWO_PI, arc_sojourn, wrap
from .markov import EventLog, csv_lines
from .model import (ROUNDOFF_TOL, ModelSpec, SIVJPConfig, TelegraphState,
                    proposal_budget)
from .potentials import FrozenPotential
from .rng import SeedSpec, derive_stream, uniform_pairs

# the local envelope is used where it is predicted to make at most this
# fraction of the constant envelope's proposals: its clock makes a proposal
# about 1.4 times as dear (1.37-1.46 times, measured on zero at rho 4, cos2
# at 2.8 and two_well at 30 with the clock inlined), so a smaller saving
# does not repay it
LOCAL_MAX_RATIO = 0.7


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
        if self.a ** 2 + self.b ** 2 > 1.0 + ROUNDOFF_TOL:
            raise DomainError(
                f"OccupationStats: moments ({self.a}, {self.b}) leave the unit disk")

    @property
    def weight(self) -> float:
        return self.r + self.t


def _advance(w: float, a: float, b: float, x0: float, y: int,
             tau: float) -> tuple[float, float]:
    """Moments (a, b) at weight w after a free-flight leg of length tau that
    leaves x0 with velocity y (the closed form in the module docstring)."""
    x1 = x0 + y * tau
    return ((w * a + y * (math.sin(x1) - math.sin(x0))) / (w + tau),
            (w * b - y * (math.cos(x1) - math.cos(x0))) / (w + tau))


def advect_occupation(occ: OccupationStats, x0: float, y: int,
                      tau: float) -> OccupationStats:
    """Closed-form update of the occupation measure along a free-flight leg.

    Exact semigroup: splitting the leg at any intermediate time gives the
    same result as one joint update, up to round-off.
    """
    if not tau > 0.0:
        raise ConfigError("advect_occupation: tau must be > 0")
    a, b = _advance(occ.weight, occ.a, occ.b, x0, y, tau)
    return replace(occ, t=occ.t + tau, a=a, b=b)


def drift_vprime(model: ModelSpec, x: float, occ: OccupationStats) -> float:
    """V'(x) against the occupation measure: U'(x) + rho*(a sin x - b cos x)."""
    return model.potential.dv_scalar(x) + model.rho * (
        occ.a * math.sin(x) - occ.b * math.cos(x))


@dataclass
class MomentTrace:
    """Snapshots of the occupation moments along one run, with its final
    state and counts: everything here is a function of the config and seed."""

    times: np.ndarray
    a_vals: np.ndarray
    b_vals: np.ndarray
    x_vals: np.ndarray
    y_vals: np.ndarray
    final: OccupationStats
    final_state: TelegraphState
    n_events: int
    n_proposals: int

    def csv_lines(self) -> Iterator[str]:
        return csv_lines(["t", "a", "b", "x", "y"],
                         zip(self.times, self.a_vals, self.b_vals, self.x_vals, self.y_vals))

    def to_csv(self) -> str:
        return "".join(self.csv_lines())

    def summary(self) -> dict:
        return {
            "final_a": self.final.a,
            "final_b": self.final.b,
            "final_r_polar": math.hypot(self.final.a, self.final.b),
            "final_theta": math.atan2(self.final.b, self.final.a) % TWO_PI,
            "n_events": self.n_events,
            "n_proposals": self.n_proposals,
        }


def _record_due(rec, snaps: list, k: int, t_next: float, r: float, t: float,
                x: float, y: float, a: float, b: float) -> int:
    """Record the snapshots due by t_next on the leg that leaves x at time t
    with velocity y and moments (a, b); returns the next snapshot's index.

    The schedule ends at t_end, so the last record is the final state.
    """
    w = r + t
    while k < len(snaps) and snaps[k] <= t_next:
        s = snaps[k]
        dt = s - t
        a_s, b_s = _advance(w, a, b, x, y, dt)
        rec[0].append(s)
        rec[1].append(a_s)
        rec[2].append(b_s)
        rec[3].append(wrap(x + y * dt))
        rec[4].append(int(y))
        k += 1
    return k


def _finalize(cfg: SIVJPConfig, rec, n_events, n_proposals) -> MomentTrace:
    times, a_vals, b_vals, x_vals, y_vals = rec
    return MomentTrace(times=np.array(times), a_vals=np.array(a_vals),
                       b_vals=np.array(b_vals), x_vals=np.array(x_vals),
                       y_vals=np.array(y_vals),
                       final=OccupationStats(r=cfg.r, t=cfg.t_end,
                                             a=a_vals[-1], b=b_vals[-1]),
                       final_state=TelegraphState(x=x_vals[-1], y=y_vals[-1]),
                       n_events=n_events, n_proposals=n_proposals)


def thinning_envelope(certified: float, override: float | None) -> float:
    """The thinning envelope: the certified bound, or an override above it
    (e.g. to share a proposal skeleton between runs).

    It must be finite and > 0. An infinite envelope makes every gap 0, so
    a run never reaches its end time; a NaN one makes the clock NaN. The
    thinning loop relies on it: with it, every gap and position it sees is
    finite.
    """
    lam = certified if override is None else override
    if not (math.isfinite(lam) and lam > 0.0):
        name = "certified" if override is None else "lambda_bar_override"
        raise ConfigError(f"thinning envelope must be finite and > 0, got {name} {lam!r}")
    if not lam >= certified:
        raise ConfigError("lambda_bar_override must dominate the certified envelope")
    return lam


def envelope_slope(lam_min: float, lam_bar: float, slope: float) -> float:
    """The slope local_clock is to use: slope where the local envelope pays,
    else inf, the constant envelope lam_bar.

    The prediction is the ratio of the local envelope's proposal rate to
    the constant one's after a proposal with g0 = 0: 1 / (lam_bar * E[gap]),
    where E[gap] = int_0^inf exp(-Lambda(s)) ds is the mean gap and Lambda
    the integral of the bound. Weak interaction under a high floor (the
    zero potential at rho 1, lambda_min 1: 0.74) stays constant; strong
    attraction (two_well at rho 30: 0.16) goes local.
    """
    if not 0.0 < slope < math.inf:
        return math.inf
    ramp = min((lam_bar - lam_min) / slope, 50.0 / lam_min)  # exp(-50) is nil
    s = np.linspace(0.0, ramp, 1025)
    survival = np.exp(-(lam_min + 0.5 * slope * s) * s)  # exp(-Lambda) on the ramp
    e_gap = (s[1] * (survival.sum() - 0.5 * (survival[0] + survival[-1]))
             + survival[-1] / lam_bar)
    return slope if 1.0 / (lam_bar * e_gap) <= LOCAL_MAX_RATIO else math.inf


def local_clock(u_gap: float, g0: float, slope: float, lam_min: float,
                lam_bar: float) -> tuple[float, float]:
    """The gap to the next proposal and the bound at it, from one uniform:
    the reference for the copy that _drive runs inlined.

    The gap solves int_0^tau bound(s) ds = -log(1 - u_gap) in closed form
    for bound(s) = min(lam_min + max(g0 + slope*s, 0), lam_bar), in three
    stretches: flat at lam_min while g0 + slope*s < 0, then a linear ramp
    up to lam_bar, then constant. A slope that is 0, infinite or NaN gives
    the constant envelope: the gap -log(1 - u_gap)/lam_bar and the bound
    lam_bar, bit for bit.
    """
    e = -math.log1p(-u_gap)
    if not 0.0 < slope < math.inf:
        return e / lam_bar, lam_bar
    tau = 0.0
    h = lam_min + g0  # the bound where the ramp starts
    if g0 < 0.0:
        tau = -g0 / slope
        flat = lam_min * tau
        if e <= flat:
            return e / lam_min, lam_min
        e -= flat
        h = lam_min
    d = 2.0 * e / (h + math.sqrt(h * h + 2.0 * slope * e))
    lam = h + slope * d
    if lam < lam_bar:  # the gap ends on the ramp
        return tau + d, lam
    if h < lam_bar:
        ramp = (lam_bar - h) / slope
        e -= 0.5 * (h + lam_bar) * ramp
        tau += ramp
    return tau + e / lam_bar, lam_bar


def _drive(cfg: SIVJPConfig, certified: float,
           drift: Callable[[float, float, float, float, float], float] | None = None,
           jumps: list | None = None):
    """The thinning loop of both modes and of simulate_telegraph, capped at
    the envelope lam_bar: the certified bound, or cfg.lambda_bar_override.

    With drift None the drift is the moment mode's
    U'(x) + rho*(a sin x - b cos x), computed inline, and proposals come
    from the local envelope (the module docstring, with local_clock
    inlined) unless cfg.lambda_bar_override pins the constant lam_bar;
    otherwise it is drift(x_prev, y, tau, x, t), called once per proposal
    after the flight leg of length tau from x_prev to x (now at time t),
    with y the float +-1.0, under the constant lam_bar. A jumps list
    receives t, x, y at each accepted flip, y the float velocity after it:
    the jump skeleton, flat, so that it holds no containers for the garbage
    collector to traverse.

    Returns (rec, x, y, t, n_events, n_proposals), where rec holds the
    snapshot columns and (x, y, t) is the state at the last proposal; y is
    an int in both.
    """
    model = cfg.model
    lam_bar = thinning_envelope(certified, cfg.lambda_bar_override)
    lam_min = model.lambda_min
    tol = 1.0 + ROUNDOFF_TOL
    rho = model.rho
    du = model.potential.dv_scalar
    slope0 = slope_w = math.inf
    if drift is None and cfg.lambda_bar_override is None:
        # the local envelope's slope at weight w is slope0 + slope_w / w;
        # slope0 is its limit, which envelope_slope judges
        slope0 = envelope_slope(lam_min, lam_bar, model.potential.ddv_sup + abs(rho))
        slope_w = abs(rho)
    local = slope0 < math.inf
    lam = lam_bar  # the bound at the proposal: constant unless local
    budget = proposal_budget(lam_bar, cfg.t_end)

    gen = derive_stream(cfg.seed)
    # y is held as the float +-1.0, so every product with it is float x
    # float, with the same bits as the int +-1; it leaves the loop as an int
    if cfg.z0 is not None:
        x, y = wrap(cfg.z0.x), float(cfg.z0.y)
    else:
        x, y = gen.random() * TWO_PI, 1.0
    draws = uniform_pairs(gen)
    a, b = cfg.mu0
    r = cfg.r
    t = 0.0
    t_end = cfg.t_end

    snaps = cfg.snapshot_times().tolist()
    snap_idx = 0
    next_snap = snaps[0]
    rec: tuple[list, list, list, list, list] = ([], [], [], [], [])
    n_events = 0
    n_prop = 0
    sin = math.sin
    cos = math.cos
    log1p = math.log1p
    sqrt = math.sqrt
    fmod = math.fmod
    sx, cx = sin(x), cos(x)  # at the leg start: for the drift and the next update
    # V'(x) at the leg start: y*v is the local envelope's intercept
    v = du(x) + rho * (a * sx - b * cx) if drift is None else 0.0

    for u_gap, u_acc in draws:
        w = r + t
        e = -log1p(-u_gap)
        if not local:
            tau = e / lam_bar
        else:
            # local_clock inlined, the same operations in the same
            # order: flat at lam_min, then a ramp, then the cap lam_bar
            g0 = y * v
            slope = slope0 + slope_w / w
            if g0 < 0.0 and e <= (flat := lam_min * (ramp0 := -g0 / slope)):
                tau = e / lam_min
                lam = lam_min
            else:
                tau = 0.0
                h = lam_min + g0  # the bound where the ramp starts
                if g0 < 0.0:
                    tau = ramp0
                    e -= flat
                    h = lam_min
                d = 2.0 * e / (h + sqrt(h * h + 2.0 * slope * e))
                lam = h + slope * d
                if lam < lam_bar:  # the gap ends on the ramp
                    tau += d
                else:
                    if h < lam_bar:
                        ramp = (lam_bar - h) / slope
                        e -= 0.5 * (h + lam_bar) * ramp
                        tau += ramp
                    tau += e / lam_bar
                    lam = lam_bar
        t_next = t + tau
        if t_next >= next_snap:
            snap_idx = _record_due(rec, snaps, snap_idx, t_next, r, t, x, y, a, b)
            if t_next >= t_end:
                break
            next_snap = snaps[snap_idx]
        # _advance inlined: one Python call less per proposal
        x_prev = x
        xs = x + y * tau
        s1 = sin(xs)
        c1 = cos(xs)
        a = (w * a + y * (s1 - sx)) / (w + tau)
        b = (w * b - y * (c1 - cx)) / (w + tau)
        if 0.0 <= xs < TWO_PI:  # fmod would return xs itself
            x, sx, cx = xs, s1, c1
        else:
            # wrap inlined: xs is finite under a finite envelope
            x = fmod(xs, TWO_PI)
            if x < 0.0:
                x += TWO_PI
                if x >= TWO_PI:  # a tiny negative xs rounds up to 2*pi
                    x -= TWO_PI
            sx, cx = sin(x), cos(x)
        t = t_next
        n_prop += 1
        if n_prop > budget:
            raise RunawayRateError("self-interacting engine: proposal budget exceeded")
        if drift is None:
            v = du(x) + rho * (a * sx - b * cx)
        else:
            v = drift(x_prev, y, tau, x, t)
        yd = y * v
        rate = lam_min + (yd if yd > 0.0 else 0.0)
        if u_acc * lam < rate:
            if rate > lam * tol:  # always accepted, so checking here is enough
                raise RunawayRateError(f"self-interacting engine: jump rate {rate!r} "
                                       f"exceeds the envelope {lam!r}")
            y = -y
            n_events += 1
            if jumps is not None:
                jumps += (t, x, y)

    return rec, x, int(y), t, n_events, n_prop


def run_sitp(cfg: SIVJPConfig) -> MomentTrace:
    """Exact moment-mode simulation of the self-interacting telegraph process.

    With rho = 0 the interaction vanishes and this is the plain telegraph
    process: simulate_telegraph runs the same loop on the same draws, so
    matched seeds reproduce it exactly. The moments are the whole
    occupation state, so the trace is the whole result.
    """
    cfg.validate()
    rec, _, _, _, n_events, n_prop = _drive(cfg, cfg.model.thinning_bound)
    return _finalize(cfg, rec, n_events, n_prop)


def simulate_telegraph(pot: FrozenPotential, lambda_min: float, z0: TelegraphState,
                       t_end: float, seed: SeedSpec,
                       lambda_bar_override: float | None = None) -> EventLog:
    """Telegraph process on the circle with flip rate lambda_min + (y V'(x))_+.

    It is the moment mode at rho = 0, run on _drive, which records the jump
    skeleton. Proposals come from the local envelope of local_clock, with
    slope pot.ddv_sup and cap lam_bar = lambda_min + pot.dv_sup, where
    envelope_slope predicts it pays, else from the constant lam_bar. An
    override (upward only) pins the constant envelope, e.g. to share a
    proposal skeleton between runs.
    """
    if not t_end > 0.0:
        raise ConfigError("simulate_telegraph: T must be > 0")
    model = ModelSpec(potential=pot, rho=0.0, lambda_min=lambda_min)
    # one snapshot, at t_end: the final state
    cfg = SIVJPConfig(model=model, t_end=t_end, seed=seed, z0=z0, record_stride=t_end,
                      lambda_bar_override=lambda_bar_override)
    jumps: list[float] = []
    rec, _, _, _, _, n_prop = _drive(cfg, model.thinning_bound, jumps=jumps)
    skeleton = np.array(jumps, dtype=float).reshape(-1, 3)
    return EventLog(x0=wrap(z0.x), y0=z0.y,
                    jump_times=skeleton[:, 0], post_x=skeleton[:, 1],
                    post_y=skeleton[:, 2].astype(int), t_final=t_end,
                    x_final=rec[3][-1], y_final=rec[4][-1], n_proposals=n_prop)


def run_sitp_general(w_grid: np.ndarray, dw_grid: np.ndarray,
                     cfg: SIVJPConfig) -> tuple[MomentTrace, np.ndarray]:
    """Histogram-mode simulation for a general symmetric interaction kernel.

    w_grid and dw_grid sample W(x, z) and its x-derivative on the n x n
    nodes of PeriodicGrid(n), n = len(w_grid); the drift at x is the grid
    convolution of dw_grid against the occupation histogram on that grid,
    with piecewise-linear interpolation in x. The histogram carries the
    uniform initial mass r plus each leg's exact sojourn masses
    (geometry.arc_sojourn), so the only bias is the cell-width smearing of
    the kernel, of the order of the grid spacing. A run starts uniform, so
    cfg.mu0 must be (0, 0).

    The exterior potential must be baked into the kernel
    (W = U(x) + Wint(x, z) + U(z)); cfg.model contributes lambda_min and
    rho is ignored here.

    Returns (trace, hist), where hist holds the final occupation measure
    as cell masses summing to 1.
    """
    cfg.validate()
    if any(cfg.mu0):
        raise ConfigError("run_sitp_general: a general-mode run starts uniform, "
                          "so mu0 must be (0, 0)")
    grid = PeriodicGrid(len(w_grid))
    n = grid.n
    w_grid = np.asarray(w_grid, dtype=float)
    dw_grid = np.asarray(dw_grid, dtype=float)
    if w_grid.shape != (n, n) or dw_grid.shape != (n, n):
        raise ConfigError("run_sitp_general: kernel grids must both be n x n")
    asym = float(np.max(np.abs(w_grid - w_grid.T)))
    if asym > 1e-12:
        raise ConfigError(f"run_sitp_general: kernel is not symmetric (max {asym:.2e})")
    r = cfg.r
    hist_raw = np.full(n, r / n)  # uniform initial measure of mass r
    inv_h = n / TWO_PI

    def drift(x_prev: float, y: float, tau: float, x: float, t: float) -> float:
        arc_sojourn(x_prev, y, tau, grid, out=hist_raw)
        pos = x * inv_h
        i = int(pos)
        if i >= n:
            i = 0
            pos = 0.0
        frac = pos - i
        i1 = i + 1 if i + 1 < n else 0
        return ((1.0 - frac) * float(dw_grid[i] @ hist_raw)
                + frac * float(dw_grid[i1] @ hist_raw)) / (r + t)

    # the drift averages dw_grid entries (weights hist_raw/(r+t), mass 1)
    certified = cfg.model.lambda_min + float(np.max(np.abs(dw_grid)))
    rec, x, y, t, n_events, n_prop = _drive(cfg, certified, drift=drift)
    arc_sojourn(x, y, cfg.t_end - t, grid, out=hist_raw)
    return _finalize(cfg, rec, n_events, n_prop), hist_raw / hist_raw.sum()


def quadratic_kernel_grids(model: ModelSpec,
                           grid: PeriodicGrid) -> tuple[np.ndarray, np.ndarray]:
    """W(x,z) = U(x) - rho cos(x - z) + U(z) and its x-derivative on the grid."""
    z = grid.nodes
    u_vals = np.asarray(model.potential.v(z), dtype=float)
    du_vals = np.asarray(model.potential.dv(z), dtype=float)
    diff = z[:, None] - z[None, :]
    w = u_vals[:, None] + u_vals[None, :] - model.rho * np.cos(diff)
    dw = du_vals[:, None] + model.rho * np.sin(diff)
    return w, dw
