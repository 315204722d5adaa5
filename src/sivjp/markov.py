"""Exact event-driven simulation of velocity jump processes with a frozen
potential, plus invariant-density validation.

Both simulators use Poisson thinning: proposals arrive at a rate that
dominates the true jump rate, and a proposal at state z is accepted with
probability rate(z)/bound. Between events the motion is free flight, so the
law of the output is exactly that of the jump process -- there is no
time-discretization error anywhere. Exactness needs the bound to dominate,
so every thinning loop here and in the self-interacting engine raises
RunawayRateError on a jump rate above it (beyond round-off).
thinning_envelope is the one rule for raising the certified global
envelope lam_bar by an override, shared with the engine.

The telegraph loops (simulate_telegraph and the engine) propose under the
local envelope of local_clock. Along a flight leg the rate is
lambda_min + g(s)_+ with g(s) = y V'(x(s)), and |g'| <= slope, so

    bound(s) = min(lambda_min + max(g0 + slope*s, 0), lam_bar)

dominates it, where g0 = y V'(x) at the last proposal, which the loop has
already computed (Lewis & Shedler 1979; the affine bounds of the Zig-Zag
sampler). Under strong attraction most of the global envelope is waste and
the local one removes it. Its clock costs more per proposal, so
envelope_slope keeps it only where the saving is predicted to repay that;
otherwise, and for an infinite or zero slope, the loops propose under the
constant envelope lam_bar, which a lambda_bar_override pins. The d-torus
loop keeps its constant envelope. Every run stops with
RunawayRateError past proposal_budget, which its proposal count exceeds
with negligible probability, since that count is dominated by
Poisson(lam_bar * T).

The 1-D telegraph process flips its velocity y in {-1, +1} at rate
lambda_min + (y V'(x))_+, which keeps exp(-V) (x) (delta_1 + delta_{-1})/2
invariant. The d-torus process bounces (direction resampled uniformly on
the sphere of radius |y|) at rate |y||grad V| + y.grad V and refreshes its
whole velocity from a rotation-invariant law q at a constant rate, which
keeps exp(-V) (x) q invariant.
"""

from __future__ import annotations

import csv
import io
import math
from math import inf, log1p, sqrt
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigError, DomainError, RunawayRateError
from .geometry import (DENSITY_GRID, TWO_PI, PeriodicGrid,
                       segments_sojourn, wrap)
from .potentials import FrozenPotential
from .rng import SeedSpec, derive_stream, uniform_pairs

if TYPE_CHECKING:
    from .equilibria import GridDensity

# the proposal budget: BUDGET_SIGMAS standard deviations and BUDGET_SLACK
# proposals above the mean of the dominating Poisson(lam_bar * T) count
BUDGET_SIGMAS = 10.0
BUDGET_SLACK = 100.0
# the local envelope is used where it is predicted to make at most this
# fraction of the constant envelope's proposals: its clock costs about a
# third of a proposal more, so a smaller saving does not repay it
LOCAL_MAX_RATIO = 0.7
# relative round-off allowance on exact invariants: the unit disk of the
# occupation moments and the domination of the jump rate by the envelope
ROUNDOFF_TOL = 1e-12


@dataclass(frozen=True)
class TelegraphState:
    x: float
    y: int

    def __post_init__(self) -> None:
        if self.y not in (-1, 1):
            raise ConfigError(f"TelegraphState: y must be -1 or +1, got {self.y}")


@dataclass(frozen=True)
class TorusVJPState:
    x: np.ndarray  # angles, shape (d,)
    y: np.ndarray  # velocity, shape (d,)


@dataclass
class EventLog:
    """Jump skeleton of one run: accepted jumps only.

    Positions are continuous across jumps -- each row stores the jump time,
    the (unchanged) position and the post-jump velocity. x0/y0 and the
    final row complete the piecewise-linear trajectory.
    """

    x0: object
    y0: object
    jump_times: np.ndarray
    post_x: np.ndarray
    post_y: np.ndarray
    t_final: float
    x_final: object
    y_final: object
    n_proposals: int = 0

    def segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(start position, velocity, duration) of each free-flight leg (1-D)."""
        t = np.concatenate([[0.0], self.jump_times, [self.t_final]])
        xs = np.concatenate([[self.x0], self.post_x])
        ys = np.concatenate([[self.y0], self.post_y])
        return xs, ys, np.diff(t)

    def to_csv(self) -> str:
        """The skeleton as CSV rows: start, one row per jump, final state.

        Columns are t, x, y for scalar positions (the telegraph process) and
        t, x_1..x_d, y_1..y_d for positions in the d-torus.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        if np.ndim(self.x0) == 0:
            writer.writerow(["t", "x", "y"])
        else:
            d = np.size(self.x0)
            writer.writerow(["t"] + [f"x_{i}" for i in range(1, d + 1)]
                            + [f"y_{i}" for i in range(1, d + 1)])

        def row(t, x, y):
            writer.writerow(["%.12g" % v for part in (t, x, y) for v in np.ravel(part)])

        row(0.0, self.x0, self.y0)
        for t, x, y in zip(self.jump_times, self.post_x, self.post_y):
            row(t, x, y)
        row(self.t_final, self.x_final, self.y_final)
        return buf.getvalue()


def thinning_envelope(certified: float, override: float | None) -> float:
    """The thinning envelope: the certified bound, or an override above it
    (e.g. to share a proposal skeleton between runs).

    It must be finite and > 0. An infinite envelope makes every gap 0, so
    a run never reaches its end time; a NaN one makes the clock NaN. The
    thinning loops rely on it: with it, every gap and position they see
    is finite.
    """
    lam = certified if override is None else override
    if not (math.isfinite(lam) and lam > 0.0):
        name = "certified" if override is None else "lambda_bar_override"
        raise ConfigError(f"thinning envelope must be finite and > 0, got {name} {lam!r}")
    if not lam >= certified:
        raise ConfigError("lambda_bar_override must dominate the certified envelope")
    return lam


def proposal_budget(lam_bar: float, t_end: float) -> int:
    """The most proposals a run of length t_end under lam_bar may make.

    Every proposal rate is at most lam_bar, so the count is dominated by
    Poisson(lam_bar * t_end); passing its mean by BUDGET_SIGMAS standard
    deviations means the loop does not advance.
    """
    mean = lam_bar * t_end
    return int(mean + BUDGET_SIGMAS * sqrt(mean) + BUDGET_SLACK)  # an int compares faster


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
    if not 0.0 < slope < inf:
        return inf
    ramp = min((lam_bar - lam_min) / slope, 50.0 / lam_min)  # exp(-50) is nil
    s = np.linspace(0.0, ramp, 1025)
    survival = np.exp(-(lam_min + 0.5 * slope * s) * s)  # exp(-Lambda) on the ramp
    e_gap = (s[1] * (survival.sum() - 0.5 * (survival[0] + survival[-1]))
             + survival[-1] / lam_bar)
    return slope if 1.0 / (lam_bar * e_gap) <= LOCAL_MAX_RATIO else inf


def local_clock(u_gap: float, g0: float, slope: float, lam_min: float,
                lam_bar: float) -> tuple[float, float]:
    """The gap to the next proposal and the bound at it, from one uniform.

    The gap solves int_0^tau bound(s) ds = -log(1 - u_gap) in closed form
    for bound(s) = min(lam_min + max(g0 + slope*s, 0), lam_bar), in three
    stretches: flat at lam_min while g0 + slope*s < 0, then a linear ramp
    up to lam_bar, then constant. A slope that is 0, infinite or NaN gives
    the constant envelope: the gap -log(1 - u_gap)/lam_bar and the bound
    lam_bar, bit for bit.
    """
    e = -log1p(-u_gap)
    if not 0.0 < slope < inf:
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
    d = 2.0 * e / (h + sqrt(h * h + 2.0 * slope * e))
    lam = h + slope * d
    if lam < lam_bar:  # the gap ends on the ramp
        return tau + d, lam
    if h < lam_bar:
        ramp = (lam_bar - h) / slope
        e -= 0.5 * (h + lam_bar) * ramp
        tau += ramp
    return tau + e / lam_bar, lam_bar


def simulate_telegraph(pot: FrozenPotential, lambda_min: float, z0: TelegraphState,
                       t_end: float, seed: SeedSpec,
                       lambda_bar_override: float | None = None) -> EventLog:
    """Telegraph process on the circle with flip rate lambda_min + (y V'(x))_+.

    Exact thinning under the local envelope of local_clock, with slope
    pot.ddv_sup and cap lam_bar = lambda_min + pot.dv_sup, where
    envelope_slope predicts it pays, else under the constant lam_bar. An
    override (upward only) pins the constant envelope, e.g. to share a
    proposal skeleton between runs.
    """
    if not lambda_min > 0.0:
        raise ConfigError("simulate_telegraph: lambda_min must be > 0")
    if not t_end > 0.0:
        raise ConfigError("simulate_telegraph: T must be > 0")
    lam_bar = thinning_envelope(lambda_min + pot.dv_sup, lambda_bar_override)
    slope = inf if lambda_bar_override is not None else envelope_slope(
        lambda_min, lam_bar, pot.ddv_sup)
    local = slope < inf
    lam = lam_bar  # the bound at the proposal: constant unless local
    budget = proposal_budget(lam_bar, t_end)

    tol = 1.0 + ROUNDOFF_TOL
    draws = uniform_pairs(derive_stream(seed))
    dv = pot.dv_scalar
    clock = local_clock
    log1p = math.log1p
    fmod = math.fmod
    x = wrap(z0.x)
    y = z0.y
    d = dv(x)  # V'(x) at the last proposal: y*d is the local envelope's intercept
    t = 0.0
    times: list[float] = []
    xs: list[float] = []
    ys: list[int] = []
    n_prop = 0
    for u_gap, u_acc in draws:
        if local:
            tau, lam = clock(u_gap, y * d, slope, lambda_min, lam_bar)
        else:  # local_clock's constant case, inlined
            tau = -log1p(-u_gap) / lam_bar
        if t + tau >= t_end:
            x = wrap(x + y * (t_end - t))
            t = t_end
            break
        t += tau
        # wrap inlined: x and tau are finite under a finite envelope
        x = fmod(x + y * tau, TWO_PI)
        if x < 0.0:
            x += TWO_PI
            if x >= TWO_PI:  # a tiny negative x rounds up to 2*pi
                x -= TWO_PI
        n_prop += 1
        if n_prop > budget:
            raise RunawayRateError("simulate_telegraph: proposal budget exceeded")
        d = dv(x)
        rate = lambda_min + max(0.0, y * d)
        if u_acc * lam < rate:
            if rate > lam * tol:  # always accepted, so checking here is enough
                raise RunawayRateError(
                    f"simulate_telegraph: jump rate {rate!r} exceeds the envelope {lam!r}")
            y = -y
            times.append(t)
            xs.append(x)
            ys.append(y)
    return EventLog(x0=wrap(z0.x), y0=z0.y,
                    jump_times=np.array(times), post_x=np.array(xs),
                    post_y=np.array(ys, dtype=int), t_final=t_end,
                    x_final=x, y_final=y, n_proposals=n_prop)


def simulate_torus_vjp(v: Callable[[np.ndarray], float],
                       grad_v: Callable[[np.ndarray], np.ndarray],
                       grad_sup: float,
                       q_sampler: Callable[[np.random.Generator], np.ndarray],
                       speed_sup: float,
                       lambda_bar: float,
                       z0: TorusVJPState,
                       t_end: float,
                       seed: SeedSpec) -> EventLog:
    """Velocity jump process on the d-torus with bounce + refreshment jumps.

    grad_sup must dominate sup|grad V| and speed_sup the largest speed in
    the support of q; together they certify the thinning envelope
    lambda_bar + 2*speed_sup*grad_sup, and a bounce rate above
    2*speed_sup*grad_sup raises RunawayRateError. On a bounce the direction is
    resampled uniformly on the sphere of radius |y| (normalized Gaussians);
    on a refreshment y is redrawn from q.
    """
    if not lambda_bar > 0.0:
        raise ConfigError("simulate_torus_vjp: lambda_bar must be > 0")
    if not t_end > 0.0:
        raise ConfigError("simulate_torus_vjp: T must be > 0")
    gen = derive_stream(seed)
    x = np.mod(np.asarray(z0.x, dtype=float), TWO_PI)
    y = np.asarray(z0.y, dtype=float).copy()
    d = x.size
    bounce_sup = 2.0 * speed_sup * grad_sup
    bounce_cap = bounce_sup * (1.0 + ROUNDOFF_TOL)
    lam_tot = lambda_bar + bounce_sup
    budget = proposal_budget(lam_tot, t_end)
    t = 0.0
    times: list[float] = []
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    n_prop = 0
    while True:
        tau = -math.log1p(-gen.random()) / lam_tot
        if t + tau >= t_end:
            x = np.mod(x + y * (t_end - t), TWO_PI)
            t = t_end
            break
        t += tau
        x = np.mod(x + y * tau, TWO_PI)
        n_prop += 1
        if n_prop > budget:
            raise RunawayRateError("simulate_torus_vjp: proposal budget exceeded")
        grad = np.asarray(grad_v(x), dtype=float)
        speed = float(np.linalg.norm(y))
        lam1 = speed * float(np.linalg.norm(grad)) + float(y @ grad)
        if lam1 > bounce_cap:
            raise RunawayRateError(
                f"simulate_torus_vjp: bounce rate {lam1!r} exceeds its envelope {bounce_sup!r}")
        u = gen.random() * lam_tot
        if u < lam1:
            # bounce: uniform direction on the sphere of radius |y|
            g = gen.standard_normal(d)
            norm = float(np.linalg.norm(g))
            while norm == 0.0:
                g = gen.standard_normal(d)
                norm = float(np.linalg.norm(g))
            y = speed * g / norm
        elif u < lam1 + lambda_bar:
            y = np.asarray(q_sampler(gen), dtype=float)
        else:
            continue
        times.append(t)
        xs.append(x.copy())
        ys.append(y.copy())
    return EventLog(x0=np.mod(np.asarray(z0.x, dtype=float), TWO_PI),
                    y0=np.asarray(z0.y, dtype=float),
                    jump_times=np.array(times),
                    post_x=np.array(xs) if xs else np.empty((0, d)),
                    post_y=np.array(ys) if ys else np.empty((0, d)),
                    t_final=t_end, x_final=x, y_final=y, n_proposals=n_prop)


def invariant_density(pot: FrozenPotential,
                      grid: PeriodicGrid = DENSITY_GRID) -> GridDensity:
    """exp(-V)/Z on the grid; V is min-shifted before exponentiation."""
    from .equilibria import density_from_log
    return density_from_log(-np.asarray(pot.v(grid.nodes), dtype=float), grid)


def _scalar_segments(log: EventLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xs, ys, durations = log.segments()
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim == 2 and xs.shape[1] == 1:
        xs, ys = xs[:, 0], ys[:, 0]
    if xs.ndim != 1:
        raise DomainError("empirical_tv: only 1-D event logs can be binned")
    return xs, ys, durations


def occupation_histogram(log: EventLog, grid: PeriodicGrid) -> np.ndarray:
    """Exact time-in-cell masses of the trajectory; sums to t_final.

    Cell crossing times are computed analytically from the piecewise-linear
    motion, so there is no sub-sampling bias. Velocities must have unit
    speed (the telegraph case and the d=1 two-speed reduction).
    """
    xs, ys, durations = _scalar_segments(log)
    if log.t_final <= 0.0:
        raise DomainError("occupation_histogram: empty trajectory")
    speeds = np.abs(ys)
    moving = speeds > 1e-12
    if np.any(np.abs(speeds[moving] - 1.0) > 1e-12):
        raise DomainError("occupation_histogram: speeds must be 0 or 1")
    masses = segments_sojourn(xs[moving], np.sign(ys[moving]), durations[moving], grid)
    # motionless legs sit in a single cell
    for x0, dt in zip(xs[~moving], durations[~moving]):
        k = int(round(x0 / grid.h)) % grid.n
        masses[k] += dt
    return masses


def empirical_tv(log: EventLog, target: GridDensity) -> float:
    """Total variation distance between the time-weighted position
    occupation of a trajectory and a grid density."""
    masses = occupation_histogram(log, target.grid)
    empirical = masses / log.t_final
    cell_mass = target.values * target.grid.h
    return 0.5 * float(np.abs(empirical - cell_mass).sum())


def velocity_fraction(log: EventLog) -> float:
    """Fraction of time spent with velocity y = +1 (telegraph)."""
    _, ys, durations = log.segments()
    ys = np.asarray(ys, dtype=float).reshape(len(durations), -1)[:, 0]
    return float(durations[ys == 1].sum() / log.t_final)
