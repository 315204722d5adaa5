"""Exact event-driven simulation of velocity jump processes with a frozen
potential, plus invariant-density validation.

Both simulators use Poisson thinning with a global rate envelope: proposals
arrive at a constant rate lam_bar that dominates the true jump rate
everywhere, and a proposal at state z is accepted with probability
rate(z)/lam_bar. Between events the motion is free flight, so the law of
the output is exactly that of the jump process -- there is no
time-discretization error anywhere. Exactness needs the envelope to
dominate, so every thinning loop here and in the self-interacting engine
raises RunawayRateError on a jump rate above it (beyond round-off).
thinning_envelope is the one rule for raising a certified envelope by an
override, shared with the engine.

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, RunawayRateError
from .geometry import (DENSITY_GRID, TWO_PI, PeriodicGrid,
                       segments_sojourn, wrap)
from .equilibria import GridDensity, density_from_log
from .potentials import FrozenPotential
from .rng import DrawBuffer, SeedSpec, derive_stream

MAX_PROPOSALS = 10 ** 10
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
    (e.g. to share a proposal skeleton between runs)."""
    if override is None:
        return certified
    if override < certified:
        raise ConfigError("lambda_bar_override must dominate the certified envelope")
    return override


def simulate_telegraph(pot: FrozenPotential, lambda_min: float, z0: TelegraphState,
                       t_end: float, seed: SeedSpec,
                       lambda_bar_override: float | None = None) -> EventLog:
    """Telegraph process on the circle with flip rate lambda_min + (y V'(x))_+.

    Exact thinning under the envelope lam_bar = lambda_min + pot.dv_sup
    (overridable upward, e.g. to share a proposal skeleton between runs).
    """
    if not lambda_min > 0.0:
        raise ConfigError("simulate_telegraph: lambda_min must be > 0")
    if not t_end > 0.0:
        raise ConfigError("simulate_telegraph: T must be > 0")
    lam_bar = thinning_envelope(lambda_min + pot.dv_sup, lambda_bar_override)
    if not lam_bar > 0.0:
        raise ConfigError("simulate_telegraph: thinning envelope must be > 0")

    lam_cap = lam_bar * (1.0 + ROUNDOFF_TOL)
    draws = DrawBuffer(derive_stream(seed))
    dv = pot.dv_scalar
    x = wrap(z0.x)
    y = z0.y
    t = 0.0
    times: list[float] = []
    xs: list[float] = []
    ys: list[int] = []
    n_prop = 0
    while True:
        u_gap, u_acc = draws.pair()
        tau = -math.log1p(-u_gap) / lam_bar
        if t + tau >= t_end:
            x = wrap(x + y * (t_end - t))
            t = t_end
            break
        t += tau
        x = wrap(x + y * tau)
        n_prop += 1
        if n_prop > MAX_PROPOSALS:
            raise RunawayRateError("simulate_telegraph: proposal budget exceeded")
        rate = lambda_min + max(0.0, y * dv(x))
        if u_acc * lam_bar < rate:
            if rate > lam_cap:  # always accepted, so checking here is enough
                raise RunawayRateError(
                    f"simulate_telegraph: jump rate {rate!r} exceeds the envelope {lam_bar!r}")
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
        if n_prop > MAX_PROPOSALS:
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


def velocity_fraction(log: EventLog, value: int = 1) -> float:
    """Fraction of time spent with velocity equal to value (telegraph)."""
    _, ys, durations = log.segments()
    ys = np.asarray(ys, dtype=float).reshape(len(durations), -1)[:, 0]
    return float(durations[ys == value].sum() / log.t_final)
