"""Processes with a frozen potential: the d-torus velocity jump process,
the jump skeleton EventLog that every event-driven run returns, and its
analysis against the invariant density (occupation histogram, total
variation, velocity marginal), plus the package's CSV format.

simulate_torus_vjp uses Poisson thinning under a constant envelope:
proposals arrive at a rate that dominates the true jump rate, and a
proposal at state z is accepted with probability rate(z)/bound. Between
events the motion is free flight, so the law of the output is exactly
that of the jump process -- there is no time-discretization error
anywhere. Exactness needs the bound to dominate, so the loop raises
RunawayRateError on a bounce rate above it (beyond round-off), and past
model.proposal_budget, which its proposal count exceeds with negligible
probability. The d-torus process bounces (direction resampled uniformly
on the sphere of radius |y|) at rate |y||grad V| + y.grad V and refreshes
its whole velocity from a rotation-invariant law q at a constant rate,
which keeps exp(-V) (x) q invariant.

The 1-D telegraph process, which flips its velocity y in {-1, +1} at rate
lambda_min + (y V'(x))_+ and keeps exp(-V) (x) (delta_1 + delta_{-1})/2
invariant, is the self-interacting engine at rho = 0:
engine.simulate_telegraph runs it and returns an EventLog analysed here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from .errors import ConfigError, DomainError, RunawayRateError
from .geometry import DENSITY_GRID, TWO_PI, PeriodicGrid, arc_sojourn, cell_index
from .model import ROUNDOFF_TOL, proposal_budget
from .potentials import FrozenPotential
from .rng import SeedSpec, derive_stream

if TYPE_CHECKING:
    from .equilibria import GridDensity


class _Echo:
    """A file whose write returns its text, so that csv.writer's writerow
    returns the line it formats."""

    def write(self, text: str) -> str:
        return text


def csv_lines(header: list[str], rows) -> Iterator[str]:
    """The package's CSV format, one line at a time: RFC 4180 with CRLF
    line ends, every non-string value written as %.12g and every string
    as it is.

    A row of as many numbers as the header has names is one % format,
    whose output csv.writer would write unquoted; any other row (a string
    cell, another length) goes through csv.writer."""
    writer = csv.writer(_Echo(), lineterminator="\r\n")
    yield writer.writerow(header)
    line = ",".join(["%.12g"] * len(header)) + "\r\n"
    for row in rows:
        cells = tuple(row)
        try:
            text = line % cells
        except TypeError:  # a string or tuple cell, or a row of another length
            text = writer.writerow([v if isinstance(v, str) else "%.12g" % v for v in cells])
        yield text


def csv_text(header: list[str], rows) -> str:
    """The lines of csv_lines as one string."""
    return "".join(csv_lines(header, rows))


def write_csv(path: str, lines: Iterable[str]) -> None:
    """Write the lines of csv_lines to path as they come, so that no CSV
    is ever held whole."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


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
        if np.ndim(self.x0) == 0:
            header = ["t", "x", "y"]
        else:
            d = np.size(self.x0)
            header = (["t"] + [f"x_{i}" for i in range(1, d + 1)]
                      + [f"y_{i}" for i in range(1, d + 1)])
        points = [(0.0, self.x0, self.y0),
                  *zip(self.jump_times, self.post_x, self.post_y),
                  (self.t_final, self.x_final, self.y_final)]
        return csv_text(header, ([v for part in p for v in np.ravel(part)] for p in points))


def simulate_torus_vjp(grad_v: Callable[[np.ndarray], np.ndarray],
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
    """log.segments() as scalars; DomainError for a log in d >= 2."""
    xs, ys, durations = log.segments()
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim == 2 and xs.shape[1] == 1:
        xs, ys = xs[:, 0], ys[:, 0]
    if xs.ndim != 1:
        raise DomainError("only 1-D event logs can be analysed")
    return xs, ys, durations


def occupation_histogram(log: EventLog, grid: PeriodicGrid) -> np.ndarray:
    """Exact time-in-cell masses of the trajectory; sums to t_final.

    Each unit-speed leg is deposited by geometry.arc_sojourn, and each
    motionless leg adds its duration to its cell (geometry.cell_index).
    Speeds must be 0 or 1 (the telegraph case and the d=1 two-speed
    reduction).
    """
    xs, ys, durations = _scalar_segments(log)
    if log.t_final <= 0.0:
        raise DomainError("occupation_histogram: empty trajectory")
    masses = np.zeros(grid.n)
    for x0, y, dt in zip(xs.tolist(), ys.tolist(), durations.tolist()):
        speed = abs(y)
        if speed <= 1e-12:
            masses[cell_index(x0, grid)] += dt
        elif abs(speed - 1.0) > 1e-12:
            raise DomainError("occupation_histogram: speeds must be 0 or 1")
        else:
            arc_sojourn(x0, y, dt, grid, out=masses)
    return masses


def empirical_tv(log: EventLog, target: GridDensity) -> float:
    """Total variation distance between the time-weighted position
    occupation of a trajectory and a grid density."""
    masses = occupation_histogram(log, target.grid)
    empirical = masses / log.t_final
    cell_mass = target.values * target.grid.h
    return 0.5 * float(np.abs(empirical - cell_mass).sum())


def velocity_fraction(log: EventLog) -> float:
    """Fraction of time spent with velocity y = +1 (1-D logs only)."""
    _, ys, durations = _scalar_segments(log)
    return float(durations[ys == 1].sum() / log.t_final)


def ks_uniform(u: np.ndarray) -> float:
    """Kolmogorov-Smirnov statistic of samples in [0, 1] against the
    uniform law: the exponential gaps of a telegraph run after the map
    g -> 1 - exp(-g), or a scan's final angles over 2 pi."""
    u = np.sort(u)
    n = u.size
    return float(max(np.max(np.arange(1, n + 1) / n - u), np.max(u - np.arange(0, n) / n)))
