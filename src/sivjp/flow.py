"""The limiting deterministic flow in moment coordinates and the
pseudotrajectory diagnostic.

The rescaled occupation measure nu_s = mu_{e^s} asymptotically shadows the
flow d(a,b)/ds = Fbar(a,b) on the trigonometric moments. integrate_flow
solves that ODE with a classical 4th-order scheme (self-checked by step
halving); pseudotrajectory_error measures how far a simulated moment trace,
reparametrized to logarithmic time, strays from the flow started on it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .engine import MomentTrace
# fbar is not called here; it stays a module attribute because the
# benchmark's tracer (perfbench/traced.py) wraps flow.fbar.
from .equilibria import _NodeTables, fbar  # noqa: F401
from .errors import ConfigError, DomainError, NumericError
from .geometry import DENSITY_GRID, PeriodicGrid
from .model import ModelSpec

DISK_TOL = 1e-9


@dataclass(frozen=True)
class FlowTrace:
    """Flow-time samples of one integrated trajectory."""

    times: np.ndarray
    points: np.ndarray  # shape (len(times), 2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["s", "a", "b"])
        for s, (a, b) in zip(self.times, self.points):
            writer.writerow(["%.12g" % s, "%.12g" % a, "%.12g" % b])
        return buf.getvalue()


def _rk4_path(tables: _NodeTables, start: np.ndarray, t_flow: float,
              dt: float) -> tuple[np.ndarray, np.ndarray]:
    n_steps = int(math.ceil(t_flow / dt - 1e-12))
    times = np.empty(n_steps + 1)
    points = np.empty((n_steps + 1, 2))
    times[0] = 0.0
    points[0] = start

    def field(p: np.ndarray) -> np.ndarray:
        return np.array(tables.fbar(p[0], p[1]))

    p = start.astype(float).copy()
    s = 0.0
    for k in range(n_steps):
        h = min(dt, t_flow - s)
        k1 = field(p)
        k2 = field(p + 0.5 * h * k1)
        k3 = field(p + 0.5 * h * k2)
        k4 = field(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm = float(np.hypot(p[0], p[1]))
        if norm > 1.0 + 1e-6:
            raise NumericError(f"integrate_flow: trajectory left the unit disk ({norm})")
        if norm > 1.0:  # round-off overshoot: project back
            p = p / norm
        s += h
        times[k + 1] = s
        points[k + 1] = p
    return times, points


def integrate_flow(model: ModelSpec, start: tuple[float, float], t_flow: float,
                   dt: float = 0.01, grid: PeriodicGrid = DENSITY_GRID,
                   self_check: bool = True, check_tol: float = 1e-8) -> FlowTrace:
    """Integrate d(a,b)/ds = Fbar(a,b) from a point of the closed unit disk.

    The default step keeps the scheme far inside its stability region for
    every |rho| <= 40. With self_check on, the trace is recomputed at half
    the step and the two must agree to check_tol in sup norm.
    """
    a0, b0 = start
    if math.hypot(a0, b0) > 1.0 + DISK_TOL:
        raise ConfigError("integrate_flow: start must lie in the closed unit disk")
    if not 0.0 < dt <= 0.1:
        raise ConfigError("integrate_flow: dt must lie in (0, 0.1]")
    if not t_flow > 0.0:
        raise ConfigError("integrate_flow: T_flow must be > 0")
    p0 = np.array([a0, b0], dtype=float)
    tables = _NodeTables(model, grid)
    times, points = _rk4_path(tables, p0, t_flow, dt)
    if self_check:
        _, fine = _rk4_path(tables, p0, t_flow, 0.5 * dt)
        err = float(np.max(np.abs(points - fine[::2])))
        if err > check_tol:
            raise NumericError(
                f"integrate_flow: step-halving check failed (sup error {err:.3e})")
    return FlowTrace(times=times, points=points)


def pseudotrajectory_error(sim: MomentTrace, model: ModelSpec, t_anchor: float,
                           t_window: float, dt: float = 0.01,
                           grid: PeriodicGrid = DENSITY_GRID,
                           min_snapshots: int = 50) -> float:
    """Sup distance between a simulated moment path and the flow over one
    logarithmic-time window.

    The simulation snapshots are reparametrized to flow time s = ln(t) and
    interpolated linearly; the flow is integrated from the interpolated
    anchor point; the result is sup over the window of the Euclidean
    distance between the two moment curves. Euclidean distance on (a, b)
    is the weak-topology test-function metric restricted to cos and sin.
    """
    if not t_window > 0.0:
        raise ConfigError("pseudotrajectory_error: window must be > 0")
    t_lo = math.exp(t_anchor)
    t_hi = math.exp(t_anchor + t_window)
    times = np.asarray(sim.times, dtype=float)
    if times.size == 0 or times[0] > t_lo or times[-1] < t_hi:
        raise DomainError(
            f"pseudotrajectory_error: simulation does not cover [{t_lo:.3g}, {t_hi:.3g}]")
    inside = (times >= t_lo) & (times <= t_hi)
    if int(inside.sum()) < min_snapshots:
        raise DomainError(
            f"pseudotrajectory_error: only {int(inside.sum())} snapshots in the window "
            f"(need >= {min_snapshots})")
    s_sim = np.log(times)
    sim_a = np.asarray(sim.a_vals, dtype=float)
    sim_b = np.asarray(sim.b_vals, dtype=float)

    anchor = np.array([np.interp(t_anchor, s_sim, sim_a),
                       np.interp(t_anchor, s_sim, sim_b)])
    flow = integrate_flow(model, (float(anchor[0]), float(anchor[1])), t_window,
                          dt=dt, grid=grid, self_check=False)
    s_eval = t_anchor + flow.times
    sim_pts = np.stack([np.interp(s_eval, s_sim, sim_a),
                        np.interp(s_eval, s_sim, sim_b)], axis=-1)
    return float(np.max(np.hypot(*(sim_pts - flow.points).T)))
