"""The limiting deterministic flow in moment coordinates and the
pseudotrajectory diagnostic.

The rescaled occupation measure nu_s = mu_{e^s} asymptotically shadows the
flow d(a,b)/ds = Fbar(a,b) on the trigonometric moments. integrate_flow
solves that ODE with a classical 4th-order scheme (self-checked by step
halving); pseudotrajectory_error measures how far a simulated moment trace,
reparametrized to logarithmic time, strays from the flow started on it.
Both evaluate Fbar on equilibria.field_grid(model): the fewest nodes
(64 to 512) whose quadrature error bound, from the potential's harmonic
amplitudes and rho, stays below 1e-17.
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
from .equilibria import _NodeTables, fbar, field_grid  # noqa: F401
from .errors import ConfigError, DomainError, NumericError
from .model import ModelSpec

DISK_TOL = 1e-9
HALVING_TOL = 1e-8  # sup-norm gap allowed between the dt and dt/2 paths
MIN_SNAPSHOTS = 50  # simulation snapshots pseudotrajectory_error needs in its window
MAX_FLOW_STEPS = 1_000_000  # steps of the dt path; the halving check runs twice as many


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
    """Classical RK4 on Python floats, component by component.

    Each stage does the arithmetic of the array form p + (0.5*h)*k,
    p + (h/6)*(k1 + 2*k2 + 2*k3 + k4) in the same order, so the path is bit
    for bit the one of the array form; np.hypot, not math.hypot, takes the
    norm, since the two can differ in the last ulp.
    """
    n_steps = int(math.ceil(t_flow / dt - 1e-12))
    field = tables.fbar
    pa, pb = float(start[0]), float(start[1])
    times, points = [0.0], [(pa, pb)]
    s = 0.0
    for _ in range(n_steps):
        h = min(dt, t_flow - s)
        hh = 0.5 * h
        k1a, k1b = field(pa, pb)
        k2a, k2b = field(pa + hh * k1a, pb + hh * k1b)
        k3a, k3b = field(pa + hh * k2a, pb + hh * k2b)
        k4a, k4b = field(pa + h * k3a, pb + h * k3b)
        h6 = h / 6.0
        pa = pa + h6 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        pb = pb + h6 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        norm = float(np.hypot(pa, pb))
        if norm > 1.0 + 1e-6:
            raise NumericError(f"integrate_flow: trajectory left the unit disk ({norm})")
        if norm > 1.0:  # round-off overshoot: project back
            pa, pb = pa / norm, pb / norm
        s += h
        times.append(s)
        points.append((pa, pb))
    return np.array(times), np.array(points)


def integrate_flow(model: ModelSpec, start: tuple[float, float], t_flow: float,
                   dt: float = 0.01, self_check: bool = True) -> FlowTrace:
    """Integrate d(a,b)/ds = Fbar(a,b) from a point of the closed unit disk,
    with Fbar on equilibria.field_grid(model).

    The default step keeps the scheme far inside its stability region for
    every |rho| <= 40. With self_check on, the trace is recomputed at half
    the step and the two must agree to HALVING_TOL in sup norm. A horizon of
    more than MAX_FLOW_STEPS steps is refused before any path is built.
    """
    a0, b0 = start
    if not math.hypot(a0, b0) <= 1.0 + DISK_TOL:  # NaN fails too
        raise ConfigError("integrate_flow: start must lie in the closed unit disk")
    if not 0.0 < dt <= 0.1:
        raise ConfigError("integrate_flow: dt must lie in (0, 0.1]")
    if not 0.0 < t_flow < math.inf:
        raise ConfigError("integrate_flow: T_flow must be finite and > 0")
    if t_flow / dt > MAX_FLOW_STEPS:
        raise ConfigError(f"integrate_flow: T_flow / dt = {t_flow / dt:.3g} exceeds "
                          f"the {MAX_FLOW_STEPS} steps allowed")
    p0 = np.array([a0, b0], dtype=float)
    tables = _NodeTables(model, field_grid(model))
    times, points = _rk4_path(tables, p0, t_flow, dt)
    if self_check:
        _, fine = _rk4_path(tables, p0, t_flow, 0.5 * dt)
        err = float(np.max(np.abs(points - fine[::2])))
        if err > HALVING_TOL:
            raise NumericError(
                f"integrate_flow: step-halving check failed (sup error {err:.3e})")
    return FlowTrace(times=times, points=points)


def pseudotrajectory_error(sim: MomentTrace, model: ModelSpec, t_anchor: float,
                           t_window: float, dt: float = 0.01) -> float:
    """Sup distance between a simulated moment path and the flow over one
    logarithmic-time window.

    The simulation snapshots, MIN_SNAPSHOTS or more in the window, are
    reparametrized to flow time s = ln(t) and interpolated linearly; the
    flow is integrated with step dt from the interpolated anchor point;
    the result is sup over the window of the Euclidean distance between
    the two moment curves. Euclidean distance on (a, b) is the
    weak-topology test-function metric restricted to cos and sin.
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
    if int(inside.sum()) < MIN_SNAPSHOTS:
        raise DomainError(
            f"pseudotrajectory_error: only {int(inside.sum())} snapshots in the window "
            f"(need >= {MIN_SNAPSHOTS})")
    s_sim = np.log(times)
    sim_a = np.asarray(sim.a_vals, dtype=float)
    sim_b = np.asarray(sim.b_vals, dtype=float)

    anchor = np.array([np.interp(t_anchor, s_sim, sim_a),
                       np.interp(t_anchor, s_sim, sim_b)])
    flow = integrate_flow(model, (float(anchor[0]), float(anchor[1])), t_window,
                          dt=dt, self_check=False)
    s_eval = t_anchor + flow.times
    sim_pts = np.stack([np.interp(s_eval, s_sim, sim_a),
                        np.interp(s_eval, s_sim, sim_b)], axis=-1)
    return float(np.max(np.hypot(*(sim_pts - flow.points).T)))
