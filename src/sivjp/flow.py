"""The limiting deterministic flow in moment coordinates and the
pseudotrajectory diagnostic.

The rescaled occupation measure nu_s = mu_{e^s} asymptotically shadows the
flow d(a,b)/ds = Fbar(a,b) on the trigonometric moments. integrate_flow
solves that ODE with a classical 4th-order scheme, checked by step halving
in the same loop: each stage of a dt step shares one field evaluation with
a stage of the first of its two half steps (_rk4_lockstep), and the result
is, bit for bit, that of the two passes of _rk4_path, the reference;
pseudotrajectory_error measures how far a simulated moment trace,
reparametrized to logarithmic time, strays from the flow started on it,
and integrates that flow through integrate_flow, so its flow is checked too.
Both evaluate Fbar on equilibria.field_grid(model): the fewest nodes
(64 to 512) whose quadrature error bound, from the potential's harmonic
amplitudes and rho, stays below 1e-17.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .markov import csv_text
# fbar is not called here; it stays a module attribute because the
# benchmark's tracer (perfbench/traced.py) wraps flow.fbar.
from .equilibria import _NodeTables, fbar, field_grid  # noqa: F401
from .errors import ConfigError, DomainError, NumericError
from .model import ModelSpec

if TYPE_CHECKING:
    from .engine import MomentTrace

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
        return csv_text(["s", "a", "b"], zip(self.times, *self.points.T))


def _onto_disk(pa: float, pb: float) -> tuple[float, float]:
    """A step's end: NumericError beyond 1 + 1e-6 of the origin, projected
    back onto the unit circle when round-off took it past 1."""
    norm = math.hypot(pa, pb)
    if norm > 1.0 + 1e-6:
        raise NumericError(f"integrate_flow: trajectory left the unit disk ({norm})")
    if norm > 1.0:
        return pa / norm, pb / norm
    return pa, pb


def _rk4_path(tables: _NodeTables, start: np.ndarray, t_flow: float,
              dt: float, substeps: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 on Python floats, component by component.

    The output steps are dt long, the last one cut at t_flow; each is taken
    as `substeps` equal RK4 steps, so paths with different substeps share
    their output times. Each stage does the arithmetic of the array form
    p + (0.5*h)*k, p + (h/6)*(k1 + 2*k2 + 2*k3 + k4) in the same order.
    math.hypot takes the norm: it may differ from np.hypot in the last ulp,
    and the path is held to the reference loop within round-off, not bit
    for bit. integrate_flow's lockstep loop is held to this one, at
    substeps 1 and 2, bit for bit.
    """
    n_steps = int(math.ceil(t_flow / dt - 1e-12))
    field = tables.fbar
    pa, pb = float(start[0]), float(start[1])
    times, points = [0.0], [(pa, pb)]
    s = 0.0
    for _ in range(n_steps):
        step = min(dt, t_flow - s)
        h = step / substeps
        hh = 0.5 * h
        h6 = h / 6.0
        for _ in range(substeps):
            k1a, k1b = field(pa, pb)
            k2a, k2b = field(pa + hh * k1a, pb + hh * k1b)
            k3a, k3b = field(pa + hh * k2a, pb + hh * k2b)
            k4a, k4b = field(pa + h * k3a, pb + h * k3b)
            pa = pa + h6 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
            pb = pb + h6 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
            pa, pb = _onto_disk(pa, pb)
        s += step
        times.append(s)
        points.append((pa, pb))
    return np.array(times), np.array(points)


def _stage_coefs(step: float) -> tuple[float, ...]:
    """hh, h6 of a step of that length and gh, g6 of its halves g, as
    _rk4_path computes them at substeps 1 and 2."""
    g = step / 2
    return 0.5 * step, step / 6.0, g, 0.5 * g, g / 6.0


def _rk4_lockstep(tables: _NodeTables, start: np.ndarray, t_flow: float,
                  dt: float) -> tuple[np.ndarray, np.ndarray, float]:
    """_rk4_path at substeps 1 and 2 in one loop, bit for bit: the times,
    the dt path's points and the sup-norm gap between the two paths.

    Each dt step moves the dt lane one step and the halving lane two half
    steps. The dt lane's four stages each share one tables.fbar_pair call
    with the matching stage of the halving lane's first half step; the
    second half step's stages call tables.fbar. A step's end goes through
    _onto_disk only past radius 1, where it raises or projects as in
    _rk4_path. The gap is a running max, so the halving path is never
    stored. A lane that fails raises at once;
    integrate_flow then reruns the two passes for the error they raise.
    """
    n_steps = int(math.ceil(t_flow / dt - 1e-12))
    pair, field, hypot = tables.fbar_pair, tables.fbar, math.hypot
    pa, pb = qa, qb = float(start[0]), float(start[1])
    times, points = [0.0], [(pa, pb)]
    s = gap = 0.0
    step = dt
    hh, h6, g, gh, g6 = _stage_coefs(step)
    for _ in range(n_steps):
        if t_flow - s < dt:  # the cut last step: min(dt, t_flow - s)
            step = t_flow - s
            hh, h6, g, gh, g6 = _stage_coefs(step)
        k1a, k1b, j1a, j1b = pair(pa, pb, qa, qb)
        k2a, k2b, j2a, j2b = pair(pa + hh * k1a, pb + hh * k1b, qa + gh * j1a, qb + gh * j1b)
        k3a, k3b, j3a, j3b = pair(pa + hh * k2a, pb + hh * k2b, qa + gh * j2a, qb + gh * j2b)
        k4a, k4b, j4a, j4b = pair(pa + step * k3a, pb + step * k3b,
                                  qa + g * j3a, qb + g * j3b)
        pa = pa + h6 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        pb = pb + h6 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        if hypot(pa, pb) > 1.0:
            pa, pb = _onto_disk(pa, pb)
        qa = qa + g6 * (j1a + 2.0 * j2a + 2.0 * j3a + j4a)
        qb = qb + g6 * (j1b + 2.0 * j2b + 2.0 * j3b + j4b)
        if hypot(qa, qb) > 1.0:
            qa, qb = _onto_disk(qa, qb)
        j1a, j1b = field(qa, qb)
        j2a, j2b = field(qa + gh * j1a, qb + gh * j1b)
        j3a, j3b = field(qa + gh * j2a, qb + gh * j2b)
        j4a, j4b = field(qa + g * j3a, qb + g * j3b)
        qa = qa + g6 * (j1a + 2.0 * j2a + 2.0 * j3a + j4a)
        qb = qb + g6 * (j1b + 2.0 * j2b + 2.0 * j3b + j4b)
        if hypot(qa, qb) > 1.0:
            qa, qb = _onto_disk(qa, qb)
        # gap = max(gap, |pa - qa|, |pb - qb|), by comparisons
        d = pa - qa if pa > qa else qa - pa
        if d > gap:
            gap = d
        d = pb - qb if pb > qb else qb - pb
        if d > gap:
            gap = d
        s += step
        times.append(s)
        points.append((pa, pb))
    return np.array(times), np.array(points), gap


def check_horizon(t_flow: float, dt: float) -> None:
    """Refuse a step outside (0, 0.1], a horizon that is not finite and
    positive, or more than MAX_FLOW_STEPS steps, with ConfigError."""
    if not 0.0 < dt <= 0.1:
        raise ConfigError("integrate_flow: dt must lie in (0, 0.1]")
    if not 0.0 < t_flow < math.inf:
        raise ConfigError("integrate_flow: T_flow must be finite and > 0")
    if t_flow / dt > MAX_FLOW_STEPS:
        raise ConfigError(f"integrate_flow: T_flow / dt = {t_flow / dt:.3g} exceeds "
                          f"the {MAX_FLOW_STEPS} steps allowed")


def integrate_flow(model: ModelSpec, start: tuple[float, float], t_flow: float,
                   dt: float = 0.01) -> FlowTrace:
    """Integrate d(a,b)/ds = Fbar(a,b) from a point of the closed unit disk,
    with Fbar on equilibria.field_grid(model).

    The default step keeps the scheme inside its stability region for
    every |rho| <= 40, but that does not make the path accurate: the
    guarantee is the self-check, which takes each step, the partial last
    one too, also as two half steps; the two paths must agree to
    HALVING_TOL in sup norm, else NumericError. At dt = 0.01 and
    t_flow = 8 that check refuses, e.g., rho = -40 from (0.5, 0) and from
    (0.01, 0.02), rho = 40 from (0.01, 0.02), and cos2 at rho = -10 from
    (0.5, 0); a smaller dt may pass it. A horizon of more than
    MAX_FLOW_STEPS steps is refused before any path is built.

    Both paths run in one loop, _rk4_lockstep, at 8 field evaluations per
    step where two passes took 12. The result is that of the dt pass of
    _rk4_path followed by its halving pass, bit for bit, errors included:
    a path that leaves the unit disk or meets a density check raises as
    that pass would, the dt path's error first.
    """
    a0, b0 = start
    if not math.hypot(a0, b0) <= 1.0 + DISK_TOL:  # NaN fails too
        raise ConfigError("integrate_flow: start must lie in the closed unit disk")
    check_horizon(t_flow, dt)
    p0 = np.array([a0, b0], dtype=float)
    tables = _NodeTables(model, field_grid(model))
    try:
        times, points, err = _rk4_lockstep(tables, p0, t_flow, dt)
    except (DomainError, NumericError):
        # raise what the dt pass, or else the halving pass, raises alone
        _rk4_path(tables, p0, t_flow, dt)
        _rk4_path(tables, p0, t_flow, dt, substeps=2)
        raise
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
    flow is integrated by integrate_flow with step dt from the interpolated
    anchor point, so a flow that fails the step-halving check raises
    NumericError; the result is sup over the window of the Euclidean
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
    if int(inside.sum()) < MIN_SNAPSHOTS:
        raise DomainError(
            f"pseudotrajectory_error: only {int(inside.sum())} snapshots in the window "
            f"(need >= {MIN_SNAPSHOTS})")
    s_sim = np.log(times)
    sim_a = np.asarray(sim.a_vals, dtype=float)
    sim_b = np.asarray(sim.b_vals, dtype=float)

    anchor = np.array([np.interp(t_anchor, s_sim, sim_a),
                       np.interp(t_anchor, s_sim, sim_b)])
    flow = integrate_flow(model, (float(anchor[0]), float(anchor[1])), t_window, dt=dt)
    s_eval = t_anchor + flow.times
    sim_pts = np.stack([np.interp(s_eval, s_sim, sim_a),
                        np.interp(s_eval, s_sim, sim_b)], axis=-1)
    return float(np.max(np.hypot(*(sim_pts - flow.points).T)))
