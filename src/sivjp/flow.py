"""The limiting deterministic flow in moment coordinates and the
pseudotrajectory diagnostic.

The rescaled occupation measure nu_s = mu_{e^s} asymptotically shadows the
flow d(a,b)/ds = Fbar(a,b) on the trigonometric moments. integrate_flow
solves that ODE with the Dormand-Prince 5(4) pair, stepped adaptively at
a local error of FLOW_TOL and read at multiples of dt by its dense output,
and checks the rows against a second run at CHECK_RUN_TOL (_dopri);
pseudotrajectory_error measures how far a simulated moment trace,
reparametrized to logarithmic time, strays from the flow started on it,
and integrates that flow through integrate_flow, so its flow is checked too.
Both evaluate Fbar on equilibria.field_grid(model): the fewest nodes
(64 to 512) whose quadrature error bound, from the potential's harmonic
amplitudes and rho, stays below 1e-17. _window_fault is the one rule for
which windows count; shadow_anchors applies it for `sivjp shadow`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

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
FLOW_TOL = 1e-13  # local error per step of the returned run, in sup norm
CHECK_RUN_TOL = 1e-11  # the same for the run that checks it
CHECK_TOL = 1e-8  # sup-norm gap allowed between the rows of the two runs
MIN_SNAPSHOTS = 50  # simulation snapshots pseudotrajectory_error needs in its window
SHADOW_WINDOW = 2.0  # flow-time length of each window of shadow_anchors
MAX_FLOW_STEPS = 1_000_000  # rows of a flow, and steps of each run, rejected ones included


@dataclass(frozen=True)
class FlowTrace:
    """Flow-time samples of one integrated trajectory."""

    times: np.ndarray
    points: np.ndarray  # shape (len(times), 2)

    def to_csv(self) -> str:
        return csv_text(["s", "a", "b"], zip(self.times, *self.points.T))


def _onto_disk(pa: float, pb: float) -> tuple[float, float]:
    """A point past radius 1: NumericError beyond 1 + 1e-6 of the origin,
    else projected back onto the unit circle."""
    norm = math.hypot(pa, pb)
    if norm > 1.0 + 1e-6:
        raise NumericError(f"integrate_flow: trajectory left the unit disk ({norm})")
    return pa / norm, pb / norm


def _dopri(field: Callable[[float, float], tuple[float, float]], pa: float, pb: float,
           times: list[float], tol: float) -> list[tuple[float, float]]:
    """The flow from (pa, pb) at `times`, which start at 0 and do not
    decrease: one Dormand-Prince 5(4) run on Python floats.

    Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.6 (DOPRI5): the
    5th-order solution is carried, a step is accepted when the embedded
    error estimate is at most tol in sup norm, and the next step is
    h * min(5, 0.9 err^-1/5), at least h / 5 after a rejection. The last
    stage is the field at the step's end, so it is the next step's first
    (FSAL): 6 evaluations a step. A step's end past radius 1 goes through
    _onto_disk, and the field is evaluated again at the projected point.
    The rows are the continuous extension (contd5) at the times within a
    step, each through _onto_disk when past radius 1. More than
    MAX_FLOW_STEPS steps, or a step so small that it no longer moves the
    time, raises NumericError.
    """
    rows, n = [(pa, pb)], 1
    if n == len(times):  # a horizon within 1e-12 dt of 0: the start alone
        return rows
    t_end, hypot = times[-1], math.hypot
    t, h = 0.0, times[1]
    k1a, k1b = field(pa, pb)
    for _ in range(MAX_FLOW_STEPS):
        if h >= t_end - t:
            h, t_next = t_end - t, t_end
        else:
            t_next = t + h
        k2a, k2b = field(pa + h * (1 / 5 * k1a), pb + h * (1 / 5 * k1b))
        k3a, k3b = field(pa + h * (3 / 40 * k1a + 9 / 40 * k2a),
                         pb + h * (3 / 40 * k1b + 9 / 40 * k2b))
        k4a, k4b = field(pa + h * (44 / 45 * k1a - 56 / 15 * k2a + 32 / 9 * k3a),
                         pb + h * (44 / 45 * k1b - 56 / 15 * k2b + 32 / 9 * k3b))
        k5a, k5b = field(
            pa + h * (19372 / 6561 * k1a - 25360 / 2187 * k2a + 64448 / 6561 * k3a
                      - 212 / 729 * k4a),
            pb + h * (19372 / 6561 * k1b - 25360 / 2187 * k2b + 64448 / 6561 * k3b
                      - 212 / 729 * k4b))
        k6a, k6b = field(
            pa + h * (9017 / 3168 * k1a - 355 / 33 * k2a + 46732 / 5247 * k3a
                      + 49 / 176 * k4a - 5103 / 18656 * k5a),
            pb + h * (9017 / 3168 * k1b - 355 / 33 * k2b + 46732 / 5247 * k3b
                      + 49 / 176 * k4b - 5103 / 18656 * k5b))
        ya = pa + h * (35 / 384 * k1a + 500 / 1113 * k3a + 125 / 192 * k4a
                       - 2187 / 6784 * k5a + 11 / 84 * k6a)
        yb = pb + h * (35 / 384 * k1b + 500 / 1113 * k3b + 125 / 192 * k4b
                       - 2187 / 6784 * k5b + 11 / 84 * k6b)
        k7a, k7b = field(ya, yb)
        ea = h * (71 / 57600 * k1a - 71 / 16695 * k3a + 71 / 1920 * k4a
                  - 17253 / 339200 * k5a + 22 / 525 * k6a - 1 / 40 * k7a)
        eb = h * (71 / 57600 * k1b - 71 / 16695 * k3b + 71 / 1920 * k4b
                  - 17253 / 339200 * k5b + 22 / 525 * k6b - 1 / 40 * k7b)
        err = max(abs(ea), abs(eb)) / tol
        if not err <= 1.0:  # rejected; a NaN error too, shrinking by 5
            h *= max(0.2, 0.9 * err ** -0.2)
            if not t + h > t:
                raise NumericError(f"integrate_flow: step size collapsed at s = {t!r}")
            continue
        if times[n] <= t_next:  # rows in this step: contd5's coefficients
            da, db = ya - pa, yb - pb
            ba, bb = h * k1a - da, h * k1b - db
            ca, cb = da - h * k7a - ba, db - h * k7b - bb
            qa = h * (-12715105075 / 11282082432 * k1a + 87487479700 / 32700410799 * k3a
                      - 10690763975 / 1880347072 * k4a + 701980252875 / 199316789632 * k5a
                      - 1453857185 / 822651844 * k6a + 69997945 / 29380423 * k7a)
            qb = h * (-12715105075 / 11282082432 * k1b + 87487479700 / 32700410799 * k3b
                      - 10690763975 / 1880347072 * k4b + 701980252875 / 199316789632 * k5b
                      - 1453857185 / 822651844 * k6b + 69997945 / 29380423 * k7b)
            while times[n] <= t_next:
                u = (times[n] - t) / h
                v = 1.0 - u
                ra = pa + u * (da + v * (ba + u * (ca + v * qa)))
                rb = pb + u * (db + v * (bb + u * (cb + v * qb)))
                rows.append(_onto_disk(ra, rb) if hypot(ra, rb) > 1.0 else (ra, rb))
                n += 1
                if n == len(times):
                    return rows
        if hypot(ya, yb) > 1.0:
            ya, yb = _onto_disk(ya, yb)
            k7a, k7b = field(ya, yb)
        pa, pb, k1a, k1b, t = ya, yb, k7a, k7b, t_next
        h *= min(5.0, 0.9 * max(err, 1e-4) ** -0.2)
    raise NumericError(f"integrate_flow: more than {MAX_FLOW_STEPS} steps")


def check_horizon(t_flow: float, dt: float) -> None:
    """Refuse a step outside (0, 0.1], a horizon that is not finite and
    positive, or more than MAX_FLOW_STEPS rows, with ConfigError."""
    if not 0.0 < dt <= 0.1:
        raise ConfigError("integrate_flow: dt must lie in (0, 0.1]")
    if not 0.0 < t_flow < math.inf:
        raise ConfigError("integrate_flow: T_flow must be finite and > 0")
    if t_flow / dt > MAX_FLOW_STEPS:
        raise ConfigError(f"integrate_flow: T_flow / dt = {t_flow / dt:.3g} exceeds "
                          f"the {MAX_FLOW_STEPS} rows allowed")


def integrate_flow(model: ModelSpec, start: tuple[float, float], t_flow: float,
                   dt: float = 0.01) -> FlowTrace:
    """Integrate d(a,b)/ds = Fbar(a,b) from a point of the closed unit disk,
    with Fbar on equilibria.field_grid(model), and return it at multiples
    of dt, the last row cut at t_flow.

    The rows come from _dopri at FLOW_TOL. The guarantee is the self-check:
    a second run at CHECK_RUN_TOL must agree with it at every row to
    CHECK_TOL in sup norm, else NumericError; dt sets only the rows. A path
    that leaves the unit disk, meets a density check or takes more than
    MAX_FLOW_STEPS steps raises in the run that meets it, the FLOW_TOL run
    first. A horizon of more than MAX_FLOW_STEPS rows is refused before
    any path is built. On flow_demo (zero potential, rho = 4, T_flow = 60)
    the two runs take 4,556 field evaluations, and every row lies within
    3e-12 of a DOP853 reference at rtol 1e-13.
    """
    a0, b0 = start
    if not math.hypot(a0, b0) <= 1.0 + DISK_TOL:  # NaN fails too
        raise ConfigError("integrate_flow: start must lie in the closed unit disk")
    check_horizon(t_flow, dt)
    times, s = [0.0], 0.0
    for _ in range(int(math.ceil(t_flow / dt - 1e-12))):
        s += min(dt, t_flow - s)
        times.append(s)
    field = _NodeTables(model, field_grid(model)).fbar
    a0, b0 = float(a0), float(b0)
    points = np.array(_dopri(field, a0, b0, times, FLOW_TOL))
    gap = float(np.max(np.abs(points - _dopri(field, a0, b0, times, CHECK_RUN_TOL))))
    if gap > CHECK_TOL:
        raise NumericError(f"integrate_flow: self-check failed (sup gap {gap:.3e} "
                           f"between the runs at tolerances {FLOW_TOL} and {CHECK_RUN_TOL})")
    return FlowTrace(times=np.array(times), points=points)


def _window_fault(times: np.ndarray, s: float, w: float) -> str | None:
    """Why the snapshot times fail the window [e^s, e^(s + w)], or None:
    they must cover it and hold MIN_SNAPSHOTS of them in it, ends included.
    The one window rule of pseudotrajectory_error and shadow_anchors."""
    t_lo, t_hi = math.exp(s), math.exp(s + w)
    if times.size == 0 or times[0] > t_lo or times[-1] < t_hi:
        return f"simulation does not cover [{t_lo:.3g}, {t_hi:.3g}]"
    inside = np.count_nonzero((times >= t_lo) & (times <= t_hi))
    if inside < MIN_SNAPSHOTS:
        return f"only {inside} snapshots in the window (need >= {MIN_SNAPSHOTS})"
    return None


def shadow_anchors(times: np.ndarray) -> list[int]:
    """The integer flow times s whose window [e^s, e^(s + SHADOW_WINDOW)]
    pseudotrajectory_error accepts on these snapshot times (increasing,
    positive, not empty), in increasing order."""
    times = np.asarray(times, dtype=float)
    first, last = math.floor(math.log(times[0])), math.ceil(math.log(times[-1]))
    return [s for s in range(first, last + 1) if _window_fault(times, s, SHADOW_WINDOW) is None]


def pseudotrajectory_error(sim: MomentTrace, model: ModelSpec, t_anchor: float,
                           t_window: float, dt: float = 0.01) -> float:
    """Sup distance between a simulated moment path and the flow over one
    logarithmic-time window.

    A non-finite anchor, or a window that is not finite and > 0, is a
    ConfigError; snapshots that fail the window rule (_window_fault) raise
    DomainError. The snapshots are reparametrized to flow time s = ln(t)
    and interpolated linearly; the flow is integrated by integrate_flow,
    with rows every dt, from the interpolated anchor point, so a flow that
    fails its self-check raises NumericError; the result is sup over the
    window of the Euclidean distance between the two moment curves. Euclidean distance on (a, b)
    is the weak-topology test-function metric restricted to cos and sin.
    """
    if not math.isfinite(t_anchor):
        raise ConfigError("pseudotrajectory_error: anchor must be finite")
    if not 0.0 < t_window < math.inf:
        raise ConfigError("pseudotrajectory_error: window must be finite and > 0")
    times = np.asarray(sim.times, dtype=float)
    if (fault := _window_fault(times, t_anchor, t_window)) is not None:
        raise DomainError(f"pseudotrajectory_error: {fault}")
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
