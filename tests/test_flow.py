import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import RHO_C_COS2, A_STAR_2RHOC, reference_fbar, reference_flow
from sivjp import (SIVJPConfig, SeedSpec, integrate_flow,
                   pseudotrajectory_error, run_sitp, solve_r_of_rho)
from sivjp import flow
from sivjp.engine import MomentTrace, OccupationStats
from sivjp.equilibria import _NodeTables, field_grid
from sivjp.geometry import DENSITY_GRID
from sivjp.errors import ConfigError, DomainError, NumericError
from sivjp.harness import ExperimentConfig, cmd_flow
from sivjp.model import ModelSpec, TelegraphState
from sivjp.potentials import cos2_potential, two_well_potential, zero_potential

FLOW_DEMO = ExperimentConfig.from_file(
    str(Path(__file__).resolve().parents[1] / "configs" / "flow_demo.json"))


def model_zero(rho):
    return ModelSpec(potential=zero_potential(), rho=rho)


def rk4(field, start, t_flow, dt):
    """Classical RK4 in steps of dt, the last one cut at t_flow, each step's
    end projected back onto the unit circle when past radius 1: the rows
    at the steps' ends."""
    p = np.array(start, dtype=float)
    points, s = [p], 0.0
    for _ in range(int(math.ceil(t_flow / dt - 1e-12))):
        h = min(dt, t_flow - s)
        k1 = np.array(field(*p))
        k2 = np.array(field(*(p + 0.5 * h * k1)))
        k3 = np.array(field(*(p + 0.5 * h * k2)))
        k4 = np.array(field(*(p + h * k3)))
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm = float(np.hypot(p[0], p[1]))
        if norm > 1.0:
            p = p / norm
        s += h
        points.append(p)
    return np.array(points)


# (model, start, T_flow, dt) cases that integrate_flow must pass, within
# 1e-10 of the DOP853 reference at every row
CORPUS = {
    "flow_demo": (FLOW_DEMO.build_model(), tuple(FLOW_DEMO.flow["start"]),
                  FLOW_DEMO.flow["T_flow"], FLOW_DEMO.flow["dt"]),
    # five cases that fixed-step RK4 checked by step halving refused at dt = 0.01
    "zero-40_far": (model_zero(-40.0), (0.5, 0.0), 8.0, 0.01),
    "zero-40_near": (model_zero(-40.0), (0.01, 0.02), 8.0, 0.01),
    "zero+40": (model_zero(40.0), (0.01, 0.02), 8.0, 0.01),
    "cos2-10": (ModelSpec(potential=cos2_potential(), rho=-10.0), (0.5, 0.0), 8.0, 0.01),
    "cos2+12": (ModelSpec(potential=cos2_potential(), rho=12.0), (0.01, 0.02), 8.0, 0.01),
    "two_well": (ModelSpec(potential=two_well_potential(), rho=30.0), (0.999, 0.01), 5.0, 0.1),
    "rim": (ModelSpec(potential=cos2_potential(), rho=5.0), (0.999, 0.0), 3.0, 0.01),
    # horizons that are not a whole number of rows
    "partial_zero": (model_zero(4.0), (0.1, 0.0), 1.005, 0.01),
    "partial_cos2": (ModelSpec(potential=cos2_potential(), rho=2.0), (0.1, 0.0), 0.025, 0.01),
    "cos2_coarse": (ModelSpec(potential=cos2_potential(), rho=3.0), (0.3, -0.2), 2.35, 0.1),
    "subcritical": (model_zero(1.0), (0.5, 0.0), 30.0, 0.01),
}


class TestIntegrateFlow:
    def test_equilibrium_is_constant(self):
        r4 = solve_r_of_rho(4.0)
        trace = integrate_flow(model_zero(4.0), (r4, 0.0), 10.0, dt=0.02)
        drift = np.max(np.hypot(trace.points[:, 0] - r4, trace.points[:, 1]))
        assert drift < 1e-9

    def test_subcritical_decay(self):
        trace = integrate_flow(model_zero(1.0), (0.5, 0.0), 30.0)
        radii = np.hypot(trace.points[:, 0], trace.points[:, 1])
        assert np.all(np.diff(radii) <= 1e-12)
        assert radii[-1] < 1e-4
        # linear rate rho/2 - 1 = -1/2 dominates: |m| ~ 0.5 e^{-s/2}
        assert radii[-1] == pytest.approx(0.5 * math.exp(-15.0), rel=0.2)

    def test_supercritical_convergence_to_ring(self):
        r4 = solve_r_of_rho(4.0)
        trace = integrate_flow(model_zero(4.0), (0.1, 0.0), 60.0)
        assert abs(trace.points[-1, 0] - r4) < 1e-6
        assert abs(trace.points[-1, 1]) < 1e-12

    @pytest.mark.parametrize("case", sorted(CORPUS))
    def test_within_reference(self, case):
        model, start, t_flow, dt = CORPUS[case]
        trace = integrate_flow(model, start, t_flow, dt)
        ref = reference_flow(model, start, trace.times)
        assert np.max(np.abs(trace.points - ref)) <= 1e-10

    def test_tables_match_reference_loop(self):
        for model, start in ((model_zero(4.0), (0.1, 0.05)),
                             (ModelSpec(potential=cos2_potential(), rho=3.0), (0.3, -0.2))):
            points = rk4(_NodeTables(model, DENSITY_GRID).fbar, start, 0.5, 0.01)
            ref = rk4(lambda a, b: reference_fbar(model, a, b), start, 0.5, 0.01)
            assert np.max(np.abs(points - ref)) <= 1e-13

    def test_fourth_order_step_scaling(self):
        # the global error of RK4 falls as dt^4
        model = model_zero(4.0)
        field = _NodeTables(model, field_grid(model)).fbar
        start = (0.1, 0.05)
        ref = rk4(field, start, 2.0, 0.0025)
        errs = []
        for dt in (0.04, 0.02):
            points = rk4(field, start, 2.0, dt)
            stride = round(dt / 0.0025)
            errs.append(np.max(np.abs(points - ref[::stride])))
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert 3.5 <= order <= 4.5

    def test_step_halving_check_runs(self):
        trace = integrate_flow(model_zero(2.5), (0.3, -0.2), 5.0, dt=0.05)
        assert trace.points.shape == (101, 2)

    @pytest.mark.parametrize("model, t_flow", [
        (ModelSpec(potential=cos2_potential(), rho=2.0), 0.025),
        (model_zero(4.0), 1.005)], ids=["cos2", "zero"])
    def test_partial_last_step_ends_at_horizon(self, model, t_flow):
        # t_flow / dt has a fractional part in (0, 0.5]: the last row is
        # cut at t_flow, and both runs of the self-check end there
        trace = integrate_flow(model, (0.1, 0.0), t_flow, dt=0.01)
        assert trace.times[-1] == pytest.approx(t_flow, rel=1e-15)
        assert trace.points.shape == (trace.times.size, 2)

    def test_stays_in_disk(self):
        trace = integrate_flow(ModelSpec(potential=cos2_potential(), rho=5.0),
                               (0.999, 0.0), 40.0)
        assert np.all(np.hypot(trace.points[:, 0], trace.points[:, 1])
                      <= 1.0 + 1e-9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            integrate_flow(model_zero(1.0), (1.2, 0.0), 1.0)
        with pytest.raises(ConfigError):
            integrate_flow(model_zero(1.0), (0.0, 0.0), 1.0, dt=0.5)
        # non-finite inputs: an infinite horizon and a NaN start
        with pytest.raises(ConfigError):
            integrate_flow(model_zero(1.0), (0.0, 0.0), math.inf)
        with pytest.raises(ConfigError):
            integrate_flow(model_zero(1.0), (math.nan, 0.0), 1.0)

    def test_csv(self):
        trace = integrate_flow(model_zero(1.0), (0.2, 0.0), 1.0, dt=0.1)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "s,a,b"
        assert len(lines) == trace.times.size + 1

    def test_basin_consistency_double_well(self):
        # all starts converge to one of the two sinks except a thin
        # neighbourhood of the vertical axis (the saddle's stable set)
        model = ModelSpec(potential=cos2_potential(), rho=2.0 * RHO_C_COS2)
        rng = np.random.default_rng(17)
        n_checked = 0
        for _ in range(100):
            a, b = rng.random(2) * 2.0 - 1.0
            if a * a + b * b > 1.0 or abs(a) <= 1e-3:
                continue
            end = integrate_flow(model, (a, b), 50.0, dt=0.05).points[-1]
            d_plus = math.hypot(end[0] - A_STAR_2RHOC, end[1])
            d_minus = math.hypot(end[0] + A_STAR_2RHOC, end[1])
            assert min(d_plus, d_minus) < 1e-4
            n_checked += 1
        assert n_checked > 50


class TestMemory:
    """A flow is held flat, 16 bytes a row for each run and 8 for its
    times, and its CSV is streamed to disk a line at a time."""

    def test_flow_memory_per_row(self, tmp_path, monkeypatch):
        # cmd_flow on flow_demo at T_flow = 600 (60,001 rows, a 2.4 MB CSV),
        # its traced peak restarted once integrate_flow returns
        cfg = dataclasses.replace(FLOW_DEMO, flow={**FLOW_DEMO.flow, "T_flow": 600.0})
        held, integrate = [], flow.integrate_flow

        def integrate_then_restart_peak(*args, **kwargs):
            trace = integrate(*args, **kwargs)
            held.append((trace, *tracemalloc.get_traced_memory()))
            tracemalloc.reset_peak()
            return trace

        monkeypatch.setattr(flow, "integrate_flow", integrate_then_restart_peak)
        tracemalloc.start()
        try:
            path = cmd_flow(cfg, str(tmp_path))
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (trace, current, flow_peak), = held
        rows = trace.times.size
        assert rows == 60_001
        assert flow_peak <= 64 * rows, f"{flow_peak / rows:.1f} bytes a row"
        # writing adds less than 64 KB to the command's peak, and holds no
        # more than 256 KB beyond the trace (csv.writer alone keeps a 128 KB
        # record buffer), so the CSV is never held whole
        assert write_peak - flow_peak < 64 * 1024
        assert write_peak - current < 256 * 1024
        assert Path(path).read_bytes() == trace.to_csv().encode()


def two_pass(tables, start, t_flow, dt):
    """integrate_flow's times and points, or its error, composed from its
    two runs: the FLOW_TOL run, the CHECK_RUN_TOL run, then the sup-norm
    gap between their rows."""
    times, s = [0.0], 0.0
    for _ in range(int(math.ceil(t_flow / dt - 1e-12))):
        s += min(dt, t_flow - s)
        times.append(s)
    a, b = float(start[0]), float(start[1])
    points = np.array(flow._dopri(tables.fbar, a, b, times, flow.FLOW_TOL))
    check = np.array(flow._dopri(tables.fbar, a, b, times, flow.CHECK_RUN_TOL))
    gap = float(np.max(np.abs(points - check)))
    if gap > flow.CHECK_TOL:
        raise NumericError(f"integrate_flow: self-check failed (sup gap {gap:.3e} "
                           f"between the runs at tolerances {flow.FLOW_TOL} and "
                           f"{flow.CHECK_RUN_TOL})")
    return np.array(times), points


def integrated(model, start, t_flow, dt):
    trace = integrate_flow(model, start, t_flow, dt)
    return trace.times, trace.points


def outcome(run):
    """The bytes of a (times, points) result, or the type and text of the
    error that run raised."""
    try:
        times, points = run()
    except (DomainError, NumericError) as exc:
        return type(exc), str(exc)
    return times.tobytes(), points.tobytes()


class FieldTables:
    """Stand-in for _NodeTables with a given field, to steer a path into
    failures that the true field does not produce."""

    def __init__(self, field):
        self.fbar = field


def stand_in(monkeypatch, field):
    """Make integrate_flow evaluate `field` in place of the node tables."""
    tables = FieldTables(field)
    monkeypatch.setattr(flow, "_NodeTables", lambda model, grid: tables)
    return tables


class TestLockstep:
    """integrate_flow returns, bit for bit, the rows of _dopri's FLOW_TOL
    run, or raises, text for text, what its two runs and their comparison
    raise."""

    # the corpus, and a tilted density that underflows at its start
    CASES = {**CORPUS, "underflow": (model_zero(800.0), (0.9, 0.0), 1.0, 0.1)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_two_passes(self, case):
        model, start, t_flow, dt = self.CASES[case]
        tables = _NodeTables(model, field_grid(model))
        want = outcome(lambda: two_pass(tables, start, t_flow, dt))
        assert outcome(lambda: integrated(model, start, t_flow, dt)) == want
        # every case passes but the underflow, which raises pibar's DomainError
        assert (want[0] is DomainError) == (case == "underflow")

    def test_refused_horizon_builds_no_path(self, monkeypatch):
        def no_tables(model, grid):
            raise AssertionError("tables built for a refused horizon")

        monkeypatch.setattr(flow, "_NodeTables", no_tables)
        with pytest.raises(ConfigError, match="rows allowed"):
            integrate_flow(model_zero(1.0), (0.0, 0.0), 1e5, dt=0.01)

    @pytest.mark.parametrize("start", [(1.0, 0.0), (0.6, 0.8)])
    def test_rim_projection(self, monkeypatch, start):
        # a slow outward drift from the unit circle: each step's end and
        # each row lie just past radius 1 and are projected back onto it
        seen = []

        def drift(a, b):
            seen.append(math.hypot(a, b))
            return 1e-7 * a, 1e-7 * b

        tables = stand_in(monkeypatch, drift)
        want = outcome(lambda: two_pass(tables, start, 1.0, 0.1))
        seen.clear()
        assert outcome(lambda: integrated(model_zero(1.0), start, 1.0, 0.1)) == want
        radii = np.hypot(*np.frombuffer(want[1]).reshape(-1, 2).T)
        assert np.all(np.abs(radii - 1.0) < 1e-15)
        # the field is evaluated on the circle at each run's start and again
        # at each projected step end but the last: 3 steps a run here
        assert sum(abs(r - 1.0) < 1e-15 for r in seen) == 6

    def test_tolerances_disagree(self, monkeypatch):
        # a' = 20 a from a = 1e-9: the absolute tolerances leave relative
        # errors near the start that the growth e^20 amplifies, 100 times
        # more in the CHECK_RUN_TOL run
        stand_in(monkeypatch, lambda a, b: (20.0 * a, -b))
        with pytest.raises(NumericError, match=r"integrate_flow: self-check failed \(sup gap"):
            integrate_flow(model_zero(1.0), (1e-9, 0.5), 1.0, 0.1)

    def test_disk_exit(self, monkeypatch):
        # unit speed along a from (-0.5, 0) reaches the rim at s = 1.5
        stand_in(monkeypatch, lambda a, b: (1.0, 0.0))
        with pytest.raises(NumericError, match="left the unit disk"):
            integrate_flow(model_zero(1.0), (-0.5, 0.0), 2.0, 0.1)

    def test_step_size_collapse(self, monkeypatch):
        # unit speed along a, NaN from a = 0 on: a step may end only short
        # of 0, so the steps shrink until they no longer move s
        stand_in(monkeypatch, lambda a, b: (1.0, 0.0) if a < 0.0 else (math.nan, math.nan))
        with pytest.raises(NumericError, match="step size collapsed"):
            integrate_flow(model_zero(1.0), (-0.5, 0.0), 2.0, 0.1)

    def test_rejected_steps_count(self, monkeypatch):
        # a NaN field rejects every step; the cap counts them
        stand_in(monkeypatch, lambda a, b: (math.nan, math.nan))
        monkeypatch.setattr(flow, "MAX_FLOW_STEPS", 100)
        with pytest.raises(NumericError, match="more than 100 steps"):
            integrate_flow(model_zero(1.0), (0.0, 0.0), 1.0, 0.1)

    def test_evaluation_counts_on_flow_demo(self, monkeypatch):
        # the two runs, each 6 evaluations a step tried and one at its start
        calls = []

        def counted(self, a, b, _fbar=_NodeTables.fbar):
            calls.append(None)
            return _fbar(self, a, b)

        monkeypatch.setattr(_NodeTables, "fbar", counted)
        model, start, t_flow, dt = self.CASES["flow_demo"]
        integrate_flow(model, start, t_flow, dt)
        assert len(calls) == 4_556

    def test_shipped_flows_take_the_folded_shift(self, monkeypatch):
        # every field evaluation of these flows shifts by the a-priori bound;
        # one that slid back onto the batched max shift would fail here
        def refuse(self, a, b):
            raise AssertionError(f"batched evaluation taken at ({a!r}, {b!r})")

        monkeypatch.setattr(_NodeTables, "fbar_jacobian_many", refuse)
        shadow = ExperimentConfig.from_file(
            str(Path(__file__).resolve().parents[1] / "configs" / "shadow_demo.json"))
        model, start, _, dt = self.CASES["flow_demo"]
        integrate_flow(model, start, 6.0, dt)
        for shadow_start in ((0.1, 0.0), (0.999, 0.0), (-0.3, 0.6)):
            integrate_flow(shadow.build_model(), shadow_start, 2.0, 0.01)
        integrate_flow(ModelSpec(potential=cos2_potential(), rho=4.0), (0.3, -0.2), 4.0, 0.01)


def still_trace(times):
    """A fake simulation trace at the origin, a fixed point of every
    flow with U = 0, snapshotted at `times`."""
    zeros = np.zeros_like(times)
    return MomentTrace(times=times, a_vals=zeros, b_vals=zeros, x_vals=zeros,
                       y_vals=np.ones_like(times),
                       final=OccupationStats(r=1.0, t=float(times[-1]), a=0.0, b=0.0),
                       final_state=TelegraphState(0.0, 1), n_events=0, n_proposals=0)


class TestPseudotrajectory:
    def test_synthetic_flow_input_has_tiny_error(self):
        model = model_zero(4.0)
        flow = integrate_flow(model, (0.2, 0.1), 8.0, dt=0.005)
        # wrap the flow as a fake simulation trace in process time
        t_proc = np.exp(flow.times)  # anchor at flow time 0 -> t = 1
        fake = MomentTrace(times=t_proc, a_vals=flow.points[:, 0],
                           b_vals=flow.points[:, 1],
                           x_vals=np.zeros_like(t_proc),
                           y_vals=np.ones_like(t_proc),
                           final=OccupationStats(r=1.0, t=float(t_proc[-1]),
                                                 a=float(flow.points[-1, 0]),
                                                 b=float(flow.points[-1, 1])),
                           final_state=TelegraphState(0.0, 1),
                           n_events=0, n_proposals=0)
        err = pseudotrajectory_error(fake, model, 2.0, 3.0, dt=0.005)
        assert err < 1e-7

    def test_error_decays_with_anchor(self):
        model = model_zero(4.0)
        dec = 0
        for k in range(6):
            cfg = SIVJPConfig(model=model, t_end=4e3, seed=SeedSpec(51, k),
                              record_stride=1.02, log_stride=True, record_t0=0.5)
            tr = run_sitp(cfg)
            e_early = pseudotrajectory_error(tr, model, 3.0, 2.0)
            e_late = pseudotrajectory_error(tr, model, 6.0, 2.0)
            dec += e_late < e_early
        assert dec >= 5

    def test_rho_zero_decay_matches_linear_flow(self):
        # with no potential and no interaction the flow contracts moments
        # exponentially (exactly linear dynamics); the occupation moments
        # shadow it up to the Monte Carlo noise floor, measured at ~0.11
        # for this window, so the gate sits just above it
        model = model_zero(0.0)
        errs = []
        for k in range(4):
            cfg = SIVJPConfig(model=model, t_end=2e3, seed=SeedSpec(53, k),
                              mu0=(0.8, 0.0), record_stride=1.03, log_stride=True,
                              record_t0=0.2)
            tr = run_sitp(cfg)
            errs.append(pseudotrajectory_error(tr, model, 5.0, 2.0))
        assert np.median(errs) < 0.15
        assert max(errs) < 0.25

    def test_insufficient_coverage_rejected(self):
        model = model_zero(1.0)
        cfg = SIVJPConfig(model=model, t_end=50.0, seed=SeedSpec(54, 0),
                          record_stride=10.0)
        tr = run_sitp(cfg)
        with pytest.raises(DomainError):
            pseudotrajectory_error(tr, model, 3.0, 2.0)

    @pytest.mark.parametrize("anchor, window, name", [
        (math.nan, 2.0, "anchor"), (math.inf, 2.0, "anchor"), (-math.inf, 2.0, "anchor"),
        (3.0, math.inf, "window"), (3.0, math.nan, "window"), (3.0, 0.0, "window")])
    def test_non_finite_anchor_or_window_rejected(self, anchor, window, name):
        # the trace covers [e^3, e^5] densely, so only the argument is at fault
        fake, model = still_trace(np.exp(np.linspace(0.0, 6.0, 601))), model_zero(4.0)
        assert pseudotrajectory_error(fake, model, 3.0, 2.0) < 1e-9
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            pseudotrajectory_error(fake, model, anchor, window)

    @pytest.mark.parametrize("case", ["start_on_snapshot", "end_on_snapshot",
                                      "one_short", "exactly_enough", "past_largest_float"])
    def test_window_rule_edges(self, case):
        # n snapshots in the window [e^2, e^4], both ends exactly among
        # them; the first two cases add one snapshot past the other end,
        # the last one a snapshot at 1e308, so that shadow_anchors tries
        # windows whose end e^(s + 2) is past the largest float
        n = flow.MIN_SNAPSHOTS - 1 if case == "one_short" else flow.MIN_SNAPSHOTS
        inner = np.exp(np.linspace(2.0, 2.0 + flow.SHADOW_WINDOW, n))
        inner[0], inner[-1] = math.exp(2.0), math.exp(2.0 + flow.SHADOW_WINDOW)
        times = {"start_on_snapshot": np.append(inner, math.exp(4.5)),
                 "end_on_snapshot": np.insert(inner, 0, math.exp(1.5)),
                 "one_short": inner, "exactly_enough": inner,
                 "past_largest_float": np.append(inner, 1e308)}[case]
        model = model_zero(0.0)
        fake = still_trace(times)
        accepted = []
        for s in range(-1, 7):
            try:
                pseudotrajectory_error(fake, model, s, flow.SHADOW_WINDOW)
            except DomainError:
                continue
            accepted.append(s)
        assert flow.shadow_anchors(times) == accepted == ([] if case == "one_short" else [2])
        # a window that ends past the largest float, which no finite trace covers
        if case == "past_largest_float":
            with pytest.raises(DomainError, match="does not cover"):
                pseudotrajectory_error(fake, ModelSpec(), 708.0, 2.0)
        # one ulp inward at the end that falls on a snapshot loses the window
        if case in ("start_on_snapshot", "end_on_snapshot"):
            k = 0 if case == "start_on_snapshot" else -1
            times[k] = np.nextafter(times[k], times[1] if k == 0 else times[-2])
            assert flow.shadow_anchors(times) == []
            with pytest.raises(DomainError, match="does not cover"):
                pseudotrajectory_error(still_trace(times), model, 2, flow.SHADOW_WINDOW)
