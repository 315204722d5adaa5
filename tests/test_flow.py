import math
from pathlib import Path

import numpy as np
import pytest

from helpers import RHO_C_COS2, A_STAR_2RHOC, reference_fbar
from sivjp import (SIVJPConfig, SeedSpec, integrate_flow,
                   pseudotrajectory_error, run_sitp, solve_r_of_rho)
from sivjp import flow
from sivjp.engine import MomentTrace, OccupationStats
from sivjp.equilibria import _NodeTables, field_grid
from sivjp.geometry import DENSITY_GRID
from sivjp.errors import ConfigError, DomainError, NumericError
from sivjp.harness import ExperimentConfig
from sivjp.model import ModelSpec, TelegraphState
from sivjp.potentials import cos2_potential, two_well_potential, zero_potential

FLOW_DEMO = ExperimentConfig.from_file(
    str(Path(__file__).resolve().parents[1] / "configs" / "flow_demo.json"))


def model_zero(rho):
    return ModelSpec(potential=zero_potential(), rho=rho)


def reference_rk4(model, start, t_flow, dt, grid=DENSITY_GRID):
    """The classical RK4 loop of integrate_flow on the reference field."""
    p = np.array(start, dtype=float)
    points, s = [p], 0.0
    for _ in range(int(math.ceil(t_flow / dt - 1e-12))):
        h = min(dt, t_flow - s)
        k1 = np.array(reference_fbar(model, p[0], p[1], grid))
        k2 = np.array(reference_fbar(model, *(p + 0.5 * h * k1), grid))
        k3 = np.array(reference_fbar(model, *(p + 0.5 * h * k2), grid))
        k4 = np.array(reference_fbar(model, *(p + h * k3), grid))
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm = float(np.hypot(p[0], p[1]))
        if norm > 1.0:
            p = p / norm
        s += h
        points.append(p)
    return np.array(points)


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

    def test_tables_match_reference_loop(self):
        for model, start in ((model_zero(4.0), (0.1, 0.05)),
                             (ModelSpec(potential=cos2_potential(), rho=3.0), (0.3, -0.2))):
            _, points = flow._rk4_path(_NodeTables(model, DENSITY_GRID),
                                       np.array(start), 0.5, 0.01)
            assert np.max(np.abs(points - reference_rk4(model, start, 0.5, 0.01))) <= 1e-13

    def test_fourth_order_step_scaling(self):
        # raw RK4 paths: coarse steps that the halving check would refuse
        model = model_zero(4.0)
        tables = _NodeTables(model, field_grid(model))
        start = np.array([0.1, 0.05])
        _, ref = flow._rk4_path(tables, start, 2.0, 0.0025)
        errs = []
        for dt in (0.04, 0.02):
            _, points = flow._rk4_path(tables, start, 2.0, dt)
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
        # t_flow / dt has a fractional part in (0, 0.5]: the dt/2 path must
        # still be compared at the dt path's output times
        trace = integrate_flow(model, (0.1, 0.0), t_flow, dt=0.01)
        assert trace.times[-1] == pytest.approx(t_flow, rel=1e-15)
        assert trace.points.shape == (trace.times.size, 2)

    @pytest.mark.parametrize("pot, rho, start", [
        (zero_potential(), -40.0, (0.5, 0.0)), (zero_potential(), -40.0, (0.01, 0.02)),
        (zero_potential(), 40.0, (0.01, 0.02)), (cos2_potential(), -10.0, (0.5, 0.0))],
        ids=["zero-40_far", "zero-40_near", "zero+40", "cos2-10"])
    def test_documented_refusals(self, pot, rho, start):
        # the examples of integrate_flow's docstring, at dt = 0.01 and t_flow = 8
        with pytest.raises(NumericError, match="step-halving check failed"):
            integrate_flow(ModelSpec(potential=pot, rho=rho), start, 8.0, dt=0.01)

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
        tables = _NodeTables(model, field_grid(model))
        rng = np.random.default_rng(17)
        n_checked = 0
        for _ in range(100):
            a, b = rng.random(2) * 2.0 - 1.0
            if a * a + b * b > 1.0 or abs(a) <= 1e-3:
                continue
            end = flow._rk4_path(tables, np.array([a, b]), 50.0, 0.05)[1][-1]
            d_plus = math.hypot(end[0] - A_STAR_2RHOC, end[1])
            d_minus = math.hypot(end[0] + A_STAR_2RHOC, end[1])
            assert min(d_plus, d_minus) < 1e-4
            n_checked += 1
        assert n_checked > 50


def two_pass(tables, start, t_flow, dt):
    """integrate_flow's times and points, or its error, from the reference:
    the dt pass, then the dt/2 pass, then the sup-norm gap between them."""
    p0 = np.array(start, dtype=float)
    times, points = flow._rk4_path(tables, p0, t_flow, dt)
    _, fine = flow._rk4_path(tables, p0, t_flow, dt, substeps=2)
    err = float(np.max(np.abs(points - fine)))
    if err > flow.HALVING_TOL:
        raise NumericError(f"integrate_flow: step-halving check failed (sup error {err:.3e})")
    return times, points


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
    """Stand-in for _NodeTables with a given field, to steer the lanes
    into failures that the true field does not produce."""

    def __init__(self, field):
        self.fbar = field

    def fbar_pair(self, a, b, c, d):
        return (*self.fbar(a, b), *self.fbar(c, d))


class TestLockstep:
    """integrate_flow runs the dt path and the halving path in one loop;
    it must return, bit for bit, or raise, text for text, what the two
    passes of _rk4_path give."""

    CASES = {
        "flow_demo": (FLOW_DEMO.build_model(), tuple(FLOW_DEMO.flow["start"]),
                      FLOW_DEMO.flow["T_flow"], FLOW_DEMO.flow["dt"]),
        "partial_zero": (model_zero(4.0), (0.1, 0.0), 1.005, 0.01),
        "partial_cos2": (ModelSpec(potential=cos2_potential(), rho=2.0), (0.1, 0.0), 0.025, 0.01),
        "cos2_coarse": (ModelSpec(potential=cos2_potential(), rho=3.0), (0.3, -0.2), 2.35, 0.1),
        "two_well": (ModelSpec(potential=two_well_potential(), rho=30.0), (0.999, 0.01), 5.0, 0.1),
        "rim": (ModelSpec(potential=cos2_potential(), rho=5.0), (0.999, 0.0), 3.0, 0.01),
        # the refusals integrate_flow's docstring lists
        "zero-40_far": (model_zero(-40.0), (0.5, 0.0), 8.0, 0.01),
        "zero-40_near": (model_zero(-40.0), (0.01, 0.02), 8.0, 0.01),
        "zero+40": (model_zero(40.0), (0.01, 0.02), 8.0, 0.01),
        "cos2-10": (ModelSpec(potential=cos2_potential(), rho=-10.0), (0.5, 0.0), 8.0, 0.01),
        # the tilted density underflows on both lanes
        "underflow": (model_zero(800.0), (0.9, 0.0), 1.0, 0.1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_two_passes(self, case):
        model, start, t_flow, dt = self.CASES[case]
        tables = _NodeTables(model, field_grid(model))
        want = outcome(lambda: two_pass(tables, start, t_flow, dt))
        assert outcome(lambda: integrated(model, start, t_flow, dt)) == want
        if case.startswith(("zero", "cos2-")):
            assert want[0] is NumericError and "step-halving check failed" in want[1]
        if case == "underflow":
            assert want[0] is DomainError
            return
        # the halving lane too: the gap is the two passes' sup-norm gap, bit for bit
        p0 = np.array(start, dtype=float)
        _, dt_path = flow._rk4_path(tables, p0, t_flow, dt)
        _, fine = flow._rk4_path(tables, p0, t_flow, dt, substeps=2)
        gap = flow._rk4_lockstep(tables, p0, t_flow, dt)[2]
        assert gap.hex() == float(np.max(np.abs(dt_path - fine))).hex()

    def test_refused_horizon_builds_no_path(self, monkeypatch):
        def no_tables(model, grid):
            raise AssertionError("tables built for a refused horizon")

        monkeypatch.setattr(flow, "_NodeTables", no_tables)
        with pytest.raises(ConfigError, match="steps allowed"):
            integrate_flow(model_zero(1.0), (0.0, 0.0), 1e5, dt=0.01)

    @pytest.mark.parametrize("start", [(1.0, 0.0), (0.6, 0.8)])
    def test_rim_projection(self, monkeypatch, start):
        # a slow outward drift from the unit circle: each step of both lanes
        # ends just past radius 1 and is projected back onto the circle
        tables = FieldTables(lambda a, b: (1e-7 * a, 1e-7 * b))
        monkeypatch.setattr(flow, "_NodeTables", lambda model, grid: tables)
        want = outcome(lambda: two_pass(tables, start, 1.0, 0.1))
        assert outcome(lambda: integrated(model_zero(1.0), start, 1.0, 0.1)) == want
        radii = np.hypot(*np.frombuffer(want[1]).reshape(-1, 2).T)
        assert np.all(np.abs(radii - 1.0) < 1e-15)

    @staticmethod
    def unit_drift(traps):
        """Unit speed along a, from (-0.5, 0) at dt = 0.1: the dt lane's
        stages sit at multiples of 0.05, the halving lane's at multiples
        of 0.025. `traps` maps an a to the result or error there."""
        def field(a, b):
            for at, action in traps.items():
                if abs(a - at) < 1e-9:
                    if isinstance(action, Exception):
                        raise action
                    return action
            return 1.0, 0.0
        return field

    @pytest.mark.parametrize("traps, want", [
        # both lanes leave the disk in the same step: the dt lane's error
        # comes first (the halving lane's norm is 1.0068763185234453)
        (None, "left the unit disk (1.0068758132983884)"),
        # only the halving lane fails: its error, after the dt lane ran out
        ({-0.475: DomainError("halving lane")}, "halving lane"),
        ({-0.475: (1e3, 0.0)}, "left the unit disk (16.2)"),
        # the halving lane fails first, the dt lane later: the dt lane's error
        ({-0.475: DomainError("halving lane"), 0.3: NumericError("dt lane")}, "dt lane"),
    ], ids=["disk_exit", "halving_only", "halving_disk_exit", "dt_later"])
    def test_error_parity(self, monkeypatch, traps, want):
        if traps is None:  # outward growth, e^s from radius 0.5
            tables, start, t_flow = FieldTables(lambda a, b: (a, b)), (0.5, 0.0), 1.0
        else:
            tables, start, t_flow = FieldTables(self.unit_drift(traps)), (-0.5, 0.0), 1.0
        monkeypatch.setattr(flow, "_NodeTables", lambda model, grid: tables)
        expected = outcome(lambda: two_pass(tables, start, t_flow, 0.1))
        assert expected[0] in (DomainError, NumericError) and want in expected[1]
        assert outcome(lambda: integrated(model_zero(1.0), start, t_flow, 0.1)) == expected

    def test_evaluation_counts_on_flow_demo(self, monkeypatch):
        # 6,000 steps: four paired stages (dt lane with the first half step)
        # and four lone stages (the second half step) each
        calls = {"fbar": 0, "fbar_pair": 0}
        for name in calls:
            def counted(self, *args, _method=getattr(_NodeTables, name), _name=name):
                calls[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(_NodeTables, name, counted)
        model, start, t_flow, dt = self.CASES["flow_demo"]
        integrate_flow(model, start, t_flow, dt)
        assert calls == {"fbar": 24_000, "fbar_pair": 24_000}

    def test_shipped_flows_take_the_folded_shift(self, monkeypatch):
        # every field evaluation of these flows shifts by the a-priori bound;
        # one that slid back onto the max shift would fail here
        def refuse(self, a, b):
            raise AssertionError(f"max shift taken at ({a!r}, {b!r})")

        monkeypatch.setattr(_NodeTables, "_fbar_max_shift", refuse)
        shadow = ExperimentConfig.from_file(
            str(Path(__file__).resolve().parents[1] / "configs" / "shadow_demo.json"))
        model, start, _, dt = self.CASES["flow_demo"]
        integrate_flow(model, start, 6.0, dt)
        for shadow_start in ((0.1, 0.0), (0.999, 0.0), (-0.3, 0.6)):
            integrate_flow(shadow.build_model(), shadow_start, 2.0, 0.01)
        integrate_flow(ModelSpec(potential=cos2_potential(), rho=4.0), (0.3, -0.2), 4.0, 0.01)


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
