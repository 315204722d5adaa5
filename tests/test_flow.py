import math

import numpy as np
import pytest

from helpers import RHO_C_COS2, A_STAR_2RHOC
from sivjp import (SIVJPConfig, SeedSpec, fbar, integrate_flow,
                   pseudotrajectory_error, run_sitp, solve_r_of_rho)
from sivjp import flow
from sivjp.engine import MomentTrace, OccupationStats
from sivjp.equilibria import _NodeTables
from sivjp.geometry import DENSITY_GRID
from sivjp.errors import ConfigError, DomainError
from sivjp.markov import TelegraphState
from sivjp.model import ModelSpec
from sivjp.potentials import cos2_potential, zero_potential


def model_zero(rho):
    return ModelSpec(potential=zero_potential(), rho=rho)


def reference_rk4(model, start, t_flow, dt, grid=DENSITY_GRID):
    """The classical RK4 loop of integrate_flow on the public fbar."""
    p = np.array(start, dtype=float)
    points, s = [p], 0.0
    for _ in range(int(math.ceil(t_flow / dt - 1e-12))):
        h = min(dt, t_flow - s)
        k1 = np.array(fbar(model, p[0], p[1], grid))
        k2 = np.array(fbar(model, *(p + 0.5 * h * k1), grid))
        k3 = np.array(fbar(model, *(p + 0.5 * h * k2), grid))
        k4 = np.array(fbar(model, *(p + h * k3), grid))
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
            assert np.array_equal(points, reference_rk4(model, start, 0.5, 0.01))

    def test_fourth_order_step_scaling(self):
        model = model_zero(4.0)
        ref = integrate_flow(model, (0.1, 0.05), 2.0, dt=0.0025, self_check=False)
        errs = []
        for dt in (0.04, 0.02):
            tr = integrate_flow(model, (0.1, 0.05), 2.0, dt=dt, self_check=False)
            stride = round(dt / 0.0025)
            errs.append(np.max(np.abs(tr.points - ref.points[::stride])))
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert 3.5 <= order <= 4.5

    def test_step_halving_self_check_runs(self):
        trace = integrate_flow(model_zero(2.5), (0.3, -0.2), 5.0, dt=0.05)
        assert trace.points.shape == (101, 2)

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
            trace = integrate_flow(model, (float(a), float(b)), 50.0,
                                   dt=0.05, self_check=False)
            end = trace.points[-1]
            d_plus = math.hypot(end[0] - A_STAR_2RHOC, end[1])
            d_minus = math.hypot(end[0] + A_STAR_2RHOC, end[1])
            assert min(d_plus, d_minus) < 1e-4
            n_checked += 1
        assert n_checked > 50


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
                           n_events=0, n_proposals=0, wall_time_s=0.0)
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
