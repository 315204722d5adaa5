import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import R_OF_RHO_4
from sivjp import (OccupationStats, PeriodicGrid, SIVJPConfig, SeedSpec,
                   TelegraphState, advect_occupation, drift_vprime,
                   quadratic_kernel_grids, run_sitp, run_sitp_general,
                   simulate_telegraph)
from sivjp.errors import ConfigError, DomainError
from sivjp.geometry import TWO_PI
from sivjp.model import ModelSpec
from sivjp.potentials import cos2_potential, zero_potential

ZERO = ModelSpec(potential=zero_potential(), rho=0.0)


def sitp(model, t_end, master, stream=0, **kw):
    cfg = SIVJPConfig(model=model, t_end=t_end, seed=SeedSpec(master, stream),
                      record_stride=kw.pop("record_stride", 100.0), **kw)
    return run_sitp(cfg)


class TestDrift:
    def test_uniform_measure_no_force(self):
        occ = OccupationStats(r=1.0, t=0.0, a=0.0, b=0.0)
        for x in np.linspace(0, TWO_PI, 7):
            assert drift_vprime(ZERO, float(x), occ) == 0.0

    def test_pure_interaction(self):
        occ = OccupationStats(r=1.0, t=0.0, a=1.0, b=0.0)
        model = ModelSpec(potential=zero_potential(), rho=1.0)
        assert drift_vprime(model, math.pi / 2, occ) == pytest.approx(1.0, abs=1e-15)

    def test_with_exterior_potential(self):
        # U = -cos 2x has dU(0) = 0, so only the -rho*b*cos(0) term remains
        model = ModelSpec(potential=cos2_potential(), rho=2.0)
        occ = OccupationStats(r=1.0, t=0.0, a=0.3, b=0.4)
        assert drift_vprime(model, 0.0, occ) == pytest.approx(-0.8, abs=1e-14)


class TestAdvect:
    def test_full_loop_pure_shrink(self):
        occ = OccupationStats(r=2.0, t=1.0, a=0.4, b=-0.2)
        w = occ.weight
        out = advect_occupation(occ, 0.0, 1, TWO_PI)
        assert out.a == pytest.approx(w * 0.4 / (w + TWO_PI), abs=1e-14)
        assert out.b == pytest.approx(w * -0.2 / (w + TWO_PI), abs=1e-14)

    def test_half_loop_closed_form(self):
        occ = OccupationStats(r=1.0, t=0.0, a=0.0, b=0.0)
        out = advect_occupation(occ, 0.0, 1, math.pi)
        assert out.a == pytest.approx(0.0, abs=1e-15)
        assert out.b == pytest.approx(2.0 / (1.0 + math.pi), abs=1e-15)

    @given(st.floats(0.1, 5.0), st.floats(0.0, 10.0),
           st.floats(-0.6, 0.6), st.floats(-0.6, 0.6),
           st.floats(0.0, 6.28), st.sampled_from([-1, 1]),
           st.floats(0.01, 4.0), st.floats(0.01, 4.0))
    @settings(max_examples=80, deadline=None)
    def test_semigroup(self, r, t, a, b, x0, y, s, u):
        if a * a + b * b > 1.0:
            return
        occ = OccupationStats(r=r, t=t, a=a, b=b)
        joint = advect_occupation(occ, x0, y, s + u)
        split = advect_occupation(advect_occupation(occ, x0, y, s), x0 + y * s, y, u)
        assert abs(joint.a - split.a) < 1e-12
        assert abs(joint.b - split.b) < 1e-12

    def test_tau_must_be_positive(self):
        occ = OccupationStats(r=1.0, t=0.0, a=0.0, b=0.0)
        with pytest.raises(ConfigError):
            advect_occupation(occ, 0.0, 1, 0.0)


class TestOccupationStats:
    def test_disk_invariant(self):
        with pytest.raises(DomainError):
            OccupationStats(r=1.0, t=0.0, a=0.9, b=0.5)


class TestRunSitp:
    def test_rho_zero_matches_telegraph_exactly(self):
        # same envelope, same draw consumption: identical jump skeletons
        pot = cos2_potential()
        model = ModelSpec(potential=pot, rho=0.0, lambda_min=1.0)
        seed = SeedSpec(606, 0)
        cfg = SIVJPConfig(model=model, t_end=500.0, seed=seed,
                          z0=TelegraphState(1.0, 1), record_stride=100.0)
        trace = run_sitp(cfg)
        log = simulate_telegraph(pot, 1.0, TelegraphState(1.0, 1), 500.0, seed)
        assert trace.n_events == log.jump_times.size
        assert trace.n_proposals == log.n_proposals
        assert trace.final_state.x == log.x_final
        assert trace.final_state.y == log.y_final

    def test_no_interaction_gaps_exponential(self):
        model = ModelSpec(potential=zero_potential(), rho=0.0, lambda_min=1.0)
        seed = SeedSpec(607, 0)
        log = simulate_telegraph(zero_potential(), 1.0, TelegraphState(0.0, 1),
                                 3e4, seed)
        gaps = np.diff(np.concatenate([[0.0], log.jump_times]))
        assert scipy.stats.kstest(gaps, "expon").statistic < 0.012

    def test_moment_disk_invariance(self):
        model = ModelSpec(potential=cos2_potential(), rho=3.0)
        trace = sitp(model, 2e3, master=11, record_stride=5.0)
        assert np.all(trace.a_vals ** 2 + trace.b_vals ** 2 <= 1.0 + 1e-12)

    def test_engine_moments_match_public_advect_replay(self):
        # at rho = 0 the engine's jump skeleton equals the telegraph's;
        # replaying that skeleton through advect_occupation must reproduce
        # the engine's final moments to round-off
        pot = cos2_potential()
        model = ModelSpec(potential=pot, rho=0.0, lambda_min=1.0)
        seed = SeedSpec(608, 0)
        cfg = SIVJPConfig(model=model, t_end=200.0, seed=seed,
                          z0=TelegraphState(0.25, 1), record_stride=50.0)
        trace = run_sitp(cfg)
        log = simulate_telegraph(pot, 1.0, TelegraphState(0.25, 1), 200.0, seed)
        occ = OccupationStats(r=1.0, t=0.0, a=0.0, b=0.0)
        xs, ys, durations = log.segments()
        for x0, y0, tau in zip(xs, ys, durations):
            if tau > 0.0:
                occ = advect_occupation(occ, float(x0), int(y0), float(tau))
        assert occ.a == pytest.approx(trace.final.a, abs=1e-10)
        assert occ.b == pytest.approx(trace.final.b, abs=1e-10)

    def test_weight_dilutes_initial_moments(self):
        # rho = 0: matched seeds share the trajectory, so two different
        # initial measures produce a-traces within 2r/(r+t) exactly
        model = ModelSpec(potential=zero_potential(), rho=0.0)
        common = dict(model=model, t_end=2e3, seed=SeedSpec(609, 0),
                      z0=TelegraphState(0.0, 1), record_stride=10.0)
        plus = run_sitp(SIVJPConfig(mu0=(1.0, 0.0), **common))
        minus = run_sitp(SIVJPConfig(mu0=(-1.0, 0.0), **common))
        r = 1.0
        bound = 2.0 * r / (r + plus.times)
        assert np.all(np.abs(plus.a_vals - minus.a_vals) <= bound + 1e-12)
        assert np.allclose(np.abs(plus.a_vals - minus.a_vals), bound, atol=1e-12)

    def test_supercritical_localizes(self):
        model = ModelSpec(potential=zero_potential(), rho=4.0)
        trace = sitp(model, 5e3, master=12)
        radius = math.hypot(trace.final.a, trace.final.b)
        assert abs(radius - R_OF_RHO_4) < 0.08

    def test_converged_runs_end_near_fixed_point_set(self):
        # limit-set surrogate: any run whose moment trace went Cauchy over
        # its last decade sits within 0.05 of the fixed-point set. With no
        # exterior potential that set is the full circle of radius r(rho)
        # plus the origin, so the distance is radial there; for the double
        # well the census points are isolated.
        from sivjp import find_fixed_points, solve_r_of_rho
        for pot, rho in ((zero_potential(), 4.0), (cos2_potential(), 2.765)):
            model = ModelSpec(potential=pot, rho=rho)
            census = find_fixed_points(model)
            for k in range(3):
                trace = sitp(model, 5e3, master=14, stream=k, record_stride=50.0)
                tail = trace.times >= 0.9 * trace.times[-1]
                spread = math.hypot(np.ptp(trace.a_vals[tail]),
                                    np.ptp(trace.b_vals[tail]))
                if spread >= 0.02:  # not converged by the Cauchy-tail test
                    continue
                radius = math.hypot(trace.final.a, trace.final.b)
                if pot.name == "zero":
                    dist = min(abs(radius - solve_r_of_rho(rho)), radius)
                else:
                    dist = min(math.hypot(trace.final.a - r.a, trace.final.b - r.b)
                               for r in census)
                assert dist < 0.05

    def test_log_stride_schedule(self):
        model = ModelSpec(potential=zero_potential(), rho=0.0)
        cfg = SIVJPConfig(model=model, t_end=100.0, seed=SeedSpec(1, 0),
                          record_stride=2.0, log_stride=True, record_t0=1.0)
        times = cfg.snapshot_times()
        assert times[0] == 1.0 and times[-1] == 100.0
        assert np.allclose(np.diff(np.log(times[:-1])), math.log(2.0))

    def test_config_validation(self):
        model = ModelSpec(potential=zero_potential(), rho=0.0)
        with pytest.raises(ConfigError):
            SIVJPConfig(model=model, t_end=-1.0, seed=SeedSpec(0, 0)).validate()
        with pytest.raises(ConfigError):
            SIVJPConfig(model=model, t_end=1.0, seed=SeedSpec(0, 0),
                        r=0.0).validate()
        with pytest.raises(ConfigError):
            SIVJPConfig(model=model, t_end=1.0, seed=SeedSpec(0, 0),
                        mu0=(0.9, 0.9)).validate()
        with pytest.raises(ConfigError):
            SIVJPConfig(model=model, t_end=1.0, seed=SeedSpec(0, 0),
                        record_stride=1.0, log_stride=True).validate()
        with pytest.raises(ConfigError, match="uniform"):
            SIVJPConfig(model=model, t_end=1.0, seed=SeedSpec(0, 0),
                        mu0=(0.1, 0.0), hist_grid=PeriodicGrid(8)).validate()

    def test_hist_built_at_end(self):
        # the histogram is binned from the recorded flight legs after the
        # run: unit mass, moments within a cell of the exact (a, b), and
        # the same draws and moments as the run without it
        grid = PeriodicGrid(64)
        model = ModelSpec(potential=cos2_potential(), rho=3.0)
        plain = sitp(model, 500.0, master=15)
        binned = sitp(model, 500.0, master=15, hist_grid=grid)
        h = binned.hist
        assert plain.hist is None
        assert h.shape == (64,) and np.all(h >= 0.0)
        assert h.sum() == pytest.approx(1.0, abs=1e-12)
        assert abs(float(h @ np.cos(grid.nodes)) - binned.final.a) <= grid.h
        assert abs(float(h @ np.sin(grid.nodes)) - binned.final.b) <= grid.h
        assert binned.final == plain.final
        assert binned.n_events == plain.n_events
        assert binned.n_proposals == plain.n_proposals

    def test_trace_csv_and_summary(self):
        model = ModelSpec(potential=zero_potential(), rho=1.0)
        trace = sitp(model, 50.0, master=13, record_stride=10.0)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "t,a,b,x,y"
        assert len(lines) == trace.times.size + 1
        summ = trace.summary()
        assert set(summ) == {"final_a", "final_b", "final_r_polar", "final_theta",
                             "n_events", "n_proposals", "wall_time_s"}
        assert summ["final_r_polar"] == pytest.approx(
            math.hypot(summ["final_a"], summ["final_b"]))


class TestRunSitpGeneral:
    def test_constant_kernel_rate_floor(self):
        grid = PeriodicGrid(128)
        w = np.full((128, 128), 3.0)
        dw = np.zeros((128, 128))
        cfg = SIVJPConfig(model=ZERO, t_end=2e4, seed=SeedSpec(71, 0),
                          record_stride=1e4, hist_grid=grid)
        trace = run_sitp_general(w, dw, cfg)
        # zero derivative: every proposal accepted at rate lambda_min
        assert trace.n_events == trace.n_proposals
        rate = trace.n_events / cfg.t_end
        assert abs(rate - 1.0) < 0.05

    def test_asymmetric_kernel_rejected(self):
        grid = PeriodicGrid(16)
        w = np.zeros((16, 16))
        w[0, 1] = 1e-6
        cfg = SIVJPConfig(model=ZERO, t_end=1.0, seed=SeedSpec(0, 0),
                          hist_grid=grid)
        with pytest.raises(ConfigError, match="symmetric"):
            run_sitp_general(w, np.zeros((16, 16)), cfg)

    def test_quadratic_kernel_matches_exact_mode(self):
        grid = PeriodicGrid(512)
        model = ModelSpec(potential=zero_potential(), rho=4.0)
        w, dw = quadratic_kernel_grids(model, grid)
        lam = max(model.thinning_bound,
                  model.lambda_min + 1.05 * float(np.max(np.abs(dw))))
        kw = dict(model=model, t_end=1000.0, seed=SeedSpec(72, 0),
                  record_stride=10.0, lambda_bar_override=lam)
        exact = run_sitp(SIVJPConfig(**kw))
        gridm = run_sitp_general(w, dw, SIVJPConfig(hist_grid=grid, **kw))
        sup = float(np.max(np.hypot(exact.a_vals - gridm.a_vals,
                                    exact.b_vals - gridm.b_vals)))
        assert sup < 0.02

    def test_second_harmonic_kernel_localizes_in_doubled_angle(self):
        # W = -4 cos(2(x-z)) is invariant under x -> x + pi: the
        # doubled-angle moments localize near r(4) for every seed, while
        # the sign of the first moment (set by which of the two antipodal
        # peaks collects more mass, a slow hop-limited coin flip) shows no
        # preference across seeds.
        grid = PeriodicGrid(512)
        z = grid.nodes
        diff = z[:, None] - z[None, :]
        w = -4.0 * np.cos(2.0 * diff)
        dw = 8.0 * np.sin(2.0 * diff)
        m2, a_signs = [], []
        for k in range(8):
            cfg = SIVJPConfig(model=ZERO, t_end=3e3, seed=SeedSpec(73, k),
                              record_stride=1e3, hist_grid=grid)
            tr = run_sitp_general(w, dw, cfg)
            h = tr.hist
            m2.append(math.hypot(float(h @ np.cos(2 * z)), float(h @ np.sin(2 * z))))
            a_signs.append(math.copysign(1.0, tr.final.a))
        assert all(m > 0.7 for m in m2)
        assert len(set(a_signs)) == 2

    def test_hist_required(self):
        with pytest.raises(ConfigError):
            run_sitp_general(np.zeros((16, 16)), np.zeros((16, 16)),
                             SIVJPConfig(model=ZERO, t_end=1.0, seed=SeedSpec(0, 0)))
