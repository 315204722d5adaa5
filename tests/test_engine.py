import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import R_OF_RHO_4
from sivjp import (OccupationStats, PeriodicGrid, SIVJPConfig, SeedSpec,
                   TelegraphState, advect_occupation, drift_vprime,
                   occupation_histogram, quadratic_kernel_grids, run_sitp,
                   run_sitp_general, simulate_telegraph)
from sivjp.engine import _advance
from sivjp.errors import ConfigError, DomainError, RunawayRateError
from sivjp.geometry import TWO_PI, wrap
from sivjp.engine import envelope_slope, local_clock, thinning_envelope
from sivjp.model import MAX_PROPOSALS, ModelSpec
from sivjp.potentials import (cos_potential, cos2_potential,
                              trig_potential, two_well_potential, zero_potential)
from sivjp.rng import derive_stream, uniform_pairs

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
        # same envelope, same draw consumption: identical jump skeletons,
        # under the constant envelope (lambda_min 1) and the local one (0.25)
        pot = cos2_potential()
        seed = SeedSpec(606, 0)
        for lam_min in (1.0, 0.25):
            model = ModelSpec(potential=pot, rho=0.0, lambda_min=lam_min)
            cfg = SIVJPConfig(model=model, t_end=500.0, seed=seed,
                              z0=TelegraphState(1.0, 1), record_stride=100.0)
            trace = run_sitp(cfg)
            log = simulate_telegraph(pot, lam_min, TelegraphState(1.0, 1), 500.0, seed)
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
        # limit-set surrogate: a run whose moment trace went Cauchy over its
        # last decade sits within 0.05 of the fixed-point set. With no
        # exterior potential that set is the full circle of radius r(rho)
        # plus the origin, so the distance is radial there; for the double
        # well the census points are isolated. At T = 5e3 a converged cos2
        # run still ends beyond 0.05 now and then, so the gate is a count
        # over a fixed stream set: the allowance is the 0.999 binomial
        # quantile of the rate measured with the constant-envelope engine,
        # 18 of 299 converged runs (masters 14 and 6000, 150 streams each).
        # U = 0 had none in 300 and is allowed none.
        from sivjp import find_fixed_points, solve_r_of_rho
        for pot, rho, allowed in ((zero_potential(), 4.0, 0), (cos2_potential(), 2.765, 19)):
            model = ModelSpec(potential=pot, rho=rho)
            census = find_fixed_points(model)
            n_converged, far = 0, []
            for k in range(150):
                trace = sitp(model, 5e3, master=14, stream=k, record_stride=50.0)
                tail = trace.times >= 0.9 * trace.times[-1]
                spread = math.hypot(np.ptp(trace.a_vals[tail]),
                                    np.ptp(trace.b_vals[tail]))
                if spread >= 0.02:  # not converged by the Cauchy-tail test
                    continue
                n_converged += 1
                radius = math.hypot(trace.final.a, trace.final.b)
                if pot.name == "zero":
                    dist = min(abs(radius - solve_r_of_rho(rho)), radius)
                else:
                    dist = min(math.hypot(trace.final.a - r.a, trace.final.b - r.b)
                               for r in census)
                if dist >= 0.05:
                    far.append((k, round(dist, 4)))
            assert n_converged >= 140, pot.name
            assert len(far) <= allowed, (pot.name, far)

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
        # non-finite values: an infinite T or r, an infinite log-schedule
        # start, and NaN moments
        for bad in (dict(t_end=math.inf), dict(r=math.inf),
                    dict(record_t0=math.inf, record_stride=2.0, log_stride=True),
                    dict(mu0=(math.nan, 0.0)), dict(mu0=(0.0, math.nan))):
            kw = dict(model=model, t_end=1.0, seed=SeedSpec(0, 0)) | bad
            with pytest.raises(ConfigError):
                SIVJPConfig(**kw).validate()
        # the expected proposal count lam_bar * T may reach MAX_PROPOSALS but
        # not pass it; lambda_min = 1e308 takes it to inf
        few_snapshots = dict(seed=SeedSpec(0, 0), record_stride=1e8)
        SIVJPConfig(model=model, t_end=MAX_PROPOSALS, **few_snapshots).validate()
        for huge in (dict(model=model, t_end=math.nextafter(MAX_PROPOSALS, math.inf)),
                     dict(model=ModelSpec(lambda_min=1e308), t_end=1.0)):
            with pytest.raises(ConfigError, match="MAX_PROPOSALS"):
                SIVJPConfig(**huge, **few_snapshots).validate()
        # the general mode's histogram starts uniform
        with pytest.raises(ConfigError, match="uniform"):
            run_sitp_general(np.zeros((8, 8)), np.zeros((8, 8)),
                             SIVJPConfig(model=model, t_end=1.0, seed=SeedSpec(0, 0),
                                         mu0=(0.1, 0.0)))

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_envelope_rejected(self, lam):
        # an infinite envelope makes every gap 0 and a NaN one the clock NaN
        model = ModelSpec(potential=cos2_potential(), rho=1.0)
        with pytest.raises(ConfigError, match="finite"):
            sitp(model, 10.0, master=1, lambda_bar_override=lam)
        with pytest.raises(ConfigError, match="finite"):
            simulate_telegraph(cos2_potential(), 1.0, TelegraphState(0.0, 1), 10.0,
                               SeedSpec(1, 0), lambda_bar_override=lam)

    @pytest.mark.parametrize("mode", ["lambda_bar_override", "general_dw_grid"])
    def test_run_envelope_beyond_max_proposals_refused(self, mode):
        # validate bounds the certified envelope; these runs propose under a
        # larger one, and lam_bar * T = 1e309 overflows to inf
        model = ModelSpec(potential=cos2_potential(), rho=1.0)
        with pytest.raises(ConfigError, match="MAX_PROPOSALS"):
            if mode == "lambda_bar_override":
                sitp(model, 10.0, master=1, lambda_bar_override=1e308)
            else:
                run_sitp_general(np.zeros((8, 8)), np.full((8, 8), 1e308),
                                 SIVJPConfig(model=model, t_end=10.0, seed=SeedSpec(1, 0)))

    def test_trace_csv_and_summary(self):
        model = ModelSpec(potential=zero_potential(), rho=1.0)
        trace = sitp(model, 50.0, master=13, record_stride=10.0)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "t,a,b,x,y"
        assert len(lines) == trace.times.size + 1
        summ = trace.summary()
        assert set(summ) == {"final_a", "final_b", "final_r_polar", "final_theta",
                             "n_events", "n_proposals"}
        assert summ["final_r_polar"] == pytest.approx(
            math.hypot(summ["final_a"], summ["final_b"]))


class TestDrawConsumption:
    """Pinned counts and final states of the thinning loops on fixed seeds.

    The pinned-envelope values were recorded before the loops read their
    uniforms as Python floats, and before the local envelope: a run with
    lambda_bar_override equal to the certified envelope proposes under the
    constant envelope, as every run did then, so it must still reproduce
    them bit for bit. The local-envelope values pin the default path; any
    change to draw consumption fails here.
    """

    CASES = [(zero_potential(), 4.0, 2e4), (cos2_potential(), 1.8, 1e4),
             (two_well_potential(), 30.0, 4000.0)]

    @pytest.mark.parametrize("case, events, proposals, a, b, x, y", [
        (0, 33925, 100086, -0.6500187499874148, 0.5256642178708055, 0.9836846534166979, -1),
        (1, 17763, 48193, -0.7358379856398659, -0.003609354503368994, 3.2765068204773806, -1),
        (2, 12908, 128801, -0.9834105271928092, 0.024548946877660353, 2.6578262741271157, 1),
    ], ids=["zero", "cos2", "two_well"])
    def test_run_sitp_golden(self, case, events, proposals, a, b, x, y):
        pot, rho, t_end = self.CASES[case]
        model = ModelSpec(potential=pot, rho=rho)
        trace = sitp(model, t_end, master=7, stream=3, record_stride=200.0,
                     lambda_bar_override=model.thinning_bound)
        assert (trace.n_events, trace.n_proposals) == (events, proposals)
        assert (trace.final.a, trace.final.b) == (a, b)
        assert (trace.final_state.x, trace.final_state.y) == (x, y)

    @pytest.mark.parametrize("case, events, proposals, a, b, x, y", [
        (0, 33861, 39702, -0.6694038837523631, -0.4905673636800188, 4.625984192368459, -1),
        (1, 17649, 22437, -0.7096126013599223, -0.0074063918835860455,
         0.40859723359343736, -1),
        (2, 12884, 13703, -0.9491332406638116, 0.2571256676750152, 3.0499411441035225, 1),
    ], ids=["zero", "cos2", "two_well"])
    def test_run_sitp_local_golden(self, case, events, proposals, a, b, x, y):
        pot, rho, t_end = self.CASES[case]
        trace = sitp(ModelSpec(potential=pot, rho=rho), t_end, master=7, stream=3,
                     record_stride=200.0)
        assert (trace.n_events, trace.n_proposals) == (events, proposals)
        assert (trace.final.a, trace.final.b) == (a, b)
        assert (trace.final_state.x, trace.final_state.y) == (x, y)

    def test_simulate_telegraph_golden(self):
        log = simulate_telegraph(cos2_potential(), 1.0, TelegraphState(1.0, 1), 1e4,
                                 SeedSpec(7, 3), lambda_bar_override=3.0)
        assert (log.jump_times.size, log.n_proposals) == (15801, 29914)
        assert (log.x_final, log.y_final) == (5.313493724985484, -1)

    def test_simulate_telegraph_local_golden(self):
        # lambda_min 0.25: low enough under cos2 for the local envelope to pay
        log = simulate_telegraph(cos2_potential(), 0.25, TelegraphState(1.0, 1), 1e4,
                                 SeedSpec(7, 3))
        assert (log.jump_times.size, log.n_proposals) == (8506, 12252)
        assert (log.x_final, log.y_final) == (0.6627408838076967, 1)

    # the whole jump skeleton, as the SHA-256 of EventLog.to_csv(): the two
    # goldens above, a potential with no curvature bound (cos2 with
    # ddv_sup = inf and dv_sup 5% above sup|U'|), an override above the
    # certified envelope, and a run too short to jump
    @pytest.mark.parametrize("pot, lam_min, z0, t_end, override, jumps, digest", [
        (cos2_potential(), 1.0, (1.0, 1), 1e4, 3.0, 15801,
         "fd3d53e5a409d60c1339e83e7edc11d2858c2be2bbf340ec0fdf472270baeac0"),
        (cos2_potential(), 0.25, (1.0, 1), 1e4, None, 8506,
         "a4125fd0ac8050d1907a9de28f7240e17f64845ac3c3123380d5a4d3b496656c"),
        (dataclasses.replace(cos2_potential(), dv_sup=2.1, ddv_sup=math.inf,
                             amplitudes=None),
         0.25, (1.0, 1), 2000.0, None, 1634,
         "2be1db93985ff14bd41da79feafca68c781b3f5452e0444dea40074da966517d"),
        (cos_potential(), 0.5, (4.0, -1), 2000.0, 4.0, 1597,
         "54b462c11ddedcc043e261cfb5df753a9176b2bcd6a4c66ac958e63e77b4a667"),
        (zero_potential(), 1.0, (1.0, -1), 0.05, None, 0,
         "26812be047900313a2ecb658148fc267aa352dfb5e50ce8465f2e01f248d6777"),
    ], ids=["constant", "local", "frozen", "override", "no_jump"])
    def test_simulate_telegraph_skeleton_digest(self, pot, lam_min, z0, t_end, override,
                                                jumps, digest):
        log = simulate_telegraph(pot, lam_min, TelegraphState(*z0), t_end, SeedSpec(7, 3),
                                 lambda_bar_override=override)
        assert log.jump_times.size == jumps
        assert hashlib.sha256(log.to_csv().encode()).hexdigest() == digest


def reference_run(cfg):
    """run_sitp written plainly: local_clock for every gap, _advance for
    every moment update, wrap for every position and drift_vprime for every
    drift, with the velocity an int. Returns the snapshot rows
    (t, a, b, x, y), the event and proposal counts, and the set of clock
    stretches ("flat", "ramp", "cap") and wraps ("up", "down") it took."""
    model = cfg.model
    lam_min, rho = model.lambda_min, model.rho
    lam_bar = thinning_envelope(model.thinning_bound, cfg.lambda_bar_override)
    slope0 = math.inf  # an infinite slope makes local_clock constant
    if cfg.lambda_bar_override is None:
        slope0 = envelope_slope(lam_min, lam_bar, model.potential.ddv_sup + abs(rho))
    gen = derive_stream(cfg.seed)
    if cfg.z0 is not None:
        x, y = wrap(cfg.z0.x), cfg.z0.y
    else:
        x, y = gen.random() * TWO_PI, 1
    (a, b), r, t = cfg.mu0, cfg.r, 0.0
    snaps = cfg.snapshot_times().tolist()
    rows, n_events, n_prop, seen = [], 0, 0, set()
    v = drift_vprime(model, x, OccupationStats(r=r, t=t, a=a, b=b))
    for u_gap, u_acc in uniform_pairs(gen):
        w = r + t
        tau, lam = local_clock(u_gap, y * v, slope0 + abs(rho) / w, lam_min, lam_bar)
        seen.add("cap" if lam == lam_bar else "flat" if lam == lam_min else "ramp")
        while snaps and snaps[0] <= t + tau:
            dt = snaps[0] - t
            rows.append((snaps.pop(0), *_advance(w, a, b, x, y, dt), wrap(x + y * dt), y))
        if t + tau >= cfg.t_end:
            break
        a, b = _advance(w, a, b, x, y, tau)
        if not 0.0 <= x + y * tau < TWO_PI:
            seen.add("up" if y > 0 else "down")
        x, t = wrap(x + y * tau), t + tau
        n_prop += 1
        v = drift_vprime(model, x, OccupationStats(r=r, t=t, a=a, b=b))
        if u_acc * lam < lam_min + max(y * v, 0.0):
            y = -y
            n_events += 1
    return rows, n_events, n_prop, seen


def _reference_cfg(pot, rho, t_end=300.0, **kw):
    return SIVJPConfig(model=ModelSpec(potential=pot, rho=rho), t_end=t_end,
                       seed=SeedSpec(91, 0), record_stride=t_end / 7, **kw)


REFERENCE_CASES = {
    "cos2_rho0.8": _reference_cfg(cos2_potential(), 0.8),
    "cos2_rho2.8": _reference_cfg(cos2_potential(), 2.8),
    "two_well_rho30": _reference_cfg(two_well_potential(), 30.0, t_end=100.0),
    "zero_rho1_constant": _reference_cfg(zero_potential(), 1.0),
    "zero_rho4": _reference_cfg(zero_potential(), 4.0),
    "sine_terms_rho-3": _reference_cfg(trig_potential((0.3,), (0.0, 0.7)), -3.0),
    "override": _reference_cfg(cos2_potential(), 2.8, lambda_bar_override=9.0),
    "start_y-1": _reference_cfg(cos2_potential(), 2.8, z0=TelegraphState(6.0, -1),
                                mu0=(0.3, -0.2)),
}


@functools.cache
def reference_case(name):
    return reference_run(REFERENCE_CASES[name])


class TestReferenceLoop:
    """engine._drive, with its clock, moment update and wrap inlined and its
    velocity held as a float, against the plain loop of reference_run."""

    @pytest.mark.parametrize("name", list(REFERENCE_CASES))
    def test_run_sitp_matches_reference_bit_for_bit(self, name):
        cfg = REFERENCE_CASES[name]
        rows, n_events, n_prop, _ = reference_case(name)
        trace = run_sitp(cfg)
        for i, column in enumerate(("times", "a_vals", "b_vals", "x_vals", "y_vals")):
            want = np.array([row[i] for row in rows])
            got = getattr(trace, column)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), column
        assert (trace.n_events, trace.n_proposals) == (n_events, n_prop)
        _, a, b, x, y = rows[-1]
        assert trace.final == OccupationStats(r=cfg.r, t=cfg.t_end, a=a, b=b)
        assert trace.final_state == TelegraphState(x=x, y=y)

    def test_cases_cover_every_stretch_and_wrap(self):
        seen = set().union(*(reference_case(name)[3] for name in REFERENCE_CASES))
        assert seen == {"flat", "ramp", "cap", "up", "down"}
        # the constant-envelope cases stay at the cap
        for name in ("zero_rho1_constant", "override"):
            assert reference_case(name)[3] <= {"cap", "up", "down"}


class TestVelocityTypes:
    """The loop holds the velocity as a float; what leaves it is an int."""

    def test_moment_trace_and_telegraph_velocities_are_ints(self):
        trace = run_sitp(REFERENCE_CASES["start_y-1"])
        assert np.issubdtype(trace.y_vals.dtype, np.integer)
        assert type(trace.final_state.y) is int
        log = simulate_telegraph(cos2_potential(), 0.25, TelegraphState(1.0, -1), 200.0,
                                 SeedSpec(7, 3))
        assert log.post_y.size > 0 and np.issubdtype(log.post_y.dtype, np.integer)
        assert type(log.y_final) is int

    def test_general_mode_runs_with_int_velocities(self):
        grid = PeriodicGrid(32)
        model = ModelSpec(potential=cos2_potential(), rho=2.0)
        w, dw = quadratic_kernel_grids(model, grid)
        cfg = SIVJPConfig(model=model, t_end=50.0, seed=SeedSpec(75, 0), record_stride=10.0,
                          z0=TelegraphState(1.0, -1))
        trace, hist = run_sitp_general(w, dw, cfg)
        assert trace.n_events > 0
        assert np.issubdtype(trace.y_vals.dtype, np.integer)
        assert type(trace.final_state.y) is int
        assert hist.sum() == pytest.approx(1.0, abs=1e-12)


class TestLocalEnvelope:
    """The local envelope changes which draws are proposals, not the law."""

    @pytest.mark.parametrize("pot, rho, t_end", [
        (two_well_potential(), 30.0, 200.0), (cos2_potential(), 2.765, 300.0)],
        ids=["two_well", "cos2"])
    def test_law_matches_pinned_envelope(self, pot, rho, t_end):
        # two-sample KS on independent streams: event counts and final
        # moments under the local envelope against the constant one. The
        # seeds are fixed, so the test is deterministic; a bound that does
        # not dominate the rate, or a wrong clock, drives p to ~0.
        model = ModelSpec(potential=pot, rho=rho)
        samples = []
        for master, lam in ((41, model.thinning_bound), (42, None)):
            rows = []
            for k in range(300):
                tr = sitp(model, t_end, master=master, stream=k, record_stride=t_end,
                          lambda_bar_override=lam)
                rows.append((tr.n_events, tr.final.a, tr.final.b))
            samples.append(np.array(rows))
        pinned, local = samples
        assert local[:, 0].sum() > 0
        for i in range(3):
            assert scipy.stats.ks_2samp(pinned[:, i], local[:, i]).pvalue > 1e-3

    def test_fewer_proposals_same_events(self):
        model = ModelSpec(potential=two_well_potential(), rho=30.0)
        pinned = sitp(model, 500.0, master=43, lambda_bar_override=model.thinning_bound)
        local = sitp(model, 500.0, master=43)
        assert local.n_proposals < 0.2 * pinned.n_proposals
        assert local.n_events == pytest.approx(pinned.n_events, rel=0.1)

    @pytest.mark.parametrize("slope", [0.05, 2.2, 40.0])
    def test_clock_inverts_the_bound_integral(self, slope):
        # int_0^tau bound = -log(1 - u), by exact quadrature of the
        # piecewise-linear bound, and the returned bound is bound(tau)
        lam_min, lam_bar = 1.0, 33.2
        for u in (0.0, 1e-9, 0.1, 0.5, 0.9, 0.999999):
            for g0 in (-40.0, -3.0, -0.5, 0.0, 0.5, 3.0, 40.0):
                tau, lam = local_clock(u, g0, slope, lam_min, lam_bar)

                def bound(s):
                    return min(lam_min + max(g0 + slope * s, 0.0), lam_bar)

                kinks = [s for s in (-g0 / slope, (lam_bar - lam_min - g0) / slope)
                         if 0.0 < s < tau]
                nodes = sorted({0.0, tau, *kinks})
                area = sum(0.5 * (bound(s0) + bound(s1)) * (s1 - s0)
                           for s0, s1 in zip(nodes[:-1], nodes[1:]))
                assert area == pytest.approx(-math.log1p(-u), rel=1e-12, abs=1e-15)
                assert lam == pytest.approx(bound(tau), rel=1e-12)

    @pytest.mark.parametrize("slope", [0.0, math.inf, math.nan])
    def test_clock_without_a_finite_slope_is_constant(self, slope):
        for u in (0.0, 0.3, 0.99):
            for g0 in (-2.0, 0.0, 5.0):
                assert local_clock(u, g0, slope, 1.0, 7.5) == (-math.log1p(-u) / 7.5, 7.5)

    def test_envelope_chosen_where_it_pays(self):
        # weak interaction under a high floor keeps the constant envelope,
        # so those runs consume their draws as the pinned ones do
        for lam_min, lam_bar, slope in ((1.0, 1.5, 0.5), (1.0, 2.0, 1.0), (1.0, 3.0, 4.0),
                                        (1.0, 2.0, 0.0), (1.0, 2.0, math.inf)):
            assert envelope_slope(lam_min, lam_bar, slope) == math.inf
        for lam_min, lam_bar, slope in ((1.0, 5.0, 4.0), (1.0, 33.2, 32.2), (1.0, 5.765, 6.765),
                                        (0.25, 2.25, 4.0)):
            assert envelope_slope(lam_min, lam_bar, slope) == slope
        for rho in (0.5, 1.0):
            model = ModelSpec(potential=zero_potential(), rho=rho)
            default = sitp(model, 2000.0, master=45)
            pinned = sitp(model, 2000.0, master=45, lambda_bar_override=model.thinning_bound)
            assert (default.n_proposals, default.n_events) == (pinned.n_proposals,
                                                                pinned.n_events)
            assert (default.final.a, default.final.b) == (pinned.final.a, pinned.final.b)

    def test_understated_curvature_bound_raises(self):
        # the runaway guard checks the rate against the local bound
        for pot in (cos2_potential(), two_well_potential()):
            low = dataclasses.replace(pot, ddv_sup=0.05 * pot.ddv_sup)
            with pytest.raises(RunawayRateError, match="envelope"):
                sitp(ModelSpec(potential=low, rho=0.5), 2000.0, master=44)
            with pytest.raises(RunawayRateError, match="envelope"):
                simulate_telegraph(low, 1.0, TelegraphState(0.0, 1), 2000.0,
                                   SeedSpec(44, 0))


class TestRunSitpGeneral:
    def test_constant_kernel_rate_floor(self):
        w = np.full((128, 128), 3.0)
        dw = np.zeros((128, 128))
        cfg = SIVJPConfig(model=ZERO, t_end=2e4, seed=SeedSpec(71, 0),
                          record_stride=1e4)
        trace, _ = run_sitp_general(w, dw, cfg)
        # zero derivative: every proposal accepted at rate lambda_min
        assert trace.n_events == trace.n_proposals
        rate = trace.n_events / cfg.t_end
        assert abs(rate - 1.0) < 0.05

    def test_asymmetric_kernel_rejected(self):
        cfg = SIVJPConfig(model=ZERO, t_end=1.0, seed=SeedSpec(0, 0))
        # the grid is PeriodicGrid(len(w)), which needs an even n
        for shape, match in (((16, 16), "symmetric"), ((15, 15), "even"),
                             ((16, 8), "n x n")):
            w = np.zeros(shape)
            w[0, 1] = 1e-6
            with pytest.raises(ConfigError, match=match):
                run_sitp_general(w, np.zeros(shape), cfg)

    def test_quadratic_kernel_matches_exact_mode(self):
        grid = PeriodicGrid(512)
        model = ModelSpec(potential=zero_potential(), rho=4.0)
        w, dw = quadratic_kernel_grids(model, grid)
        lam = max(model.thinning_bound,
                  model.lambda_min + 1.05 * float(np.max(np.abs(dw))))
        kw = dict(model=model, t_end=1000.0, seed=SeedSpec(72, 0),
                  record_stride=10.0, lambda_bar_override=lam)
        exact = run_sitp(SIVJPConfig(**kw))
        gridm, _ = run_sitp_general(w, dw, SIVJPConfig(**kw))
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
                              record_stride=1e3)
            tr, h = run_sitp_general(w, dw, cfg)
            m2.append(math.hypot(float(h @ np.cos(2 * z)), float(h @ np.sin(2 * z))))
            a_signs.append(math.copysign(1.0, tr.final.a))
        assert all(m > 0.7 for m in m2)
        assert len(set(a_signs)) == 2

    def test_zero_kernel_shares_the_moment_driver(self):
        # both modes run one thinning loop; with no drift in either (zero
        # kernel, zero potential at rho = 0) and one envelope they consume
        # the same draws and record the same snapshots bit for bit; the
        # general mode's histogram is the plain telegraph log's, binned
        grid = PeriodicGrid(64)
        z0 = TelegraphState(0.0, 1)
        cfg = SIVJPConfig(model=ZERO, t_end=300.0, seed=SeedSpec(74, 0),
                          record_stride=25.0, z0=z0, lambda_bar_override=2.0)
        zeros = np.zeros((64, 64))
        gen, hist = run_sitp_general(zeros, zeros, cfg)
        mom = run_sitp(cfg)
        for name in ("times", "a_vals", "b_vals", "x_vals", "y_vals"):
            assert np.array_equal(getattr(gen, name), getattr(mom, name)), name
        assert (gen.n_events, gen.n_proposals) == (mom.n_events, mom.n_proposals)
        assert gen.n_events < gen.n_proposals  # the override thins proposals
        assert gen.final == mom.final
        log = simulate_telegraph(zero_potential(), 1.0, z0, 300.0, SeedSpec(74, 0),
                                 lambda_bar_override=2.0)
        binned = occupation_histogram(log, grid) + cfg.r / grid.n
        assert np.max(np.abs(hist - binned / binned.sum())) <= 1e-12
