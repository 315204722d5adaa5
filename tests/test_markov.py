import csv
import io
import math

import numpy as np
import pytest
import scipy.stats

from helpers import bessel_i
from sivjp import (EventLog, PeriodicGrid, SeedSpec, TelegraphState, TorusVJPState,
                   empirical_tv, invariant_density, simulate_telegraph,
                   simulate_torus_vjp, velocity_fraction, wrap)
from sivjp.errors import ConfigError, DomainError
from sivjp.geometry import TWO_PI
from sivjp.markov import occupation_histogram
from sivjp.potentials import cos_potential, cos2_potential, zero_potential


def telegraph(pot, t_end, seed, lam=1.0, x0=0.0, y0=1):
    return simulate_telegraph(pot, lam, TelegraphState(x0, y0), t_end, SeedSpec(seed, 0))


class TestTelegraph:
    def test_zero_drift_gaps_are_exponential(self):
        # constant rate: inter-jump gaps are iid Exp(1)
        log = telegraph(zero_potential(), 1.05e5, seed=101)
        gaps = np.diff(np.concatenate([[0.0], log.jump_times]))
        assert gaps.size > 1e5
        stat = scipy.stats.kstest(gaps[:100_000], "expon").statistic
        assert stat < 0.01

    def test_invariant_density_and_velocity_marginal(self):
        pot = cos_potential()
        log = telegraph(pot, 1e5, seed=7)
        tv = empirical_tv(log, invariant_density(pot))
        assert tv < 0.02
        assert abs(velocity_fraction(log) - 0.5) < 0.01

    def test_velocity_fraction_bound(self):
        pot = cos_potential()
        lam_bar = 1.0 + pot.dv_sup
        t_end = 2e4
        log = telegraph(pot, t_end, seed=31)
        assert abs(velocity_fraction(log) - 0.5) < 3.0 / math.sqrt(lam_bar * t_end)

    def test_thinning_counts_are_poisson(self):
        # chi-square GOF on accepted-event counts in unit windows
        log = telegraph(zero_potential(), 1e4, seed=5)
        counts = np.histogram(log.jump_times, bins=np.arange(0.0, 10_001.0))[0]
        kmax = 6
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        probs = np.array([math.exp(-1.0) / math.factorial(k) for k in range(kmax)])
        probs = np.append(probs, 1.0 - probs.sum())
        res = scipy.stats.chisquare(observed, probs * counts.size)
        assert res.pvalue > 1e-3

    def test_jump_times_strictly_increasing(self):
        log = telegraph(cos_potential(), 5e3, seed=3)
        assert np.all(np.diff(log.jump_times) > 0)

    def test_position_continuity_across_jumps(self):
        log = telegraph(cos_potential(), 1e3, seed=9)
        t_prev, x_prev, y_prev = 0.0, log.x0, log.y0
        for t, x, y in zip(log.jump_times, log.post_x, log.post_y):
            reconstructed = wrap(x_prev + y_prev * (t - t_prev))
            assert abs(reconstructed - x) < 1e-9
            assert y == -y_prev
            t_prev, x_prev, y_prev = t, x, y

    def test_velocity_always_pm_one(self):
        log = telegraph(cos2_potential(), 1e3, seed=2)
        assert set(np.unique(log.post_y)) <= {-1, 1}

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            telegraph(zero_potential(), -1.0, seed=0)
        with pytest.raises(ConfigError):
            simulate_telegraph(zero_potential(), 0.0, TelegraphState(0.0, 1),
                               1.0, SeedSpec(0, 0))
        with pytest.raises(ConfigError):
            TelegraphState(0.0, 2)

    def test_csv_round_trip(self):
        log = telegraph(cos_potential(), 100.0, seed=4)
        text = log.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == log.jump_times.size + 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(100.0)


class TestInvariantDensity:
    def test_flat(self):
        d = invariant_density(zero_potential())
        assert np.allclose(d.values, 1.0 / TWO_PI, rtol=1e-14)

    def test_cos_value_at_pi(self):
        # e / (2 pi I0(1)), with I0 from the series oracle
        d = invariant_density(cos_potential())
        k = d.grid.n // 2
        want = math.e / (TWO_PI * bessel_i(0, 1.0))
        assert d.values[k] == pytest.approx(want, rel=1e-12)
        assert d.values[k] == pytest.approx(0.341710488623, abs=1e-9)

    def test_cos2_symmetry(self):
        d = invariant_density(cos2_potential())
        shifted = np.roll(d.values, d.grid.n // 2)
        assert np.max(np.abs(d.values - shifted)) < 1e-13

    def test_normalization(self):
        from sivjp import quad_periodic
        d = invariant_density(cos2_potential())
        assert quad_periodic(d.values, d.grid) == pytest.approx(1.0, abs=1e-12)


class TestEmpiricalTV:
    def test_self_comparison_is_zero(self):
        from sivjp.equilibria import GridDensity
        log = telegraph(cos_potential(), 2e3, seed=11)
        grid = PeriodicGrid(128)
        masses = occupation_histogram(log, grid)
        d = GridDensity(grid=grid, values=masses / log.t_final / grid.h,
                        logZ=0.0) if np.all(masses > 0) else None
        if d is not None:
            assert empirical_tv(log, d) < 1e-12

    def test_mass_conservation(self):
        log = telegraph(cos_potential(), 5e3, seed=13)
        masses = occupation_histogram(log, PeriodicGrid(512))
        assert masses.sum() == pytest.approx(log.t_final, rel=1e-9)

    def test_tv_decreases_with_horizon(self):
        pot = cos_potential()
        d = invariant_density(pot)
        tv_short = empirical_tv(telegraph(pot, 1e3, seed=17), d)
        tv_long = empirical_tv(telegraph(pot, 1e5, seed=17), d)
        assert tv_long < tv_short

    def test_two_seeds_small_tv(self):
        pot = cos_potential()
        d = invariant_density(pot)
        for seed in (23, 29):
            assert empirical_tv(telegraph(pot, 1e5, seed=seed), d) < 0.02

    def test_empty_log_rejected(self):
        log = EventLog(x0=0.0, y0=1, jump_times=np.array([]), post_x=np.array([]),
                       post_y=np.array([], dtype=int), t_final=0.0, x_final=0.0,
                       y_final=1)
        with pytest.raises(DomainError):
            empirical_tv(log, invariant_density(zero_potential()))


# ---------------------------------------------------------------------------
# d-torus process

def _q_circle(gen):
    g = gen.standard_normal(2)
    return g / np.linalg.norm(g)


def _subsampled_positions(log, dt):
    t = np.concatenate([[0.0], log.jump_times, [log.t_final]])
    xs = np.concatenate([log.x0[None, :], log.post_x]) if log.post_x.size \
        else log.x0[None, :]
    ys = np.concatenate([log.y0[None, :], log.post_y]) if log.post_y.size \
        else log.y0[None, :]
    chunks = []
    for i in range(len(t) - 1):
        n = int((t[i + 1] - t[i]) / dt)
        if n:
            s = dt * (np.arange(n) + 0.5)
            chunks.append(np.mod(xs[i][None, :] + np.outer(s, ys[i]), TWO_PI))
    return np.concatenate(chunks)


class TestTorusVJP:
    def test_uniform_equilibrium_d2(self):
        log = simulate_torus_vjp(lambda x: 0.0, lambda x: np.zeros(2), 0.0,
                                 _q_circle, 1.0, 1.0,
                                 TorusVJPState(np.zeros(2), np.array([1.0, 0.0])),
                                 1e5, SeedSpec(41, 0))
        pts = _subsampled_positions(log, 0.05)
        hist = np.histogram2d(pts[:, 0], pts[:, 1], bins=32,
                              range=[[0, TWO_PI]] * 2)[0]
        p = hist / hist.sum()
        assert 0.5 * np.abs(p - 1.0 / 1024).sum() < 0.03

    def test_csv_columns_d2(self):
        log = simulate_torus_vjp(lambda x: 0.0, lambda x: np.zeros(2), 0.0,
                                 _q_circle, 1.0, 1.0,
                                 TorusVJPState(np.array([0.5, 1.0]), np.array([0.6, 0.8])),
                                 20.0, SeedSpec(53, 0))
        rows = list(csv.reader(io.StringIO(log.to_csv())))
        assert rows[0] == ["t", "x_1", "x_2", "y_1", "y_2"]
        assert log.jump_times.size > 0 and len(rows) == 1 + log.jump_times.size + 2
        assert all(len(r) == 1 + 2 * 2 for r in rows)
        got = np.array(rows[1:], dtype=float)
        want = np.column_stack([
            np.concatenate([[0.0], log.jump_times, [log.t_final]]),
            np.vstack([log.x0, log.post_x, log.x_final]),
            np.vstack([log.y0, log.post_y, log.y_final])])
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)

    def test_d1_two_speed_reduces_to_telegraph_equilibrium(self):
        # q = (delta_1 + delta_-1)/2: equilibrium exp(-V) x q
        pot = cos_potential()

        def q_pm(gen):
            return np.array([1.0 if gen.random() < 0.5 else -1.0])

        log = simulate_torus_vjp(lambda x: float(pot.v_scalar(float(x[0]))),
                                 lambda x: np.array([pot.dv_scalar(float(x[0]))]),
                                 pot.dv_sup, q_pm, 1.0, 1.0,
                                 TorusVJPState(np.zeros(1), np.ones(1)),
                                 1e5, SeedSpec(43, 0))
        assert empirical_tv(log, invariant_density(pot)) < 0.03

    def test_product_potential_marginal_uniform(self):
        # V(x1, x2) = cos x1: the x2 marginal stays uniform
        log = simulate_torus_vjp(lambda x: math.cos(float(x[0])),
                                 lambda x: np.array([-math.sin(float(x[0])), 0.0]),
                                 1.0, _q_circle, 1.0, 1.0,
                                 TorusVJPState(np.zeros(2), np.array([0.6, 0.8])),
                                 1e5, SeedSpec(47, 0))
        pts = _subsampled_positions(log, 0.05)
        hist = np.histogram(pts[:, 1], bins=64, range=(0, TWO_PI))[0]
        p = hist / hist.sum()
        assert 0.5 * np.abs(p - 1.0 / 64).sum() < 0.03
        # and the x1 marginal matches exp(-cos)/Z
        hist1 = np.histogram(pts[:, 0], bins=64, range=(0, TWO_PI))[0]
        p1 = hist1 / hist1.sum()
        d = invariant_density(cos_potential(), PeriodicGrid(64))
        assert 0.5 * np.abs(p1 - d.values * d.grid.h).sum() < 0.03
