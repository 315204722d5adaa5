import csv
import io
import math
import re

import numpy as np
import pytest
import scipy.stats

from helpers import bessel_i, reference_csv_text
from sivjp import (EventLog, PeriodicGrid, SeedSpec, TelegraphState, TorusVJPState,
                   empirical_tv, invariant_density, simulate_telegraph,
                   simulate_torus_vjp, velocity_fraction, wrap)
from sivjp.errors import ConfigError, DomainError
from sivjp.geometry import TWO_PI, arc_sojourn, cell_index
from sivjp.markov import csv_lines, csv_text, occupation_histogram, write_csv
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
        # an infinite horizon has no finite proposal budget
        with pytest.raises(ConfigError, match="MAX_PROPOSALS"):
            telegraph(zero_potential(), math.inf, seed=0)

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


class TestCsvText:
    """csv_text writes a row of numbers with one % format; every row must
    come out as the bytes csv.writer alone writes (reference_csv_text)."""

    HEADER = ["t", "a", "b"]
    NUMBERS = [
        (0.0, 1.0, -2.5),
        (1, -7, 10**15),
        (np.float64(0.1), np.float32(0.1), np.int64(-3)),
        (np.uint8(255), np.bool_(True), True),
        (math.nan, math.inf, -math.inf),
        (-0.0, np.float64(-0.0), 5e-324),
        (1e300, -1.2345678901234567e-300, 123456789012.5),
        (np.array(2.5), np.float64(np.nan), np.float64(-np.inf)),
    ]
    STRINGS = [
        ("a,b", 1.0, 2.0),
        ('say "hi"', 1.0, 2.0),
        ("cr\rlf\n", "lf\n", "crlf\r\n"),
        ("", 1.0, ""),
        (0.5, "ok", "error:DomainError: x, y"),
        ("", "", ""),
    ]
    LENGTHS = [(), (1.0,), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0), ("",), (math.nan, "a,b")]
    TUPLES = [((2.0,), 3.0, 4.0), (1.0, (np.float64(0.5),), "z"), ((-0.0,), (math.inf,), (1,))]

    @pytest.mark.parametrize("rows", [NUMBERS, STRINGS, LENGTHS, NUMBERS + STRINGS + LENGTHS,
                                      TUPLES + NUMBERS + STRINGS + LENGTHS],
                             ids=["numbers", "strings", "lengths", "mixed", "tuples"])
    def test_bytes_match_csv_writer(self, rows, tmp_path):
        want = reference_csv_text(self.HEADER, rows)
        assert csv_text(self.HEADER, rows) == want
        # rows as lists, and rows as one-shot iterators
        assert csv_text(self.HEADER, [list(r) for r in rows]) == want
        assert csv_text(self.HEADER, (iter(r) for r in rows)) == want
        # the streamed sink writes the same bytes
        write_csv(tmp_path / "rows.csv", csv_lines(self.HEADER, (iter(r) for r in rows)))
        assert (tmp_path / "rows.csv").read_bytes() == want.encode()

    @pytest.mark.parametrize("header", [[], ["x"], ["x", "y,z", 'q"']])
    def test_header_widths(self, header):
        rows = [(), (1.0,), (1.0, -0.0), ("",), ((2.0,), 3.0, 4.0), (math.inf, "s", 1)]
        assert csv_text(header, rows) == reference_csv_text(header, rows)

    @pytest.mark.parametrize("row", [(None, 1.0, 2.0), (1.0, [2.0], 3.0), (1.0, 2.0, 10**400)])
    def test_bad_cell_raises_as_csv_writer(self, row):
        with pytest.raises(Exception) as want:
            reference_csv_text(self.HEADER, [row])
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            csv_text(self.HEADER, [row])


class TestEmpiricalTV:
    def test_self_comparison_is_zero(self):
        from sivjp.equilibria import GridDensity
        log = telegraph(cos_potential(), 2e3, seed=11)
        grid = PeriodicGrid(128)
        masses = occupation_histogram(log, grid)
        d = GridDensity(grid=grid, values=masses / log.t_final / grid.h) \
            if np.all(masses > 0) else None
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

    def test_speed_neither_zero_nor_one_rejected(self):
        log = EventLog(x0=0.0, y0=0.5, jump_times=np.array([]), post_x=np.array([]),
                       post_y=np.array([]), t_final=2.0, x_final=1.0, y_final=0.5)
        with pytest.raises(DomainError, match="speeds must be 0 or 1"):
            occupation_histogram(log, PeriodicGrid(64))

    def test_motionless_leg_fills_its_node_cell(self):
        grid = PeriodicGrid(64)
        log = EventLog(x0=1.0, y0=0, jump_times=np.array([]), post_x=np.array([]),
                       post_y=np.array([], dtype=int), t_final=3.0, x_final=1.0,
                       y_final=0)
        masses = occupation_histogram(log, grid)
        k = cell_index(1.0, grid)
        assert masses[k] == 3.0 and masses.sum() == log.t_final
        # after a unit-speed leg, the motionless one adds its whole duration
        log = EventLog(x0=0.2, y0=1, jump_times=np.array([1.0]), post_x=np.array([1.2]),
                       post_y=np.array([0]), t_final=3.5, x_final=1.2, y_final=0)
        masses = occupation_histogram(log, grid)
        k = cell_index(1.2, grid)
        assert masses[k] >= 2.5
        assert masses.sum() == pytest.approx(log.t_final, rel=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 31, 62, 63])
    def test_motionless_leg_and_moving_leg_share_the_cell_rule(self, k):
        # x0 sits on (or within round-off of) the edge between cells k and
        # k + 1; a motionless leg there lands in the cell where a short
        # forward leg from x0 starts, whichever side round-off puts x0 on
        grid = PeriodicGrid(64)
        x0 = (k + 0.5) * grid.h
        log = EventLog(x0=x0, y0=0, jump_times=np.array([]), post_x=np.array([]),
                       post_y=np.array([], dtype=int), t_final=3.0, x_final=x0,
                       y_final=0)
        still = occupation_histogram(log, grid)
        cells = set(np.flatnonzero(arc_sojourn(x0, 1, 1e-9, grid)).tolist())
        (start,) = [c for c in cells if (c - 1) % 64 not in cells]
        assert start in (k, (k + 1) % 64)
        assert still[start] == 3.0


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
    @pytest.mark.parametrize("grad_sup, t_end", [(1e308, 10.0), (1.0, math.inf)],
                             ids=["huge_grad_sup", "infinite_T"])
    def test_proposal_count_beyond_max_proposals_refused(self, grad_sup, t_end):
        with pytest.raises(ConfigError, match="MAX_PROPOSALS"):
            simulate_torus_vjp(lambda x: np.zeros(2), grad_sup,
                               _q_circle, 1.0, 1.0,
                               TorusVJPState(np.zeros(2), np.array([1.0, 0.0])),
                               t_end, SeedSpec(0, 0))

    def test_uniform_equilibrium_d2(self):
        log = simulate_torus_vjp(lambda x: np.zeros(2), 0.0,
                                 _q_circle, 1.0, 1.0,
                                 TorusVJPState(np.zeros(2), np.array([1.0, 0.0])),
                                 1e5, SeedSpec(41, 0))
        pts = _subsampled_positions(log, 0.05)
        hist = np.histogram2d(pts[:, 0], pts[:, 1], bins=32,
                              range=[[0, TWO_PI]] * 2)[0]
        p = hist / hist.sum()
        assert 0.5 * np.abs(p - 1.0 / 1024).sum() < 0.03

    def test_csv_columns_d2(self):
        log = simulate_torus_vjp(lambda x: np.zeros(2), 0.0,
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

        log = simulate_torus_vjp(lambda x: np.array([pot.dv_scalar(float(x[0]))]),
                                 pot.dv_sup, q_pm, 1.0, 1.0,
                                 TorusVJPState(np.zeros(1), np.ones(1)),
                                 1e5, SeedSpec(43, 0))
        assert empirical_tv(log, invariant_density(pot)) < 0.03

    def test_product_potential_marginal_uniform(self):
        # V(x1, x2) = cos x1: the x2 marginal stays uniform
        log = simulate_torus_vjp(lambda x: np.array([-math.sin(float(x[0])), 0.0]),
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

    def test_only_1d_logs_are_analysed(self):
        target = invariant_density(zero_potential())
        analyses = (velocity_fraction, lambda log: occupation_histogram(log, target.grid),
                    lambda log: empirical_tv(log, target))
        log2 = simulate_torus_vjp(lambda x: np.zeros(2), 0.0, _q_circle, 1.0, 1.0,
                                  TorusVJPState(np.zeros(2), np.array([1.0, 0.0])),
                                  50.0, SeedSpec(59, 0))
        for analyse in analyses:
            with pytest.raises(DomainError, match="only 1-D event logs"):
                analyse(log2)
        log1 = simulate_torus_vjp(lambda x: np.zeros(1), 0.0,
                                  lambda gen: np.array([1.0 if gen.random() < 0.5 else -1.0]),
                                  1.0, 1.0, TorusVJPState(np.zeros(1), np.ones(1)),
                                  50.0, SeedSpec(59, 0))
        for log in (log1, telegraph(zero_potential(), 50.0, seed=59)):
            assert 0.0 < velocity_fraction(log) < 1.0
            assert occupation_histogram(log, target.grid).sum() == pytest.approx(50.0)
            assert 0.0 < empirical_tv(log, target) < 1.0
