import math
from pathlib import Path

import numpy as np
import pytest

from helpers import (A_STAR_2RHOC, B_STAR_RHO4, RHO_2_COS2, RHO_C_COS2,
                     R_OF_RHO_4, bessel_i, brute_moments, brute_r_of_rho,
                     reference_fbar, reference_jacobian)
from sivjp import (PeriodicGrid, fbar, find_fixed_points, free_energy,
                   integrate_flow, jacobian_fbar, laplace_check, moments,
                   pibar, quad_periodic, rho_2, rho_c, solve_r_of_rho)
from sivjp import equilibria
from sivjp.equilibria import GridDensity, census_signature, classify, field_grid
from sivjp.errors import DomainError, NumericError
from sivjp.geometry import DENSITY_GRID, THRESHOLD_GRID, TWO_PI
from sivjp.harness import ExperimentConfig
from sivjp.model import ModelSpec
from sivjp.potentials import (cos_potential, cos2_potential, frozen_potential,
                              grid_potential, trig_potential, two_well_potential,
                              zero_potential)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
ZERO = ModelSpec(potential=zero_potential(), rho=0.0)
COS2 = lambda rho: ModelSpec(potential=cos2_potential(), rho=rho)
TABLE_MODELS = (COS2(2.5), ModelSpec(potential=two_well_potential(), rho=6.0),
                ModelSpec(potential=zero_potential(), rho=4.0),
                ModelSpec(potential=grid_potential([0.3, -0.1, 0.5, 0.2, -0.4, 0.0]),
                          rho=-3.0))


def assert_near_reference(model, grid, a, b, f, jac):
    """f and jac within round-off of Fbar and its Jacobian on the reference
    path: 1e-14, and 1e-14 max(1, |rho|) for the Jacobian, which is rho * Cov."""
    assert np.max(np.abs(np.subtract(f, reference_fbar(model, a, b, grid)))) <= 1e-14
    assert np.max(np.abs(jac - reference_jacobian(model, a, b, grid))) \
        <= 1e-14 * max(1.0, abs(model.rho))


def assert_roots_near(got, want, tol=1e-12):
    """Two lists of Newton results, None or (a, b), agree entry by entry:
    the same entries are None and the roots are within tol."""
    assert [g is None for g in got] == [w is None for w in want]
    for g, w in zip(got, want):
        if g is not None:
            assert math.hypot(g[0] - w[0], g[1] - w[1]) <= tol


def reference_newton(model, grid, a, b):
    """The census's Newton iteration from one start, on the reference path."""
    x = np.array([a, b], dtype=float)
    for _ in range(equilibria.NEWTON_MAX_ITER):
        f = np.array(reference_fbar(model, x[0], x[1], grid))
        if np.hypot(f[0], f[1]) < equilibria.NEWTON_TOL:
            return float(x[0]), float(x[1])
        try:
            step = np.linalg.solve(reference_jacobian(model, x[0], x[1], grid), -f)
        except np.linalg.LinAlgError:
            return None
        norm = float(np.hypot(step[0], step[1]))
        if norm > 0.5:
            step *= 0.5 / norm
        x = x + step
        if np.hypot(x[0], x[1]) > 1.5:
            return None
    return None


def reference_census(model, grid):
    """find_fixed_points one point at a time on the reference path: for a
    constant U the ring through the root of Fbar_a(a, 0), bisected on
    [1e-9, 1]; otherwise Newton start by start. One record per root."""
    if model.du_sup == 0.0:
        lo, hi = 1e-9, 1.0
        while 0.5 * (lo + hi) not in (lo, hi):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if reference_fbar(model, mid, 0.0, grid)[0] > 0.0 else (lo, mid)
        roots = [(0.0, 0.0)] + equilibria._ring(0.5 * (lo + hi))
    else:
        roots = []
        ticks = np.linspace(-1.0, 1.0, equilibria.SWEEP_TICKS)
        for a0 in ticks:
            for b0 in ticks:
                if math.hypot(a0, b0) <= 1.0 + 1e-12:
                    res = reference_newton(model, grid, a0, b0)
                    if res is not None and all(
                            math.hypot(res[0] - pa, res[1] - pb) >= equilibria.DEDUP_DIST
                            for pa, pb in roots):
                        roots.append(res)
    records = []
    for a, b in sorted(roots, key=lambda p: (round(p[0] / equilibria.DEDUP_DIST), p[1])):
        jac = reference_jacobian(model, a, b, grid)
        eig = np.linalg.eigvals(jac)
        eig = eig[np.lexsort((eig.imag, eig.real))]
        rec = equilibria.FixedPointRecord(a=a, b=b,
                                          residual=math.hypot(*reference_fbar(model, a, b, grid)),
                                          jacobian=jac, eigenvalues=eig,
                                          stability=classify(eig))
        if rec.residual < equilibria.RESIDUAL_TOL:
            records.append(rec)
    return records


class TestPibar:
    def test_uniform(self):
        d = pibar(ZERO, 0.0, 0.0)
        assert np.allclose(d.values, 1.0 / TWO_PI, rtol=1e-14)

    def test_tilt_ratio(self):
        d = pibar(ModelSpec(potential=zero_potential(), rho=2.0), 1.0, 0.0)
        ratio = d.values.max() / d.values.min()
        assert ratio == pytest.approx(math.exp(4.0), rel=1e-10)
        assert np.argmax(d.values) == 0
        assert np.argmin(d.values) == d.grid.n // 2

    def test_cos2_symmetries(self):
        d = pibar(COS2(1.0), 0.0, 0.0)
        n = d.grid.n
        assert np.max(np.abs(d.values - np.roll(d.values, n // 2))) < 1e-13
        reflected = d.values[np.concatenate([[0], np.arange(n - 1, 0, -1)])]
        assert np.max(np.abs(d.values - reflected)) < 1e-13

    def test_normalized(self):
        d = pibar(COS2(3.0), 0.4, -0.3)
        assert quad_periodic(d.values, d.grid) == pytest.approx(1.0, abs=1e-12)


class TestMoments:
    def test_uniform_zero(self):
        assert moments(pibar(ZERO, 0.0, 0.0)) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_bessel_ratio(self):
        # tilt exponent 2*cos(z): moment = I1(2)/I0(2), series oracle
        d = pibar(ModelSpec(potential=zero_potential(), rho=2.0), 1.0, 0.0)
        ma, mb = moments(d)
        assert ma == pytest.approx(bessel_i(1, 2.0) / bessel_i(0, 2.0), abs=1e-12)
        assert ma == pytest.approx(0.6977746579640081, abs=1e-12)
        assert abs(mb) < 1e-15

    def test_even_double_well_centred(self):
        ma, mb = moments(pibar(COS2(1.0), 0.0, 0.0))
        assert abs(ma) < 1e-13 and abs(mb) < 1e-13

    def test_against_brute_force(self):
        model = COS2(2.5)
        d = pibar(model, 0.35, -0.15)
        got = moments(d)
        want = brute_moments(2.5, 0.35, -0.15, u_fn=lambda z: -np.cos(2 * z))
        assert got == pytest.approx(want, abs=1e-10)


class TestFbar:
    def test_origin_fixed_when_no_exterior(self):
        for rho in (-1.0, 0.5, 3.0):
            f = fbar(ModelSpec(potential=zero_potential(), rho=rho), 0.0, 0.0)
            assert np.hypot(*f) < 1e-14

    def test_origin_fixed_for_centred_potential(self):
        assert np.hypot(*fbar(COS2(2.0), 0.0, 0.0)) < 1e-12

    def test_constructed_root(self):
        r4 = solve_r_of_rho(4.0)
        f = fbar(ModelSpec(potential=zero_potential(), rho=4.0), r4, 0.0,
                 THRESHOLD_GRID)
        assert np.hypot(*f) < 1e-10

    def test_rotational_equivariance_zero_potential(self):
        model = ModelSpec(potential=zero_potential(), rho=3.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = rng.random(2) * 1.2 - 0.6
            norm0 = np.hypot(*fbar(model, float(a), float(b)))
            phi = rng.random() * TWO_PI
            ar = a * math.cos(phi) - b * math.sin(phi)
            br = a * math.sin(phi) + b * math.cos(phi)
            norm1 = np.hypot(*fbar(model, float(ar), float(br)))
            assert abs(norm0 - norm1) < 1e-10

    def test_axis_component_odd(self):
        # U even about 0 and pi/2 makes Fbar_a(a, 0) odd in a, so the
        # census's roots off the b-axis come in mirror pairs (+-a, b)
        model = COS2(2.5)
        for a in (0.1, 0.4, 0.83):
            assert fbar(model, -a, 0.0)[0] == pytest.approx(-fbar(model, a, 0.0)[0],
                                                             abs=1e-15)

    def test_maps_disk_into_radius_two(self):
        rng = np.random.default_rng(6)
        model = COS2(4.0)
        for _ in range(20):
            a, b = rng.random(2) * 2.0 - 1.0
            if a * a + b * b <= 1.0:
                assert np.hypot(*fbar(model, float(a), float(b))) <= 2.0


class TestJacobian:
    def test_uniform_diagonal(self):
        for rho in (0.5, 1.0, 4.0):
            jac = jacobian_fbar(ModelSpec(potential=zero_potential(), rho=rho),
                                0.0, 0.0)
            want = np.diag([rho / 2.0 - 1.0] * 2)
            assert np.max(np.abs(jac - want)) < 1e-12

    def test_cos2_origin_diagonal(self):
        model = COS2(1.0)
        jac = jacobian_fbar(model, 0.0, 0.0)
        z = THRESHOLD_GRID.nodes
        m_u = pibar(model, 0.0, 0.0, THRESHOLD_GRID)
        c2 = quad_periodic(np.cos(z) ** 2 * m_u.values, THRESHOLD_GRID)
        s2 = quad_periodic(np.sin(z) ** 2 * m_u.values, THRESHOLD_GRID)
        assert jac[0, 0] == pytest.approx(c2 - 1.0, abs=1e-10)
        assert jac[1, 1] == pytest.approx(s2 - 1.0, abs=1e-10)
        assert abs(jac[0, 1]) < 1e-12 and abs(jac[1, 0]) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        pots = [zero_potential(), cos2_potential(), two_well_potential()]
        h = 1e-5
        for _ in range(25):
            model = ModelSpec(potential=pots[rng.integers(3)],
                              rho=float(rng.random() * 7.0 - 2.0))
            a, b = rng.random(2) * 1.6 - 0.8
            jac = jacobian_fbar(model, float(a), float(b))
            for i, (da, db) in enumerate([(h, 0.0), (0.0, h)]):
                fp = np.array(fbar(model, a + da, b + db))
                fm = np.array(fbar(model, a - da, b - db))
                assert np.max(np.abs((fp - fm) / (2 * h) - jac[:, i])) < 1e-6


class TestThresholds:
    def test_r_of_rho_requires_supercritical(self):
        with pytest.raises(DomainError):
            solve_r_of_rho(2.0)
        with pytest.raises(DomainError):
            solve_r_of_rho(1.5)

    def test_r_of_rho_near_threshold(self):
        assert solve_r_of_rho(2.01) < 0.15

    def test_r_of_rho_golden(self):
        r4 = solve_r_of_rho(4.0)
        assert r4 == pytest.approx(R_OF_RHO_4, abs=1e-15)
        assert r4 == pytest.approx(brute_r_of_rho(4.0), abs=1e-9)

    def test_r_of_rho_large_tilt(self):
        assert solve_r_of_rho(40.0) > 0.95

    def test_rho_c_uniform(self):
        assert rho_c(ZERO) == pytest.approx(2.0, abs=1e-12)

    def test_rho_c_cos2_vs_bessel_series(self):
        got = rho_c(COS2(0.0))
        want = 2.0 * bessel_i(0, 1.0) / (bessel_i(0, 1.0) + bessel_i(1, 1.0))
        assert abs(got - want) < 1e-8
        assert got == pytest.approx(RHO_C_COS2, abs=1e-12)

    def test_rho_2_cos2(self):
        got = rho_2(COS2(0.0))
        want = 2.0 * bessel_i(0, 1.0) / (bessel_i(0, 1.0) - bessel_i(1, 1.0))
        assert abs(got - want) < 1e-8
        assert got == pytest.approx(RHO_2_COS2, abs=1e-12)

    def test_rho_c_small_amplitude_limit(self):
        # U = -beta cos 2z -> rho_c -> 2 as beta -> 0
        vals = []
        for beta in (0.2, 0.05, 0.01):
            pot = frozen_potential(
                lambda z, bb=beta: -bb * np.cos(2 * z),
                lambda z, bb=beta: 2 * bb * np.sin(2 * z), name="scaled")
            vals.append(rho_c(ModelSpec(potential=pot, rho=0.0)))
        assert abs(vals[-1] - 2.0) < 0.01
        assert abs(vals[0] - 2.0) > abs(vals[-1] - 2.0)

    def test_rho_c_rejects_uncentred(self):
        with pytest.raises(DomainError):
            rho_c(ModelSpec(potential=cos_potential(), rho=0.0))


class TestAxisStage:
    def test_fused_field_and_jacobian_match_reference(self):
        # the node tables against the reference path, pibar -> moments, to round-off
        rng = np.random.default_rng(20260418)
        models = (COS2(2.5), ModelSpec(potential=two_well_potential(), rho=6.0),
                  ModelSpec(potential=zero_potential(), rho=4.0),
                  ModelSpec(potential=grid_potential([0.3, -0.1, 0.5, 0.2, -0.4, 0.0]),
                            rho=-3.0))
        for grid in (DENSITY_GRID, THRESHOLD_GRID):
            for model in models:
                tables = equilibria._NodeTables(model, grid)
                points = rng.uniform(-1.2, 1.2, size=(8, 2))
                assert np.any(np.hypot(*points.T) < 1.0) and np.any(np.hypot(*points.T) > 1.0)
                for a, b in points:
                    f, jac = tables.fbar_jacobian_many(np.array([a]), np.array([b]))
                    assert tables.fbar(a, b) == fbar(model, a, b, grid)
                    assert np.array_equal(jacobian_fbar(model, a, b, grid), jac[0])
                    assert_near_reference(model, grid, a, b, f[0], jac[0])
                    assert_near_reference(model, grid, a, b, tables.fbar(a, b), jac[0])

    def test_tables_raise_like_public_path(self):
        spike = frozen_potential(lambda z: np.where(np.abs(z - 1.0) < 0.01, np.inf, 0.0),
                                 lambda z: 0.0 * z, dv_sup=1.0, validate=False)
        cases = [(COS2(40.0), 20.0, DomainError),  # density underflows to 0
                 (COS2(40.0), 1e308, NumericError),  # log-density overflows
                 (COS2(40.0), math.nan, NumericError),
                 (ModelSpec(potential=spike, rho=1.0), 0.1, NumericError)]  # -inf entry
        for model, a, exc in cases:
            tables = equilibria._NodeTables(model, DENSITY_GRID)
            for evaluate in (lambda: reference_fbar(model, a, 0.3),
                             lambda: reference_jacobian(model, a, 0.3),
                             lambda: fbar(model, a, 0.3), lambda: jacobian_fbar(model, a, 0.3),
                             lambda: tables.fbar(a, 0.3),
                             lambda: tables.fbar_jacobian_many(np.array([a]), np.array([0.3]))):
                with np.errstate(over="ignore", invalid="ignore"), pytest.raises(exc):
                    evaluate()

    def test_underflow_raises_exactly_when_a_weight_is_zero(self):
        # 2 rho r, the spread of the log-density of zero and cos2 at (r, 0),
        # sweeps past -log(float min) = 708.4, where the tables stop skipping
        # the per-node test, and past 745.1, where the smallest weight
        # exp(logw - max logw) underflows to 0
        r = 0.9
        z = DENSITY_GRID.nodes
        underflows = set()
        for pot in (zero_potential(), cos2_potential()):
            for spread in np.linspace(700.0, 760.0, 61):
                model = ModelSpec(potential=pot, rho=float(spread) / (2.0 * r))
                tables = equilibria._NodeTables(model, DENSITY_GRID)
                logw = -pot.v(z) + model.rho * r * np.cos(z)
                if np.any(np.exp(logw - logw.max()) == 0.0):
                    underflows.add(float(spread))
                    with pytest.raises(DomainError):
                        tables.fbar(r, 0.0)
                    with pytest.raises(DomainError):
                        tables.fbar_jacobian_many(np.array([r]), np.array([0.0]))
                    continue
                f, jac = tables.fbar_jacobian_many(np.array([r]), np.array([0.0]))
                try:
                    assert_near_reference(model, DENSITY_GRID, r, 0.0, f[0], jac[0])
                    assert_near_reference(model, DENSITY_GRID, r, 0.0, tables.fbar(r, 0.0),
                                          jac[0])
                except DomainError:
                    # the reference divides each weight by the mass before its
                    # positivity check, so it may underflow a little earlier
                    pass
        assert min(underflows) == 746.0 and max(underflows) == 760.0

    def test_batched_field_and_jacobian_match_reference(self):
        # every point of a batch, whatever its size and position, against the reference path
        rng = np.random.default_rng(20261018)
        for grid in (DENSITY_GRID, THRESHOLD_GRID, PeriodicGrid(64)):
            for model in TABLE_MODELS:
                tables = equilibria._NodeTables(model, grid)
                for k in (1, 7, 4096 // grid.n + 1):
                    points = rng.uniform(-1.2, 1.2, size=(k, 2))
                    points[0] = (0.9, 0.8)  # outside the disk
                    if k > 1:
                        points[1] = (0.1, -0.2)  # inside
                    f, jac = tables.fbar_jacobian_many(points[:, 0], points[:, 1])
                    assert f.shape == (k, 2) and jac.shape == (k, 2, 2)
                    for (a, b), fi, ji in zip(points, f, jac):
                        assert_near_reference(model, grid, a, b, fi, ji)

    def test_batched_raises_like_scalar_loop(self):
        spike = frozen_potential(lambda z: np.where(np.abs(z - 1.0) < 0.01, np.inf, 0.0),
                                 lambda z: 0.0 * z, dv_sup=1.0, validate=False)
        cases = [(COS2(40.0), 20.0, DomainError),  # density underflows to 0
                 (COS2(40.0), 1e308, NumericError),  # log-density overflows
                 (COS2(40.0), math.nan, NumericError),
                 (ModelSpec(potential=spike, rho=1.0), 0.1, NumericError)]  # -inf entry
        for model, a, exc in cases:
            tables = equilibria._NodeTables(model, DENSITY_GRID)
            for a_vals in ([a], [0.2, -0.4, 0.05, a]):  # alone and last in a batch
                with np.errstate(over="ignore", invalid="ignore"), pytest.raises(exc):
                    tables.fbar_jacobian_many(np.array(a_vals), np.full(len(a_vals), 0.3))
        # two failing points: the first one's error, as in a loop over the points
        tables = equilibria._NodeTables(COS2(40.0), DENSITY_GRID)
        for a_vals, exc in (([20.0, math.nan], DomainError), ([math.nan, 20.0], NumericError)):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(exc):
                tables.fbar_jacobian_many(np.array(a_vals), np.full(2, 0.3))

class TestCensus:
    def test_single_sink_uniform_subcritical(self):
        recs = find_fixed_points(ModelSpec(potential=zero_potential(), rho=1.0))
        assert len(recs) == 1
        rec = recs[0]
        assert (rec.a, rec.b) == pytest.approx((0.0, 0.0), abs=1e-10)
        assert rec.stability == "Sink"
        assert np.allclose(rec.eigenvalues.real, -0.5, atol=1e-10)

    def test_three_points_at_twice_rho_c(self):
        recs = find_fixed_points(COS2(2.0 * RHO_C_COS2))
        assert len(recs) == 3
        by_class = {r.stability for r in recs}
        assert by_class == {"Sink", "Saddle"}
        origin = min(recs, key=lambda r: abs(r.a))
        assert origin.stability == "Saddle"
        sinks = sorted(r.a for r in recs if r.stability == "Sink")
        assert sinks == pytest.approx([-A_STAR_2RHOC, A_STAR_2RHOC], abs=1e-8)

    def test_five_points_above_rho_2(self):
        recs = find_fixed_points(COS2(4.0))
        assert len(recs) == 5
        sig = census_signature(recs)
        assert "2 Sink" in sig and "2 Saddle" in sig
        b_axis = [r for r in recs if abs(r.a) < 1e-8 and abs(r.b) > 1e-8]
        assert len(b_axis) == 2
        assert all(r.stability == "Saddle" for r in b_axis)
        assert sorted(abs(r.b) for r in b_axis) == pytest.approx(
            [B_STAR_RHO4] * 2, abs=1e-8)
        sinks = [r for r in recs if r.stability == "Sink"]
        assert sorted(abs(r.a) for r in sinks) == pytest.approx(
            [0.9181970677, 0.9181970677], abs=1e-7)

    @pytest.mark.parametrize("rho", [2.01, 4.0, 40.0])
    def test_constant_potential_census_is_the_ring(self, monkeypatch, rho):
        # U constant: the origin plus RING_POINTS points of the circle of
        # radius r(rho), from _ring_radius, with no Newton sweep
        def no_sweep(tables, starts):
            raise AssertionError("Newton sweep ran on a constant potential")

        monkeypatch.setattr(equilibria, "_newton_lockstep", no_sweep)
        model = ModelSpec(potential=zero_potential(), rho=rho)
        recs = find_fixed_points(model)
        assert len(recs) == 1 + equilibria.RING_POINTS == 65
        points = [(r.a, r.b) for r in recs]
        radius = max(r.a for r in recs)
        assert abs(radius - solve_r_of_rho(rho)) <= 1e-10
        for axis_point in ((0.0, 0.0), (radius, 0.0), (-radius, 0.0),
                           (0.0, radius), (0.0, -radius)):
            assert axis_point in points
        ring = [r for r in recs if (r.a, r.b) != (0.0, 0.0)]
        angles = sorted(math.atan2(r.b, r.a) % TWO_PI for r in ring)
        assert np.max(np.abs(np.array(angles) - TWO_PI * np.arange(64) / 64)) <= 1e-14
        for rec in recs:
            assert rec.residual <= 1e-15
            if (rec.a, rec.b) == (0.0, 0.0):
                assert rec.stability == "Source"
            else:
                assert rec.stability == "Degenerate"
                assert abs(math.hypot(rec.a, rec.b) - radius) <= 1e-15
        # the same census, in the same order, on every grid
        for grid in (DENSITY_GRID, THRESHOLD_GRID):
            other = find_fixed_points(model, grid)
            assert len(other) == len(recs)
            for rec, alt in zip(recs, other):
                assert abs(rec.a - alt.a) <= 1e-14 and abs(rec.b - alt.b) <= 1e-14
                assert rec.stability == alt.stability
                assert np.max(np.abs(rec.jacobian - alt.jacobian)) <= 1e-14 * rho

    @pytest.mark.parametrize("potential", [cos_potential(), cos2_potential()],
                             ids=["cos", "cos2"])
    def test_non_constant_potential_census_is_the_sweep(self, monkeypatch, potential):
        # U not constant: the Newton sweep alone finds every root, with no
        # ring radius
        def no_ring(tables):
            raise AssertionError("ring radius solved for a non-constant potential")

        monkeypatch.setattr(equilibria, "_ring_radius", no_ring)
        model = ModelSpec(potential=potential, rho=4.0)
        recs = find_fixed_points(model)
        assert len(recs) >= 1
        for rec in recs:
            assert rec.residual < 1e-10
            assert max(abs(v) for v in fbar(model, rec.a, rec.b)) < 1e-10

    def test_mirror_roots_ordered_by_b(self, monkeypatch):
        # two_well at rho = 30 has a Saddle pair (0.1037..., +-0.9762...)
        # whose a differ by round-off: the census orders it by b, b < 0
        # first, however the last bits of each a fall
        model = ModelSpec(potential=two_well_potential(), rho=30.0)
        recs = find_fixed_points(model)
        saddles = [r for r in recs if r.stability == "Saddle"]
        assert len(saddles) == 2 and abs(saddles[0].a - saddles[1].a) < 1e-12
        assert saddles[0].b < 0.0 < saddles[1].b
        want = [(r.a, r.b) for r in recs]
        roots = equilibria._roots

        for ulps in (-4, 4):
            def nudged(*args):
                return [(a + ulps * math.copysign(1.0, b) * math.ulp(a), b)
                        for a, b in roots(*args)]

            monkeypatch.setattr(equilibria, "_roots", nudged)
            got = [(r.a, r.b) for r in find_fixed_points(model)]
            assert len(got) == len(want)
            for (ga, gb), (wa, wb) in zip(got, want):
                assert abs(ga - wa) <= 8 * math.ulp(wa) and gb == wb

    def test_mirror_images_present(self):
        # Sum_k c_k cos 2kz is even about 0 and pi/2, so every root's
        # mirror images (a, -b) and (-a, b) are roots of the same class
        rng = np.random.default_rng(11)
        rhos = (-15.0, -4.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0)
        for _ in range(40):
            n_terms = int(rng.integers(1, 5))
            amp = (0.3, 1.0, 2.0)[int(rng.integers(3))]
            cos_coef = [0.0] * (2 * n_terms)
            for k in range(1, n_terms + 1):
                cos_coef[2 * k - 1] = float(rng.normal(0.0, amp / k))
            rho = rhos[int(rng.integers(len(rhos)))]
            recs = find_fixed_points(ModelSpec(potential=trig_potential(cos_coef), rho=rho))
            for rec in recs:
                for ma, mb in ((rec.a, -rec.b), (-rec.a, rec.b)):
                    mirror = min(recs, key=lambda r: math.hypot(r.a - ma, r.b - mb))
                    assert math.hypot(mirror.a - ma, mirror.b - mb) <= 1e-9
                    assert mirror.stability == rec.stability

    def test_underflow_names_rho(self):
        # a tilted density underflows once rho * r passes about 350
        with pytest.raises(DomainError, match=r"rho = 400\.0 .*rho \* r <~ 350"):
            find_fixed_points(COS2(400.0))
        assert find_fixed_points(COS2(300.0))

    def test_missed_root_breaks_the_index_sum(self):
        # at rho = 30 the sweep finds a Saddle and a Sink but misses a
        # Source near (-0.018, -0.059), whose Newton basin is narrower than
        # the grid's spacing: the indices sum to 0, not 1
        model = ModelSpec(potential=trig_potential((-0.499,), (-1.66,)), rho=30.0)
        with pytest.raises(NumericError, match=r"rho = 30\.0 has index sum 0, not 1"):
            find_fixed_points(model)
        records = find_fixed_points(COS2(4.0))
        assert census_signature(records) == "2 Saddle, 2 Sink, 1 Source"

    def test_residuals_small(self):
        for rec in find_fixed_points(COS2(3.0)):
            assert rec.residual < 1e-10

    def test_lockstep_census_equals_sequential(self):
        for model in TABLE_MODELS:
            got = find_fixed_points(model, DENSITY_GRID)
            want = reference_census(model, DENSITY_GRID)
            # matched by position, not by index: a root within round-off of a
            # bucket edge of the sort may land on the other side of it
            assert len(got) == len(want)
            matched = set()
            for rec in got:
                i = min(range(len(want)),
                        key=lambda j: math.hypot(want[j].a - rec.a, want[j].b - rec.b))
                assert math.hypot(want[i].a - rec.a, want[i].b - rec.b) <= 1e-12
                assert want[i].stability == rec.stability
                matched.add(i)
            assert len(matched) == len(want)

    def test_singular_start_dropped(self, monkeypatch):
        model = COS2(2.5)
        tables = equilibria._NodeTables(model, DENSITY_GRID)
        ticks = np.linspace(-1.0, 1.0, equilibria.SWEEP_TICKS)
        starts = np.array([(a, b) for a in ticks for b in ticks if math.hypot(a, b) <= 1.0])
        want = [reference_newton(model, DENSITY_GRID, a, b) for a, b in starts]
        assert_roots_near(equilibria._newton_lockstep(tables, starts), want)
        bad = 40
        assert want[bad] is not None
        evaluate = equilibria._NodeTables.fbar_jacobian_many

        def singular_at_bad_start(self, a, b):
            f, jac = evaluate(self, a, b)
            jac[(a == starts[bad, 0]) & (b == starts[bad, 1])] = 0.0
            return f, jac

        monkeypatch.setattr(equilibria._NodeTables, "fbar_jacobian_many",
                            singular_at_bad_start)
        got = equilibria._newton_lockstep(tables, starts)
        assert got[bad] is None
        assert_roots_near(got[:bad] + got[bad + 1:], want[:bad] + want[bad + 1:])

    def test_census_transitions_at_thresholds(self):
        # 50-point scan across each threshold; census changes exactly once,
        # within one grid step of the quadrature-computed constant, and
        # Degenerate flags never appear away from the threshold itself
        for thr in (RHO_C_COS2, RHO_2_COS2):
            rhos = np.linspace(thr - 0.25, thr + 0.25, 50)
            counts = []
            for r in rhos:
                recs = find_fixed_points(COS2(float(r)))
                counts.append(len(recs))
                if abs(r - thr) > 1e-6:
                    assert all(rec.stability != "Degenerate" for rec in recs)
            jumps = [i for i in range(49) if counts[i + 1] != counts[i]]
            assert len(jumps) == 1
            crossing = 0.5 * (rhos[jumps[0]] + rhos[jumps[0] + 1])
            assert abs(crossing - thr) <= (rhos[1] - rhos[0])

    def test_json_serialization(self):
        import json
        recs = find_fixed_points(COS2(3.0))
        data = json.loads(json.dumps([r.as_dict() for r in recs]))
        assert len(data) == 3
        assert set(data[0]) == {"a", "b", "residual", "jac", "eig_re", "eig_im",
                                "stability"}

    def test_classify_tolerance(self):
        assert classify(np.array([-0.5 + 0j, -1e-9 + 0j])) == "Degenerate"
        assert classify(np.array([-0.5 + 0j, -1e-3 + 0j])) == "Sink"
        assert classify(np.array([0.2 + 0j, -1e-3 + 0j])) == "Saddle"
        assert classify(np.array([0.2 + 0j, 1e-3 + 0j])) == "Source"


class TestFieldGrid:
    POTENTIALS = (zero_potential(), cos_potential(), cos2_potential(), two_well_potential())
    RHOS = (-3.0, 0.5, 1.2, 4.0, 10.0, 40.0)

    def test_node_counts(self):
        for pot in self.POTENTIALS:
            for rho in self.RHOS + (1e4,):
                assert field_grid(ModelSpec(potential=pot, rho=rho)).n <= DENSITY_GRID.n
            assert field_grid(ModelSpec(potential=pot, rho=4.0)).n == 64
        assert field_grid(COS2(40.0)).n == 128
        assert field_grid(ModelSpec(potential=two_well_potential(), rho=30.0)).n == 128
        frozen = frozen_potential(lambda z: -np.cos(2 * z), lambda z: 2 * np.sin(2 * z))
        for rho in (0.0, 4.0):
            assert field_grid(ModelSpec(potential=frozen, rho=rho)).n == DENSITY_GRID.n

    def test_field_matches_finest_grid(self):
        # within radius 1.5, where the census's Newton iterates stay
        rng = np.random.default_rng(20261019)
        radius = 1.5 * np.sqrt(rng.random(200))
        angle = rng.uniform(0.0, TWO_PI, 200)
        points = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
        for pot in self.POTENTIALS:
            for rho in self.RHOS:
                model = ModelSpec(potential=pot, rho=rho)
                f, jac = equilibria._NodeTables(model, field_grid(model)).fbar_jacobian_many(
                    points[:, 0], points[:, 1])
                # the 4096-node tables, within round-off of the reference path
                # (test_batched_field_and_jacobian_match_reference)
                f_ref, jac_ref = equilibria._NodeTables(model, THRESHOLD_GRID).fbar_jacobian_many(
                    points[:, 0], points[:, 1])
                assert np.max(np.abs(f - f_ref)) <= 1e-14
                # the Jacobian is rho * Cov, so its round-off grows with |rho|:
                # 512 nodes are 4e-14 off the 4096-node values at rho = 40
                assert np.max(np.abs(jac - jac_ref)) <= 1e-14 * max(1.0, abs(rho))

    def test_census_matches_density_grid_on_shipped_configs(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            cfg = ExperimentConfig.from_file(str(path))
            for rho in [cfg.model["rho"], *cfg.sweep.get("rhos", ())]:
                model = cfg.build_model(rho=rho)
                got, want = find_fixed_points(model), find_fixed_points(model, DENSITY_GRID)
                assert len(got) == len(want)
                for rec in got:
                    match = min(want, key=lambda r: math.hypot(r.a - rec.a, r.b - rec.b))
                    assert math.hypot(match.a - rec.a, match.b - rec.b) <= 1e-10
                    assert match.stability == rec.stability


class TestFreeEnergy:
    def test_uniform_entropy_only(self):
        d = pibar(ZERO, 0.0, 0.0)
        val = free_energy(ZERO, d)
        assert val == pytest.approx(math.log(1.0 / TWO_PI), abs=1e-12)
        assert val == pytest.approx(-1.8378770664, abs=1e-9)

    def test_two_routes_agree_on_tilted_densities(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            model = COS2(float(rng.random() * 5.0 - 1.0))
            a, b = rng.random(2) * 1.2 - 0.6
            free_energy(model, pibar(model, float(a), float(b)))  # asserts internally

    def test_positive_density_required(self):
        grid = PeriodicGrid(16)
        with pytest.raises(DomainError):
            GridDensity(grid=grid, values=np.zeros(16))

    def test_sinks_have_lower_free_energy_than_saddles(self):
        model = COS2(2.0 * RHO_C_COS2)
        recs = find_fixed_points(model)
        j_vals = {r.stability: free_energy(model, pibar(model, r.a, r.b))
                  for r in recs}
        assert j_vals["Sink"] < j_vals["Saddle"]

    def test_nonincreasing_along_flow(self):
        model = COS2(2.0 * RHO_C_COS2)
        trace = integrate_flow(model, (0.15, 0.1), 15.0, dt=0.02)
        pts = trace.points[::25]
        j_vals = [free_energy(model, pibar(model, float(a), float(b)))
                  for a, b in pts]
        assert all(j_vals[i + 1] <= j_vals[i] + 1e-9 for i in range(len(j_vals) - 1))

    def test_large_tilt_limit(self):
        # J(pibar(r, theta)) - J(pibar(1, x0)) -> U(theta) - U(x0)
        #                                        + (1/r - 1 + ln r)/2
        # theta grid kept away from x0, where the limit value crosses zero
        # and relative error is ill-conditioned
        pot = two_well_potential()
        model = ModelSpec(potential=pot, rho=200.0)
        x0 = math.pi  # global minimum of the default double well
        grid = PeriodicGrid(512)

        def j_at(r, theta):
            a, b = r * math.cos(theta), r * math.sin(theta)
            return free_energy(model, pibar(model, a, b, grid))

        j_ref = j_at(1.0, x0)
        offsets = [3 * math.pi / 8, math.pi / 2, 5 * math.pi / 8, 7 * math.pi / 8]
        for r in (0.5, 0.8, 1.0):
            for off in offsets:
                for sgn in (+1, -1):
                    theta = x0 + sgn * off
                    got = j_at(r, theta) - j_ref
                    want = (pot.v_scalar(theta) - pot.v_scalar(x0)
                            + 0.5 * (1.0 / r - 1.0 + math.log(r)))
                    assert abs(got - want) / abs(want) < 0.02


class TestLaplace:
    @staticmethod
    def _discrepancies(theta=1.234):
        f = lambda z: 1.0 - np.cos(z - theta)
        out = []
        for rr in (50.0, 100.0, 200.0, 400.0):
            quad, asym = laplace_check(f, 1.0, theta, rr)
            out.append(abs(quad / asym - 1.0))
        return out

    def test_discrepancy_below_two_percent_at_200(self):
        d = self._discrepancies()
        assert d[2] < 0.02

    def test_discrepancy_monotone_with_exponent_near_one(self):
        d = self._discrepancies()
        assert d[0] > d[1] > d[2] > d[3]
        x = np.log([1 / 50, 1 / 100, 1 / 200, 1 / 400])
        slope, _ = np.polyfit(x, np.log(d), 1)
        assert 0.7 <= slope <= 1.3

    def test_odd_function_vanishes(self):
        theta = 0.4
        quad, asym = laplace_check(lambda z: np.sin(z - theta), 0.0, theta, 100.0)
        assert asym == 0.0
        assert abs(quad) < 1e-12

    def test_quartic_higher_order_scaling(self):
        # f = (1 - cos)^2 has f''(theta) = 0; the integral is o((rho r)^{-3/2})
        theta = 2.0
        f = lambda z: (1.0 - np.cos(z - theta)) ** 2
        q200, _ = laplace_check(f, 0.0, theta, 200.0)
        q400, _ = laplace_check(f, 0.0, theta, 400.0)
        assert q400 < 0.25 * q200 * (200.0 / 400.0) ** -1.5
        # the integral scales like (rho r)^{-5/2}: ratio ~ 2^{-5/2}
        assert q400 / q200 == pytest.approx(2 ** -2.5, rel=0.1)

    def test_requires_vanishing_at_theta(self):
        with pytest.raises(DomainError):
            laplace_check(lambda z: np.cos(z), 1.0, 0.0, 50.0)
