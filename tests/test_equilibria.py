import math

import numpy as np
import pytest

from helpers import (A_STAR_2RHOC, B_STAR_RHO4, RHO_2_COS2, RHO_C_COS2,
                     R_OF_RHO_4, bessel_i, brute_moments, brute_r_of_rho)
from sivjp import (PeriodicGrid, fbar, find_fixed_points, free_energy,
                   integrate_flow, jacobian_fbar, laplace_check, moments,
                   pibar, quad_periodic, rho_2, rho_c, solve_r_of_rho)
from sivjp import equilibria
from sivjp.equilibria import GridDensity, census_signature, classify
from sivjp.errors import DomainError, NumericError
from sivjp.geometry import DENSITY_GRID, THRESHOLD_GRID, TWO_PI
from sivjp.model import ModelSpec
from sivjp.potentials import (cos_potential, cos2_potential, frozen_potential,
                              grid_potential, two_well_potential, zero_potential)

ZERO = ModelSpec(potential=zero_potential(), rho=0.0)
COS2 = lambda rho: ModelSpec(potential=cos2_potential(), rho=rho)


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
        r4 = solve_r_of_rho(4.0, tol=1e-12)
        assert r4 == pytest.approx(R_OF_RHO_4, abs=1e-10)
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
    def test_axis_component_odd(self):
        # the census mirrors each positive axis root to -a*, which relies on
        # Fbar_a(a, 0) being odd under the double axis symmetry
        model = COS2(2.5)
        for a in (0.1, 0.4, 0.83):
            assert fbar(model, -a, 0.0)[0] == pytest.approx(-fbar(model, a, 0.0)[0],
                                                             abs=1e-15)

    def test_asymmetric_potential_skips_axis_stage(self, monkeypatch):
        def no_axis_stage(residual):
            raise AssertionError("axis stage ran on an asymmetric potential")

        monkeypatch.setattr(equilibria, "_axis_root", no_axis_stage)
        model = ModelSpec(potential=cos_potential(), rho=1.0)
        recs = find_fixed_points(model)
        assert len(recs) >= 1
        for rec in recs:
            assert rec.residual < 1e-10
            assert max(abs(v) for v in fbar(model, rec.a, rec.b)) < 1e-10

    def test_fused_field_and_jacobian_bit_equal(self):
        # the census, flow and threshold node tables against the public path
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
                    f, jac = tables.fbar_jacobian(a, b)
                    assert f == fbar(model, a, b, grid) == tables.fbar(a, b)
                    assert np.array_equal(jac, jacobian_fbar(model, a, b, grid))

    def test_tables_raise_like_public_path(self):
        spike = frozen_potential(lambda z: np.where(np.abs(z - 1.0) < 0.01, np.inf, 0.0),
                                 lambda z: 0.0 * z, dv_sup=1.0, validate=False)
        cases = [(COS2(40.0), 20.0, DomainError),  # density underflows to 0
                 (COS2(40.0), 1e308, NumericError),  # log-density overflows
                 (COS2(40.0), math.nan, NumericError),
                 (ModelSpec(potential=spike, rho=1.0), 0.1, NumericError)]  # -inf entry
        for model, a, exc in cases:
            tables = equilibria._NodeTables(model, DENSITY_GRID)
            for evaluate in (lambda: fbar(model, a, 0.3), lambda: jacobian_fbar(model, a, 0.3),
                             lambda: tables.fbar(a, 0.3), lambda: tables.fbar_jacobian(a, 0.3)):
                with np.errstate(over="ignore", invalid="ignore"), pytest.raises(exc):
                    evaluate()


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

    def test_residuals_small(self):
        for rec in find_fixed_points(COS2(3.0)):
            assert rec.residual < 1e-10

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
            GridDensity(grid=grid, values=np.zeros(16), logZ=0.0)

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
