import math

import numpy as np
import pytest

from sivjp import SeedSpec, SIVJPConfig, TelegraphState, run_sitp, simulate_telegraph
from sivjp import potentials
from sivjp.errors import ConfigError, DomainError, RunawayRateError
from sivjp.geometry import DENSITY_GRID, THRESHOLD_GRID, TWO_PI
from sivjp.harness import config_schema
from sivjp.markov import TorusVJPState, simulate_torus_vjp
from sivjp.model import ModelSpec, proposal_budget
from sivjp.potentials import (check_derivative, cos_potential,
                              cos2_potential, frozen_potential, grid_potential,
                              local_minima, make_potential, trig_potential,
                              two_well_potential, zero_potential)


class TestFrozenPotential:
    def test_finite_difference_check_enforced(self):
        with pytest.raises(DomainError, match="derivative"):
            frozen_potential(lambda z: np.cos(z), lambda z: np.sin(z) * 0.9)

    def test_consistent_pair_accepted(self):
        pot = frozen_potential(lambda z: np.cos(3 * z), lambda z: -3 * np.sin(3 * z))
        assert pot.dv_sup == pytest.approx(1.05 * 3.0, rel=1e-4)

    def test_dv_sup_dominates_grid_max(self):
        # registry kinds: dv_sup is the exact bound sum_k k(|a_k| + |b_k|)
        z = np.linspace(0.0, TWO_PI, 200_001)
        for pot, coefs, true_max in (
                (cos_potential(), [(1, 1.0, 0.0)], 1.0),
                (cos2_potential(), [(2, -1.0, 0.0)], 2.0),
                (two_well_potential(), [(1, 0.2, 0.0), (2, -0.5, 0.0)], 1.1438),
                (zero_potential(), [], 0.0)):
            assert pot.dv_sup == sum(k * (abs(a) + abs(b)) for k, a, b in coefs)
            grid_max = float(np.max(np.abs(pot.dv(z))))
            assert grid_max == pytest.approx(true_max, abs=1e-4)
            assert pot.dv_sup >= grid_max

    def test_ddv_sup_dominates_grid_max(self):
        # registry kinds: ddv_sup is the exact bound sum_k k^2(|a_k| + |b_k|)
        # on |U''|; frozen_potential has none
        z = np.linspace(0.0, TWO_PI, 200_001)
        h = 1e-4
        z_grid = TWO_PI * np.arange(64) / 64
        custom = grid_potential(0.3 * np.cos(z_grid) - 0.5 * np.cos(2 * z_grid)
                                + 0.1 * np.sin(3 * z_grid))
        for pot, bound, true_max in (
                (cos_potential(), 1.0, 1.0), (cos2_potential(), 4.0, 4.0),
                (two_well_potential(), 2.2, 2.2), (zero_potential(), 0.0, 0.0),
                (custom, 0.3 + 4 * 0.5 + 9 * 0.1, 2.9028)):
            assert pot.ddv_sup == pytest.approx(bound, rel=1e-12)
            ddv = (pot.dv(z + h) - pot.dv(z - h)) / (2.0 * h)
            grid_max = float(np.max(np.abs(ddv)))
            assert grid_max == pytest.approx(true_max, abs=1e-3)
            assert pot.ddv_sup >= grid_max - 1e-6
        assert frozen_potential(np.cos, lambda z: -np.sin(z)).ddv_sup == math.inf

    def test_scalar_matches_vectorized(self):
        z = TWO_PI * np.arange(64) / 64
        custom = grid_potential(0.3 * np.cos(z) - 0.5 * np.cos(2 * z) + 0.1 * np.sin(3 * z))
        for pot in (two_well_potential(0.3, -0.7), zero_potential(), cos_potential(),
                    cos2_potential(), custom):
            for x in np.linspace(0, TWO_PI, 9):
                assert pot.v_scalar(float(x)) == pytest.approx(
                    float(pot.v(np.array([x]))[0]), abs=1e-14)
                assert pot.dv_scalar(float(x)) == pytest.approx(
                    float(pot.dv(np.array([x]))[0]), abs=1e-14)


class TestTrigPotential:
    def test_fixed_kinds_match_closed_forms(self):
        # bit-equal to the closed forms, so census and flow bits are kept
        a1, a2 = 0.2, -0.5
        for grid in (DENSITY_GRID, THRESHOLD_GRID):
            z = grid.nodes
            for pot, v, dv in (
                    (cos2_potential(), -np.cos(2.0 * z), 2.0 * np.sin(2.0 * z)),
                    (two_well_potential(a1, a2), a1 * np.cos(z) + a2 * np.cos(2.0 * z),
                     -a1 * np.sin(z) - 2.0 * a2 * np.sin(2.0 * z)),
                    (zero_potential(), np.zeros(grid.n), np.zeros(grid.n))):
                assert np.array_equal(pot.v(z), v)
                assert np.array_equal(pot.dv(z), dv)

    def test_sine_terms_and_constant(self):
        pot = trig_potential((0.5,), (0.0, -0.25), const=1.5)
        z = np.linspace(0.0, TWO_PI, 33)
        assert np.allclose(pot.v(z), 1.5 + 0.5 * np.cos(z) - 0.25 * np.sin(2 * z),
                           rtol=0, atol=1e-14)
        assert np.allclose(pot.dv(z), -0.5 * np.sin(z) - 0.5 * np.cos(2 * z),
                           rtol=0, atol=1e-14)
        assert pot.dv_sup == 1.0
        check_derivative(pot.v, pot.dv)

    @pytest.mark.parametrize("cos_coef, sin_coef, const", [
        ((np.nan,), (), 0.0), ((1.0,), (np.inf,), 0.0), ((), (), -np.inf)])
    def test_non_finite_coefficients_rejected(self, cos_coef, sin_coef, const):
        with pytest.raises(ConfigError, match="finite"):
            trig_potential(cos_coef, sin_coef, const=const)


class TestGridPotential:
    def test_interpolates_samples_exactly(self):
        n = 64
        z = TWO_PI * np.arange(n) / n
        vals = 0.3 * np.cos(z) - 0.5 * np.cos(2 * z) + 0.1 * np.sin(3 * z)
        pot = grid_potential(vals)
        assert np.max(np.abs(pot.v(z) - vals)) < 1e-12
        assert pot.dv_sup == pytest.approx(0.3 + 2 * 0.5 + 3 * 0.1, abs=1e-12)

    def test_derivative_is_exact_for_the_interpolant(self):
        n = 64
        z = TWO_PI * np.arange(n) / n
        pot = grid_potential(np.cos(z) + 0.25 * np.sin(2 * z))
        want = -np.sin(z) + 0.5 * np.cos(2 * z)
        assert np.max(np.abs(pot.dv(z) - want)) < 1e-12
        check_derivative(pot.v, pot.dv)  # finite-difference invariant

    def test_odd_sample_count_rejected(self):
        with pytest.raises(ConfigError):
            grid_potential(np.zeros(15))


class TestRegistry:
    def test_known_kinds(self):
        assert make_potential("zero").name == "zero"
        assert make_potential("cos2").name == "cos2"
        assert make_potential("two_well", {"a1": 0.1, "a2": 0.3}).name == "two_well(0.1,0.3)"
        vals = np.cos(TWO_PI * np.arange(16) / 16)
        assert make_potential("custom_grid", {"values": vals}).name == "custom-grid"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_potential("quartic")

    def test_custom_grid_needs_values(self):
        with pytest.raises(ConfigError):
            make_potential("custom_grid")

    def test_schema_matches_registry(self):
        # the config schema and the registry list the kinds and their
        # parameters in two files; they must agree
        model = config_schema()["properties"]["model"]["properties"]
        assert model["potential"]["enum"] == list(potentials.POTENTIAL_KINDS)
        takes = {name for _, names in potentials._REGISTRY.values() for name in names}
        assert set(model["params"]["properties"]) == takes


class TestLocalMinima:
    def test_two_well_default(self):
        minima = local_minima(two_well_potential())
        assert len(minima) == 2
        assert minima[0] == pytest.approx(0.0, abs=1e-6)
        assert minima[1] == pytest.approx(math.pi, abs=1e-6)

    def test_even_two_well_symmetric_pair(self):
        minima = local_minima(two_well_potential(0.2, 0.5))
        assert len(minima) == 2
        assert minima[0] + minima[1] == pytest.approx(TWO_PI, abs=1e-6)

    def test_single_well(self):
        assert len(local_minima(cos_potential())) == 1

    def test_flat_potential_has_none(self):
        assert local_minima(zero_potential()) == []


class TestRunawayGuard:
    # the proposal budget sits BUDGET_SIGMAS standard deviations above the
    # mean of the Poisson(lam_bar * T) count; under a constant envelope the
    # count is that Poisson variable, so a budget 10 deviations below the
    # mean must trip the guard
    @pytest.fixture
    def small_budget(self, monkeypatch):
        import sivjp.model as model
        monkeypatch.setattr(model, "BUDGET_SIGMAS", -10.0)
        monkeypatch.setattr(model, "BUDGET_SLACK", 0.0)

    def test_telegraph_guard(self, small_budget):
        with pytest.raises(RunawayRateError, match="budget"):
            simulate_telegraph(cos_potential(), 1.0, TelegraphState(0.0, 1),
                               1e4, SeedSpec(0, 0), lambda_bar_override=2.0)

    def test_engine_guard(self, small_budget):
        model = ModelSpec(potential=zero_potential(), rho=1.0)
        with pytest.raises(RunawayRateError, match="budget"):
            run_sitp(SIVJPConfig(model=model, t_end=1e4, seed=SeedSpec(0, 0),
                                 lambda_bar_override=model.thinning_bound))

    def test_torus_guard(self, small_budget):
        with pytest.raises(RunawayRateError, match="budget"):
            simulate_torus_vjp(lambda x: np.zeros(2), 0.0,
                               lambda gen: np.array([1.0, 0.0]), 1.0, 1.0,
                               TorusVJPState(np.zeros(2), np.array([1.0, 0.0])),
                               1e4, SeedSpec(0, 0))

    def test_default_budget_holds(self):
        # the same runs complete under the real budget
        run_sitp(SIVJPConfig(model=ModelSpec(potential=zero_potential(), rho=1.0),
                             t_end=1e4, seed=SeedSpec(0, 0), lambda_bar_override=2.0))
        assert proposal_budget(2.0, 1e4) == int(2e4 + 10.0 * math.sqrt(2e4) + 100.0)

    # a rate above the envelope breaks thinning's exactness; every loop
    # raises instead of silently biasing the law
    def test_telegraph_envelope_guard(self):
        with pytest.raises(RunawayRateError, match="envelope"):
            simulate_telegraph(_understated_cos(), 1.0, TelegraphState(0.0, 1),
                               100.0, SeedSpec(0, 0))

    def test_engine_envelope_guard(self):
        model = ModelSpec(potential=_understated_cos(), rho=0.0)
        with pytest.raises(RunawayRateError, match="envelope"):
            run_sitp(SIVJPConfig(model=model, t_end=100.0, seed=SeedSpec(0, 0)))

    def test_torus_envelope_guard(self):
        def run(grad_sup):
            return simulate_torus_vjp(
                lambda x: -np.sin(x), grad_sup,
                lambda gen: np.array([1.0, 0.0]), 1.0, 1.0,
                TorusVJPState(np.zeros(2), np.array([1.0, 0.0])), 100.0, SeedSpec(0, 0))
        with pytest.raises(RunawayRateError, match="envelope"):
            run(0.1)
        run(1.5)  # dominates sup|grad V| = sqrt(2)


def _understated_cos():
    """U = cos with dv_sup = 0.1, although sup|U'| = 1."""
    return frozen_potential(np.cos, lambda z: -np.sin(z), dv_sup=0.1)
