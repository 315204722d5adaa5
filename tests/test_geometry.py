import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TWO_PI_I0_1, bessel_i
from sivjp import PeriodicGrid, dist_t, quad_periodic, wrap
from sivjp.errors import ConfigError, DomainError, NumericError
from sivjp.geometry import DENSITY_GRID, TWO_PI, arc_sojourn, segments_sojourn

finite_reals = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False)


class TestWrap:
    def test_identity_cases(self):
        assert wrap(0.0) == 0.0
        assert wrap(TWO_PI) == 0.0
        assert wrap(-math.pi / 2) == pytest.approx(3 * math.pi / 2, abs=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            wrap(float("nan"))
        with pytest.raises(DomainError):
            wrap(float("inf"))

    @given(finite_reals)
    def test_range_and_idempotence(self, x):
        w = wrap(x)
        assert 0.0 <= w < TWO_PI
        assert wrap(w) == w

    @given(finite_reals, st.integers(min_value=-50, max_value=50))
    def test_periodicity(self, x, k):
        # equality as angles: the canonical representatives may sit on
        # opposite sides of the 0 ~ 2pi seam by float rounding
        diff = abs(wrap(x + TWO_PI * k) - wrap(x))
        assert min(diff, TWO_PI - diff) < 1e-7


class TestDist:
    def test_examples(self):
        assert dist_t(0.0, 0.0) == 0.0
        assert dist_t(0.0, math.pi) == pytest.approx(2.0, abs=1e-15)
        assert dist_t(0.0, math.pi / 2) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(0)
        xs, zs = rng.random(100) * TWO_PI, rng.random(100) * TWO_PI
        for x, z in zip(xs, zs):
            assert dist_t(x, z) == pytest.approx(dist_t(z, x), abs=1e-15)
            assert 0.0 <= dist_t(x, z) <= 2.0

    def test_triangle_inequality_bulk(self):
        rng = np.random.default_rng(1)
        pts = rng.random((10_000, 3)) * TWO_PI
        d01 = 2 * np.abs(np.sin(0.5 * (pts[:, 0] - pts[:, 1])))
        d12 = 2 * np.abs(np.sin(0.5 * (pts[:, 1] - pts[:, 2])))
        d02 = 2 * np.abs(np.sin(0.5 * (pts[:, 0] - pts[:, 2])))
        assert np.all(d01 + d12 - d02 > -1e-12)


class TestGrid:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            PeriodicGrid(3)
        with pytest.raises(ConfigError):
            PeriodicGrid(7)
        with pytest.raises(ConfigError):
            PeriodicGrid(2)
        g = PeriodicGrid(8)
        assert g.nodes.shape == (8,)
        assert g.nodes[1] == pytest.approx(TWO_PI / 8)

    def test_nodes_cached_read_only(self):
        g = PeriodicGrid(16)
        before = pickle.dumps(g)
        assert g.nodes is g.nodes
        with pytest.raises(ValueError):
            g.nodes[0] = 1.0
        assert pickle.dumps(g) == before  # the cache is not pickled
        assert PeriodicGrid(512) == DENSITY_GRID
        assert hash(PeriodicGrid(512)) == hash(DENSITY_GRID)


class TestQuadrature:
    def test_constant(self):
        g = PeriodicGrid(16)
        assert quad_periodic(np.ones(16), g) == pytest.approx(TWO_PI, rel=1e-15)

    def test_cos_harmonic(self):
        g = PeriodicGrid(16)
        assert abs(quad_periodic(np.cos(g.nodes), g)) < 1e-14

    def test_bessel_value_vs_series(self):
        # independent oracle: I0(1) from its power series
        g = PeriodicGrid(64)
        got = quad_periodic(np.exp(np.cos(g.nodes)), g)
        assert got == pytest.approx(TWO_PI * bessel_i(0, 1.0), abs=1e-12)
        assert got == pytest.approx(TWO_PI_I0_1, abs=1e-12)

    @given(st.integers(min_value=3, max_value=6).map(lambda k: 2 ** k),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_exact_on_trig_polynomials(self, n, data):
        # exact (1e-13 relative) for degree < n/2
        g = PeriodicGrid(n)
        deg = data.draw(st.integers(min_value=1, max_value=n // 2 - 1))
        coeffs = data.draw(st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=2 * deg + 1, max_size=2 * deg + 1))
        c0 = coeffs[0]
        vals = np.full(n, c0)
        for k in range(1, deg + 1):
            vals += coeffs[2 * k - 1] * np.cos(k * g.nodes)
            vals += coeffs[2 * k] * np.sin(k * g.nodes)
        want = TWO_PI * c0
        scale = max(1.0, sum(abs(c) for c in coeffs)) * TWO_PI
        assert abs(quad_periodic(vals, g) - want) < 1e-13 * scale

    def test_nonfinite_error_carries_node(self):
        g = PeriodicGrid(8)
        vals = np.ones(8)
        vals[5] = np.nan
        with pytest.raises(NumericError, match="node index 5"):
            quad_periodic(vals, g)


class TestArcSojourn:
    def test_mass_conservation(self):
        g = PeriodicGrid(32)
        for length in (0.3, 5.0, 13.7):
            masses = arc_sojourn(1.0, 1, length, g)
            assert masses.sum() == pytest.approx(length, rel=1e-12)
            masses = arc_sojourn(1.0, -1, length, g)
            assert masses.sum() == pytest.approx(length, rel=1e-12)

    def test_full_lap_uniform(self):
        g = PeriodicGrid(32)
        masses = arc_sojourn(0.37, 1, TWO_PI, g)
        assert np.allclose(masses, g.h, rtol=1e-12)

    def test_short_arc_in_one_cell(self):
        g = PeriodicGrid(32)
        # arc entirely inside the cell centered on node 0
        masses = arc_sojourn(TWO_PI - 0.04, 1, 0.08, g)
        assert masses[0] == pytest.approx(0.08, rel=1e-12)
        assert masses[1:].sum() == pytest.approx(0.0, abs=1e-15)

    def test_batched_matches_loop(self):
        g = PeriodicGrid(64)
        rng = np.random.default_rng(7)
        starts = rng.random(200) * TWO_PI
        dirs = np.where(rng.random(200) < 0.5, 1, -1)
        lengths = rng.random(200) * 9.0
        total = segments_sojourn(starts, dirs, lengths, g, chunk=17)
        ref = np.zeros(64)
        for s, d, ln in zip(starts, dirs, lengths):
            arc_sojourn(s, int(d), float(ln), g, out=ref)
        assert np.allclose(total, ref, atol=1e-10)
