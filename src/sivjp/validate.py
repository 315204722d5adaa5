"""Self-checks behind `sivjp validate`: each function returns a short
deterministic detail string on success and raises on failure.

Details never include wall-clock or environment data, so a report produced
with a given master seed is byte-identical across runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import equilibria
from .engine import (OccupationStats, advect_occupation, drift_vprime, run_sitp,
                     simulate_telegraph)
from .geometry import PeriodicGrid, TWO_PI, dist_t, quad_periodic, wrap
from .markov import ks_uniform
from .model import ModelSpec, SIVJPConfig, TelegraphState
from .potentials import cos2_potential, zero_potential
from .rng import SeedSpec, derive_stream


def _fmt(x: float) -> str:
    return "%.12g" % x


def check_wrap(master_seed: int) -> str:
    gen = derive_stream(SeedSpec(master_seed, 901))
    xs = (gen.random(1000) - 0.5) * 100.0
    worst = 0.0
    for x in xs:
        w = wrap(float(x))
        if not (0.0 <= w < TWO_PI):
            raise AssertionError(f"wrap({x}) = {w} outside [0, 2pi)")
        worst = max(worst, abs(wrap(w) - w), abs(wrap(float(x) + 4.0 * math.pi) - w))
    if worst > 1e-9:
        raise AssertionError(f"wrap not idempotent/periodic: {worst:.3e}")
    return f"max deviation {_fmt(worst)}"


def check_triangle(master_seed: int) -> str:
    gen = derive_stream(SeedSpec(master_seed, 902))
    pts = gen.random((10000, 3)) * TWO_PI
    slack = min(dist_t(x, y) + dist_t(y, z) - dist_t(x, z) for x, y, z in pts.tolist())
    if slack < -1e-12:
        raise AssertionError(f"triangle inequality violated by {slack:.3e}")
    return f"min slack {_fmt(max(slack, 0.0))}"


def check_quad_exactness(quad_n: int) -> str:
    grid = PeriodicGrid(quad_n)
    worst = 0.0
    for k in range(1, 8):
        ck = quad_periodic(np.cos(k * grid.nodes), grid)
        sk = quad_periodic(np.sin(k * grid.nodes), grid)
        worst = max(worst, abs(ck), abs(sk))
    const = abs(quad_periodic(np.ones(grid.n), grid) - TWO_PI)
    worst = max(worst, const)
    if worst > 1e-13 * TWO_PI:
        raise AssertionError(
            f"quadrature not exact on low harmonics at n={quad_n}: {worst:.3e}")
    return f"n={quad_n}, max residual {_fmt(worst)}"


def _bessel_i(order: int, x: float) -> float:
    term = (x / 2.0) ** order / math.factorial(order)
    total = term
    for m in range(1, 80):
        term *= (x / 2.0) ** 2 / (m * (m + order))
        total += term
    return total


def check_quad_bessel() -> str:
    grid = PeriodicGrid(64)
    got = quad_periodic(np.exp(np.cos(grid.nodes)), grid)
    want = TWO_PI * _bessel_i(0, 1.0)
    if abs(got - want) > 1e-10:
        raise AssertionError(f"quad {got!r} vs series {want!r}")
    return f"value {_fmt(got)}"


def check_stream_determinism(master_seed: int) -> str:
    a = derive_stream(SeedSpec(master_seed, 0)).random(1000)
    b = derive_stream(SeedSpec(master_seed, 0)).random(1000)
    if not np.array_equal(a, b):
        raise AssertionError("identical seeds gave different draws")
    return "1000 draws bit-identical"


def check_stream_separation(master_seed: int) -> str:
    a = derive_stream(SeedSpec(master_seed, 0)).random(1000)
    b = derive_stream(SeedSpec(master_seed, 1)).random(1000)
    n_diff = int(np.sum(a != b))
    if n_diff == 0:
        raise AssertionError("streams 0 and 1 are identical")
    return f"{n_diff}/1000 positions differ"


def check_advect_semigroup(master_seed: int) -> str:
    gen = derive_stream(SeedSpec(master_seed, 903))
    worst = 0.0
    for _ in range(50):
        a, b = 0.5 * (gen.random(2) - 0.5)
        occ = OccupationStats(r=0.1 + gen.random(), t=5.0 * gen.random(),
                              a=float(a), b=float(b))
        x0 = gen.random() * TWO_PI
        y = 1 if gen.random() < 0.5 else -1
        s, t = 3.0 * gen.random() + 1e-3, 3.0 * gen.random() + 1e-3
        joint = advect_occupation(occ, x0, y, s + t)
        split = advect_occupation(advect_occupation(occ, x0, y, s), x0 + y * s, y, t)
        worst = max(worst, abs(joint.a - split.a), abs(joint.b - split.b))
    if worst > 1e-12:
        raise AssertionError(f"semigroup property violated: {worst:.3e}")
    return f"max split-vs-joint deviation {_fmt(worst)}"


def check_moment_disk(master_seed: int) -> str:
    gen = derive_stream(SeedSpec(master_seed, 904))
    worst = 0.0
    for _ in range(20):
        model = ModelSpec(potential=cos2_potential(), rho=float(gen.random() * 6 - 1))
        a, b = gen.random(2) * 2.0 - 1.0
        ma, mb = equilibria.moments(equilibria.pibar(model, float(a), float(b)))
        worst = max(worst, math.hypot(ma, mb))
    if worst > 1.0 + 1e-12:
        raise AssertionError(f"moments left the unit disk: {worst!r}")
    return f"max moment norm {_fmt(worst)}"


def check_drift_formula() -> str:
    model = ModelSpec(potential=zero_potential(), rho=1.0)
    occ = OccupationStats(r=1.0, t=0.0, a=1.0, b=0.0)
    got = drift_vprime(model, math.pi / 2.0, occ)
    if abs(got - 1.0) > 1e-14:
        raise AssertionError(f"drift at pi/2 with (a,b)=(1,0): {got!r} != 1")
    return f"value {_fmt(got)}"


def check_jacobian_fd(master_seed: int) -> str:
    gen = derive_stream(SeedSpec(master_seed, 905))
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        pot = cos2_potential() if gen.random() < 0.5 else zero_potential()
        model = ModelSpec(potential=pot, rho=float(gen.random() * 6 - 2))
        a, b = gen.random(2) * 1.6 - 0.8
        jac = equilibria.jacobian_fbar(model, float(a), float(b))
        for i in range(2):
            da, db = (h, 0.0) if i == 0 else (0.0, h)
            f_plus = np.array(equilibria.fbar(model, a + da, b + db))
            f_minus = np.array(equilibria.fbar(model, a - da, b - db))
            fd = (f_plus - f_minus) / (2.0 * h)
            worst = max(worst, float(np.max(np.abs(fd - jac[:, i]))))
    if worst > 1e-6:
        raise AssertionError(f"analytic Jacobian vs finite differences: {worst:.3e}")
    return f"max componentwise error {_fmt(worst)}"


def check_rho_c_series() -> str:
    got = equilibria.rho_c(ModelSpec(potential=cos2_potential()))
    want = 2.0 * _bessel_i(0, 1.0) / (_bessel_i(0, 1.0) + _bessel_i(1, 1.0))
    if abs(got - want) > 1e-8:
        raise AssertionError(f"rho_c {got!r} vs Bessel series {want!r}")
    return f"rho_c {_fmt(got)}"


def check_census_cos2() -> str:
    pot = cos2_potential()
    n3 = len(equilibria.find_fixed_points(ModelSpec(potential=pot, rho=3.0)))
    n5 = len(equilibria.find_fixed_points(ModelSpec(potential=pot, rho=4.0)))
    if (n3, n5) != (3, 5):
        raise AssertionError(f"census (rho=3, rho=4) = ({n3}, {n5}) != (3, 5)")
    return "census 3 @ rho=3, 5 @ rho=4"


def check_free_energy() -> str:
    model = ModelSpec(potential=cos2_potential(), rho=2.0)
    d = equilibria.pibar(model, 0.3, -0.2)
    val = equilibria.free_energy(model, d)  # raises if the two routes disagree
    return f"J {_fmt(val)}"


def check_flow_equilibrium() -> str:
    from .flow import integrate_flow
    model = ModelSpec(potential=zero_potential(), rho=1.0)
    trace = integrate_flow(model, (0.0, 0.0), 5.0, dt=0.05)
    drift = float(np.max(np.abs(trace.points)))
    if drift > 1e-9:
        raise AssertionError(f"flow drifted off the equilibrium by {drift:.3e}")
    return f"max drift {_fmt(drift)}"


def check_rho0_reduction(master_seed: int) -> str:
    pot = cos2_potential()
    seed = SeedSpec(master_seed, 906)
    cfg = SIVJPConfig(model=ModelSpec(potential=pot, rho=0.0, lambda_min=1.0),
                      t_end=200.0, seed=seed, z0=TelegraphState(0.5, 1),
                      record_stride=50.0)
    trace = run_sitp(cfg)
    log = simulate_telegraph(pot, 1.0, TelegraphState(0.5, 1), 200.0, seed)
    if trace.n_events != log.jump_times.size:
        raise AssertionError(
            f"event counts differ: {trace.n_events} vs {log.jump_times.size}")
    if trace.final_state.x != log.x_final or trace.final_state.y != log.y_final:
        raise AssertionError("final states differ between the two engines")
    return f"{trace.n_events} matching events"


def check_exp_gaps(master_seed: int) -> str:
    log = simulate_telegraph(zero_potential(), 1.0, TelegraphState(0.0, 1),
                             20000.0, SeedSpec(master_seed, 907))
    gaps = np.diff(np.concatenate([[0.0], log.jump_times]))
    ks = ks_uniform(1.0 - np.exp(-gaps))
    if ks > 0.015:
        raise AssertionError(f"KS statistic {ks!r} too large for Exp(1) gaps")
    return f"KS {_fmt(ks)} over {gaps.size} gaps"
