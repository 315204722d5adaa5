"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here exactly as specified. Two gates (the
subcritical uniformity radii at rho close to the threshold, criterion 2 for
rho in {1, 1.9}, and the subcritical half of criterion 5) are expected to
fail: near the bifurcation the occupation moments relax like t^(rho/2-1)
(resp. t^(rho/rho_c-1)), so the stated horizon T = 1e4 cannot reach the
stated 0.05 radius. The analysis lives in the decisions ledger; the tests
state the criterion faithfully and report the honest outcome.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
import os

import numpy as np
import pytest

from helpers import A_STAR_2RHOC, RHO_C_COS2, bessel_i, final_radii, sitp_batch
from sivjp import (PeriodicGrid, SIVJPConfig, SeedSpec, TelegraphState,
                   empirical_tv, find_fixed_points, free_energy,
                   invariant_density, laplace_check, pibar,
                   pseudotrajectory_error, quad_periodic,
                   quadratic_kernel_grids, rho_c, run_sitp, run_sitp_general,
                   simulate_telegraph, solve_r_of_rho, velocity_fraction)
from sivjp.geometry import THRESHOLD_GRID, TWO_PI
from sivjp.harness import ExperimentConfig, classify_limit, cmd_localize, cmd_simulate
from sivjp.model import ModelSpec
from sivjp.potentials import cos_potential, cos2_potential, two_well_potential, zero_potential

WORKERS = min(8, os.cpu_count() or 1)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")


# ---------------------------------------------------------------------------

def test_criterion_01_invariant_measure_fixed_potential():
    """Telegraph with V = cos x: empirical occupation matches exp(-V)/Z."""
    pot = cos_potential()
    target = invariant_density(pot)
    tvs, fracs = [], []
    for k in range(4):
        log = simulate_telegraph(pot, 1.0, TelegraphState(0.0, 1), 1e5,
                                 SeedSpec(1001, k))
        tvs.append(empirical_tv(log, target))
        fracs.append(velocity_fraction(log))
    ok = all(tv < 0.02 for tv in tvs) and all(abs(f - 0.5) < 0.01 for f in fracs)
    report("criterion-01 invariant-measure", ok,
           f"TV {['%.4f' % tv for tv in tvs]}, velocity fractions "
           f"{['%.4f' % f for f in fracs]}")
    assert all(tv < 0.02 for tv in tvs)
    assert all(abs(f - 0.5) < 0.01 for f in fracs)


@pytest.mark.parametrize("rho", [0.5, 1.0, 1.9])
def test_criterion_02_subcritical_uniformity(rho):
    """U = 0, rho <= 2: final moment radius < 0.05 for >= 18/20 seeds.

    Expected to fail for rho in {1, 1.9}: the radius decays like
    t^(rho/2 - 1), so at T = 1e4 the typical radius is ~0.04 (rho = 1) and
    ~0.35 (rho = 1.9). See the decisions ledger.
    """
    radii = final_radii(sitp_batch("zero", rho, 1e4, master=1002, n_seeds=20,
                                   workers=WORKERS))
    n_ok = int((radii < 0.05).sum())
    report(f"criterion-02 subcritical rho={rho}", n_ok >= 18,
           f"{n_ok}/20 below 0.05 (median {np.median(radii):.4f})")
    assert n_ok >= 18, (
        f"{n_ok}/20 seeds below radius 0.05 at rho={rho}, T=1e4; the "
        f"near-threshold relaxation rate t^(rho/2-1) makes this gate "
        f"unattainable at this horizon (see decisions ledger)")


def test_criterion_03_supercritical_localization():
    """U = 0, rho = 4: radius near r(4), angle spread across quadrants."""
    r4 = solve_r_of_rho(4.0)
    batch = sitp_batch("zero", 4.0, 1e4, master=1003, n_seeds=20, workers=WORKERS)
    radii = final_radii(batch)
    n_ok = int((np.abs(radii - r4) < 0.05).sum())
    thetas = [math.atan2(b, a) % TWO_PI for (a, b, *_r) in batch]
    quadrants = {int(th // (math.pi / 2)) for th in thetas}
    ok = n_ok >= 18 and len(quadrants) >= 3
    report("criterion-03 supercritical", ok,
           f"{n_ok}/20 within 0.05 of r(4)={r4:.4f}; quadrants {sorted(quadrants)}")
    assert n_ok >= 18
    assert len(quadrants) >= 3


def test_criterion_04_threshold_constant_bessel():
    """rho_c for U = -cos 2z against the independent Bessel series."""
    got = rho_c(ModelSpec(potential=cos2_potential(), rho=0.0))
    want = 2.0 * bessel_i(0, 1.0) / (bessel_i(0, 1.0) + bessel_i(1, 1.0))
    ok = abs(got - want) < 1e-8
    report("criterion-04 rho_c-bessel", ok,
           f"quadrature {got:.12f} vs series {want:.12f}")
    assert abs(got - want) < 1e-8


def test_criterion_05a_double_well_subcritical():
    """U = -cos 2z at rho = 0.8 rho_c: radius < 0.05 for >= 18/20.

    Expected to fail: the slow eigenvalue at the Gibbs point is
    0.8 - 1 = -0.2, so the radius relaxes like t^-0.2 and is ~0.17 at
    T = 1e4. See the decisions ledger.
    """
    radii = final_radii(sitp_batch("cos2", 0.8 * RHO_C_COS2, 1e4, master=1005,
                                   n_seeds=20, workers=WORKERS))
    n_ok = int((radii < 0.05).sum())
    report("criterion-05a double-well subcritical", n_ok >= 18,
           f"{n_ok}/20 below 0.05 (median {np.median(radii):.4f})")
    assert n_ok >= 18, (
        f"{n_ok}/20 seeds below radius 0.05 at rho=0.8*rho_c, T=1e4; the "
        f"t^-0.2 relaxation makes this gate unattainable at this horizon "
        f"(see decisions ledger)")


def test_criterion_05b_double_well_supercritical_both_signs():
    """rho = 2 rho_c: >= 27/30 near (+-a*, 0) and both signs >= 5 times."""
    batch = sitp_batch("cos2", 2.0 * RHO_C_COS2, 1e4, master=1005,
                       n_seeds=30, workers=WORKERS)
    n_hit, n_plus, n_minus = 0, 0, 0
    for (a, b, *_r) in batch:
        if math.hypot(a - A_STAR_2RHOC, b) < 0.05:
            n_hit += 1
            n_plus += 1
        elif math.hypot(a + A_STAR_2RHOC, b) < 0.05:
            n_hit += 1
            n_minus += 1
    ok = n_hit >= 27 and n_plus >= 5 and n_minus >= 5
    report("criterion-05b double-well supercritical", ok,
           f"{n_hit}/30 within 0.05 of (+-{A_STAR_2RHOC:.4f}, 0); "
           f"signs +{n_plus}/-{n_minus}")
    assert n_hit >= 27
    assert n_plus >= 5 and n_minus >= 5


def test_criterion_06_saddle_avoidance():
    """No run of the supercritical batch is classified near-saddle."""
    model = ModelSpec(potential=cos2_potential(), rho=2.0 * RHO_C_COS2)
    census = find_fixed_points(model)
    from sivjp.engine import MomentTrace, OccupationStats
    n_near_saddle = 0
    batch = sitp_batch("cos2", 2.0 * RHO_C_COS2, 1e4, master=1005,
                       n_seeds=30, workers=WORKERS)
    for (a, b, times, a_vals, b_vals) in batch:
        trace = MomentTrace(times=np.asarray(times), a_vals=np.asarray(a_vals),
                            b_vals=np.asarray(b_vals), x_vals=np.empty(0),
                            y_vals=np.empty(0),
                            final=OccupationStats(r=1.0, t=1e4, a=a, b=b),
                            final_state=TelegraphState(0.0, 1),
                            n_events=0, n_proposals=0)
        label, _, _ = classify_limit(trace, census)
        n_near_saddle += label == "near-saddle"
    report("criterion-06 saddle-avoidance", n_near_saddle == 0,
           f"{n_near_saddle}/30 near-saddle at T=1e4")
    assert n_near_saddle == 0


def test_criterion_07_census_vs_rho_scan():
    """Census over 50 rho values in [0.5, 5]: 1 -> 3 -> 5 at the thresholds."""
    pot = cos2_potential()
    model0 = ModelSpec(potential=pot, rho=0.0)
    thr1 = rho_c(model0)
    thr2 = 1.0 / quad_periodic(
        np.sin(THRESHOLD_GRID.nodes) ** 2
        * pibar(model0, 0.0, 0.0, THRESHOLD_GRID).values, THRESHOLD_GRID)
    rhos = np.linspace(0.5, 5.0, 50)
    step = rhos[1] - rhos[0]
    counts = np.array([len(find_fixed_points(ModelSpec(potential=pot, rho=float(r))))
                       for r in rhos])
    ok = True
    detail = []
    for want_count, lo, hi in ((1, rhos[0], thr1), (3, thr1, thr2),
                               (5, thr2, rhos[-1])):
        inside = (rhos > lo + step) & (rhos < hi - step)
        ok &= bool(np.all(counts[inside] == want_count))
        detail.append(f"{want_count} on ({lo:.3f},{hi:.3f})")
    changes = np.flatnonzero(np.diff(counts) != 0)
    ok &= len(changes) == 2
    crossings = [0.5 * (rhos[i] + rhos[i + 1]) for i in changes]
    for crossing, thr in zip(crossings, (thr1, thr2)):
        ok &= abs(crossing - thr) <= step
    report("criterion-07 census-scan", ok,
           f"crossings at {[round(c, 3) for c in crossings]} vs thresholds "
           f"({thr1:.4f}, {thr2:.4f}), grid step {step:.4f}; " + "; ".join(detail))
    assert ok


def test_criterion_08_jacobian_correctness():
    """Analytic Jacobian vs central differences at 100 random configs."""
    rng = np.random.default_rng(1008)
    pots = [zero_potential(), cos2_potential(), two_well_potential()]
    h = 1e-5
    worst = 0.0
    from sivjp import fbar, jacobian_fbar
    for _ in range(100):
        model = ModelSpec(potential=pots[rng.integers(3)],
                          rho=float(rng.random() * 7.0 - 2.0))
        a, b = (rng.random(2) * 1.6 - 0.8)
        jac = jacobian_fbar(model, float(a), float(b))
        for i, (da, db) in enumerate([(h, 0.0), (0.0, h)]):
            fp = np.array(fbar(model, a + da, b + db))
            fm = np.array(fbar(model, a - da, b - db))
            worst = max(worst, float(np.max(np.abs((fp - fm) / (2 * h) - jac[:, i]))))
    exact = jacobian_fbar(ModelSpec(potential=zero_potential(), rho=3.0), 0.0, 0.0)
    diag_err = float(np.max(np.abs(exact - np.diag([0.5, 0.5]))))
    ok = worst < 1e-6 and diag_err < 1e-12
    report("criterion-08 jacobian", ok,
           f"max FD error {worst:.2e}; origin diagonal error {diag_err:.2e}")
    assert worst < 1e-6
    assert diag_err < 1e-12


def test_criterion_09_pseudotrajectory_decay():
    """Shadowing error decreases from flow-time anchor 3 to anchor 6."""
    model = ModelSpec(potential=zero_potential(), rho=4.0)
    batch = sitp_batch("zero", 4.0, 1.1e4, master=1009, n_seeds=20,
                       stride=1.02, log_stride=True, workers=WORKERS)
    from sivjp.engine import MomentTrace, OccupationStats
    early, late = [], []
    for (a, b, times, a_vals, b_vals) in batch:
        trace = MomentTrace(times=np.asarray(times), a_vals=np.asarray(a_vals),
                            b_vals=np.asarray(b_vals), x_vals=np.empty(0),
                            y_vals=np.empty(0),
                            final=OccupationStats(r=1.0, t=1.1e4, a=a, b=b),
                            final_state=TelegraphState(0.0, 1),
                            n_events=0, n_proposals=0)
        early.append(pseudotrajectory_error(trace, model, 3.0, 2.0))
        late.append(pseudotrajectory_error(trace, model, 6.0, 2.0))
    n_dec = sum(l < e for e, l in zip(early, late))
    ok = np.median(late) < np.median(early) and n_dec >= 16
    report("criterion-09 pseudotrajectory", ok,
           f"median {np.median(early):.4f} -> {np.median(late):.4f}; "
           f"{n_dec}/20 decreased")
    assert np.median(late) < np.median(early)
    assert n_dec >= 16


def test_criterion_10_laplace_asymptotics():
    """1 - cos test function: discrepancy monotone, < 2% at 200, slope ~ 1."""
    theta = 0.923
    f = lambda z: 1.0 - np.cos(z - theta)
    xs = [50.0, 100.0, 200.0, 400.0]
    discs = []
    for rr in xs:
        quad, asym = laplace_check(f, 1.0, theta, rr)
        discs.append(abs(quad / asym - 1.0))
    slope = float(np.polyfit(np.log([1.0 / x for x in xs]), np.log(discs), 1)[0])
    ok = (discs[2] < 0.02 and all(discs[i] > discs[i + 1] for i in range(3))
          and 0.7 <= slope <= 1.3)
    report("criterion-10 laplace", ok,
           f"discrepancies {['%.5f' % d for d in discs]}, exponent {slope:.3f}")
    assert discs[2] < 0.02
    assert all(discs[i] > discs[i + 1] for i in range(3))
    assert 0.7 <= slope <= 1.3


def test_criterion_11_free_energy_limit():
    """Sharp-tilt free-energy differences against the explicit limit."""
    pot = two_well_potential()
    model = ModelSpec(potential=pot, rho=200.0)
    x0 = math.pi
    grid = PeriodicGrid(512)

    def j_at(r, theta):
        return free_energy(model, pibar(model, r * math.cos(theta),
                                        r * math.sin(theta), grid))

    j_ref = j_at(1.0, x0)
    worst = 0.0
    offsets = [3 * math.pi / 8, math.pi / 2, 5 * math.pi / 8, 7 * math.pi / 8]
    for r in (0.5, 0.8, 1.0):
        for off in offsets:
            for sgn in (+1, -1):
                theta = x0 + sgn * off
                got = j_at(r, theta) - j_ref
                want = (pot.v_scalar(theta) - pot.v_scalar(x0)
                        + 0.5 * (1.0 / r - 1.0 + math.log(r)))
                worst = max(worst, abs(got - want) / abs(want))
    ok = worst < 0.02
    report("criterion-11 free-energy-limit", ok,
           f"worst relative error {worst:.4f} at rho=200 over 24 grid points "
           f"(theta grid excludes the ill-conditioned zero crossings near x0)")
    assert worst < 0.02


def test_criterion_12_multiwell_localization(tmp_path):
    """Every local minimum attracts at least one run, across 3 master seeds."""
    raw = {"name": "localize",
           "model": {"potential": "two_well", "rho": 30.0, "lambda_min": 1.0},
           "sivjp": {"T": 4000.0, "record_stride": 1000.0},
           "localize": {"N": 50, "delta": 0.2, "T": 4000.0},
           "master_seed": 0}
    all_ok = True
    details = []
    for master in (2101, 2102, 2103):
        raw["master_seed"] = master
        cfg = ExperimentConfig.from_dict(raw)
        payload = cmd_localize(cfg, str(tmp_path / f"localize_{master}"), threads=WORKERS)
        all_ok &= payload["every_minimum_hit"]
        details.append(f"seed {master}: counts {payload['counts']}")
    report("criterion-12 multiwell-localization", all_ok,
           f"minima at {payload['minima']}; " + "; ".join(details))
    assert all_ok


def test_criterion_13_exactness_grid_vs_moment_mode():
    """Histogram mode reproduces exact-mode traces on matched seeds."""
    grid = PeriodicGrid(512)
    model = ModelSpec(potential=zero_potential(), rho=4.0)
    w, dw = quadratic_kernel_grids(model, grid)
    lam = max(model.thinning_bound,
              model.lambda_min + 1.05 * float(np.max(np.abs(dw))))
    sups = []
    for k in range(5):
        kw = dict(model=model, t_end=1000.0, seed=SeedSpec(1013, k),
                  record_stride=10.0, lambda_bar_override=lam)
        exact = run_sitp(SIVJPConfig(**kw))
        gridm, _ = run_sitp_general(w, dw, SIVJPConfig(**kw))
        sups.append(float(np.max(np.hypot(exact.a_vals - gridm.a_vals,
                                          exact.b_vals - gridm.b_vals))))
    ok = all(s < 0.02 for s in sups)
    report("criterion-13 grid-vs-exact", ok,
           f"sup snapshot differences {['%.2e' % s for s in sups]}")
    assert all(s < 0.02 for s in sups)


def test_criterion_14_determinism(tmp_path):
    """Byte-identical CSVs across repeats and across thread counts."""
    raw = {"name": "determinism",
           "model": {"potential": "cos2", "rho": 2.0, "lambda_min": 1.0},
           "sivjp": {"T": 500.0, "record_stride": 50.0},
           "sweep": {"seeds": 8}, "master_seed": 1014}
    cfg = ExperimentConfig.from_dict(raw)
    blobs = []
    for tag, threads in (("r1", 1), ("r2", 1), ("t4", 4), ("t8", 8)):
        out = tmp_path / tag
        cmd_simulate(cfg, str(out), threads=threads)
        blobs.append(b"".join(
            (out / f"determinism_seed{k:04d}.csv").read_bytes() for k in range(8)))
    summaries = [(tmp_path / tag / "summary.json").read_bytes() for tag in ("r1", "r2")]
    ok = all(b == blobs[0] for b in blobs) and summaries[0] == summaries[1]
    report("criterion-14 determinism", ok,
           f"{len(blobs)} runs and summaries byte-identical across repeats and "
           f"thread counts 1/4/8")
    assert all(b == blobs[0] for b in blobs)
    assert summaries[0] == summaries[1]
