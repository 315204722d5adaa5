"""Shared test utilities: independent oracles and batch-running helpers.

The oracles here are deliberately independent of the package's quadrature
and root-finding paths: Bessel values come from the defining power series,
reference radii from bisection on a dense brute-force grid. The exception
is the reference field and Jacobian, which run the package's reference
quadrature path (pibar, moments, quad_periodic) that the node tables
evaluating Fbar everywhere else must match within 1e-14 (the Jacobian
within 1e-14 max(1, |rho|)), and the reference flow, which integrates
those node tables' field with scipy's DOP853: it is independent of the
package's integrator, not of its field.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from sivjp import SIVJPConfig, SeedSpec, run_sitp
from sivjp.equilibria import _NodeTables, field_grid, moments, pibar
from sivjp.geometry import DENSITY_GRID, quad_periodic
from sivjp.model import ModelSpec
from sivjp.potentials import cos2_potential, two_well_potential, zero_potential

# Frozen golden values, derived once from the series/brute-force oracles
# below (and cross-checked in tests against the package's own solvers):
RHO_C_COS2 = 1.3827529553970006       # 2 I0(1) / (I0(1) + I1(1))
RHO_2_COS2 = 3.6126512830260866       # 2 I0(1) / (I0(1) - I1(1))
R_OF_RHO_4 = 0.8314620247542568       # int cos d pibar_4(r,0) = r
A_STAR_2RHOC = 0.8698531264089        # axis root at rho = 2*rho_c, U = -cos 2z
B_STAR_RHO4 = 0.4248941947461         # vertical axis root at rho = 4
TWO_PI_I0_1 = 7.954926521012844       # int exp(cos z) dz


def bessel_i(order: int, x: float) -> float:
    """Modified Bessel function by its power series (independent oracle)."""
    term = (x / 2.0) ** order / math.factorial(order)
    total = term
    for m in range(1, 200):
        term *= (x / 2.0) ** 2 / (m * (m + order))
        total += term
        if term < 1e-320:
            break
    return total


def brute_moments(rho: float, a: float, b: float, u_fn=None, n: int = 1 << 15):
    """Trigonometric moments of the tilted density on a dense grid,
    computed with plain sums (no package code)."""
    z = 2.0 * math.pi * np.arange(n) / n
    expo = rho * (a * np.cos(z) + b * np.sin(z))
    if u_fn is not None:
        expo = expo - u_fn(z)
    expo -= expo.max()
    w = np.exp(expo)
    w /= w.sum()
    return float(w @ np.cos(z)), float(w @ np.sin(z))


def reference_fbar(model, a, b, grid=DENSITY_GRID):
    """Fbar on the reference path: moments(pibar(a, b)) - (a, b)."""
    ma, mb = moments(pibar(model, a, b, grid))
    return ma - a, mb - b


def reference_flow(model, start, times):
    """The flow d(a,b)/ds = Fbar(a,b) from `start` at `times`, from scipy's
    DOP853 at rtol 1e-13, atol 1e-14 and its dense output, on the node
    tables' field: a fine reference that shares no integrator code with
    flow.integrate_flow."""
    from scipy.integrate import solve_ivp

    field = _NodeTables(model, field_grid(model)).fbar
    sol = solve_ivp(lambda s, y: field(y[0], y[1]), (0.0, times[-1]), start,
                    method="DOP853", rtol=1e-13, atol=1e-14, dense_output=True)
    return sol.sol(times).T


def reference_jacobian(model, a, b, grid=DENSITY_GRID):
    """Fbar's Jacobian rho * Cov - I, each moment a quad_periodic of a
    product of cos z and sin z with pibar's values."""
    d = pibar(model, a, b, grid)
    z = grid.nodes
    c, s = np.cos(z), np.sin(z)
    ma = quad_periodic(c * d.values, grid)
    mb = quad_periodic(s * d.values, grid)
    cc = quad_periodic(c * c * d.values, grid) - ma * ma
    ss = quad_periodic(s * s * d.values, grid) - mb * mb
    cs = quad_periodic(c * s * d.values, grid) - ma * mb
    return model.rho * np.array([[cc, cs], [cs, ss]]) - np.eye(2)


def brute_r_of_rho(rho: float) -> float:
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if brute_moments(rho, mid, 0.0)[0] > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_POTS = {"zero": zero_potential, "cos2": cos2_potential, "two_well": two_well_potential}


def overlap_sojourn(lo: float, length: float, n: int) -> np.ndarray:
    """Exact overlap of the path [lo, lo + length) with each node-centred,
    half-open cell of n (independent oracle for geometry.arc_sojourn).

    The path from angle 0 to x spends h*laps + clip(phase - k h, 0, h) in
    cell k after the half-cell shift that makes the cells edge-aligned;
    the leg's masses are that cumulative at its end minus at its start.
    """
    h = 2.0 * math.pi / n
    edges = h * np.arange(n)

    def cumulative(x: float) -> np.ndarray:
        x = x + 0.5 * h
        laps = math.floor(x / (2.0 * math.pi))
        phase = x - 2.0 * math.pi * laps
        return h * laps + np.clip(phase - edges, 0.0, h)

    return cumulative(lo + length) - cumulative(lo)


def reference_csv_text(header: list[str], rows) -> str:
    """markov.csv_text as csv.writer alone writes it: every row through
    the writer, each non-string cell formatted as %.12g (reference for
    csv_text's one-format rows)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([v if isinstance(v, str) else "%.12g" % v for v in row] for row in rows)
    return buf.getvalue()


def _sitp_worker(args: tuple) -> tuple:
    pot_name, rho, lambda_min, t_end, master, stream, stride, log_stride = args
    model = ModelSpec(potential=_POTS[pot_name](), rho=rho, lambda_min=lambda_min)
    cfg = SIVJPConfig(model=model, t_end=t_end, seed=SeedSpec(master, stream),
                      record_stride=stride, log_stride=log_stride,
                      record_t0=0.5 if log_stride else 1.0)
    trace = run_sitp(cfg)
    return (trace.final.a, trace.final.b, trace.times, trace.a_vals, trace.b_vals)


def sitp_batch(pot_name: str, rho: float, t_end: float, master: int, n_seeds: int,
               lambda_min: float = 1.0, stride: float = 500.0,
               log_stride: bool = False, workers: int = 4) -> list[tuple]:
    """Final moments (and traces) of n_seeds independent runs, in seed order."""
    args = [(pot_name, rho, lambda_min, t_end, master, k, stride, log_stride)
            for k in range(n_seeds)]
    if workers <= 1:
        return [_sitp_worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sitp_worker, args))


def final_radii(batch: list[tuple]) -> np.ndarray:
    return np.array([math.hypot(a, b) for (a, b, *_rest) in batch])
