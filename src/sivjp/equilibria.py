"""Numerical atlas of the occupation-measure fixed points for the quadratic
interaction.

For a model with exterior potential U and interaction strength rho, the
candidate limits of the normalized occupation measure are the tilted Gibbs
densities

    pibar(a, b)(z)  propto  exp(-U(z) + rho*(a cos z + b sin z)),

and the reduced two-dimensional vector field on trigonometric moments

    Fbar(a, b) = (int cos d pibar(a,b) - a, int sin d pibar(a,b) - b)

closes the limiting dynamics. This module computes pibar, Fbar, its
analytic Jacobian, the bifurcation thresholds, a global fixed-point census
with stability classification, the free energy, and a Laplace-asymptotics
cross-check. The census has two cases. When U is constant Fbar commutes
with rotations, so the census is written down rather than searched for:
the origin plus RING_POINTS points of the circle whose radius r(rho) is
the one root of Fbar_a(a, 0). Every other U takes a Newton sweep over
the disk. One bisection, _ring_radius, gives r(rho) to both the census
ring and solve_r_of_rho.

Fbar and its Jacobian have one evaluator, _NodeTables: cos z, sin z,
their products and -U(z) on the nodes, so that an evaluation is two
matrix products, one for the log-density and one for the mass and the
moments. The census, the flow integrator (flow.integrate_flow) and
solve_r_of_rho build one table per call; the public fbar and
jacobian_fbar, one per evaluation. A table keeps pibar's checks and
exception classes, and pibar -> GridDensity -> moments is the reference
the tests hold it to, within round-off: 1e-14 for Fbar, 1e-14 max(1, |rho|)
for the Jacobian. The census evaluates in batches: its Newton sweep goes
in lockstep over all starts, and its records take one batched call.

The flow and, unless given a grid, the census use field_grid(model) nodes:
the fewest of 64, 128 and 256 for which a closed-form bound on the
trapezoid rule's error (Trefethen & Weideman), from the potential's
harmonic amplitudes and rho, stays below FIELD_TOL = 1e-17; 512
(DENSITY_GRID) when none does or the potential records no amplitudes.
pibar, fbar and jacobian_fbar keep DENSITY_GRID, and the thresholds
(solve_r_of_rho, rho_c, rho_2) THRESHOLD_GRID.

Sign convention for the free energy: J(g) = 0.5*int int W g g + int g ln g
with W(x,z) = U(x) - rho cos(x - z) + U(z). With this convention J is
non-increasing along the limiting flow and sinks are local minimizers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericError
from .geometry import DENSITY_GRID, THRESHOLD_GRID, PeriodicGrid, quad_periodic
from .model import ModelSpec


@dataclass(frozen=True)
class GridDensity:
    """A strictly positive probability density sampled on a periodic grid."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise DomainError("GridDensity: values do not match the grid")
        if not np.all(vals > 0.0):
            raise DomainError("GridDensity: density values must be strictly positive")
        mass = quad_periodic(vals, self.grid)
        if abs(mass - 1.0) > 1e-12:
            raise DomainError(f"GridDensity: not normalized (mass {mass!r})")
        object.__setattr__(self, "values", vals)


def density_from_log(log_values: np.ndarray, grid: PeriodicGrid) -> GridDensity:
    """Normalize exp(log_values) into a GridDensity, max-shifting first."""
    log_values = np.asarray(log_values, dtype=float)
    if not np.all(np.isfinite(log_values)):
        raise NumericError("density_from_log: non-finite log-density value")
    shift = float(log_values.max())
    w = np.exp(log_values - shift)
    return GridDensity(grid=grid, values=w / quad_periodic(w, grid))


def pibar(model: ModelSpec, a: float, b: float,
          grid: PeriodicGrid = DENSITY_GRID) -> GridDensity:
    """Tilted density propto exp(-U(z) + rho*(a cos z + b sin z)).

    (a, b) may lie anywhere in the plane: root-finding evaluates Fbar
    outside the moment disk.
    """
    z = grid.nodes
    logw = -np.asarray(model.u(z), dtype=float) \
        + model.rho * (a * np.cos(z) + b * np.sin(z))
    return density_from_log(logw, grid)


def moments(d: GridDensity) -> tuple[float, float]:
    """(int cos, int sin) of a grid density; lands in the closed unit disk."""
    z = d.grid.nodes
    return (quad_periodic(np.cos(z) * d.values, d.grid),
            quad_periodic(np.sin(z) * d.values, d.grid))


def fbar(model: ModelSpec, a: float, b: float,
         grid: PeriodicGrid = DENSITY_GRID) -> tuple[float, float]:
    """Reduced vector field moments(pibar(a, b)) - (a, b), from node tables."""
    return _NodeTables(model, grid).fbar(a, b)


def jacobian_fbar(model: ModelSpec, a: float, b: float,
                  grid: PeriodicGrid = DENSITY_GRID) -> np.ndarray:
    """Analytic Jacobian of Fbar: rho * Cov - I, from node tables.

    Cov is the covariance matrix of (cos z, sin z) under pibar(a, b);
    differentiation under the integral gives d moments / d(a,b) = rho*Cov.
    At the origin with centred exterior potential this is the classical
    rho*M_U - I with M_U the second trigonometric moment matrix.
    """
    return _NodeTables(model, grid).fbar_jacobian_many(np.array([a]), np.array([b]))[1][0]


BATCH_VALUES = 4096  # points x nodes per batched evaluation: two 32 KB arrays
UNDERFLOW_GAP = -math.log(sys.float_info.min)  # exp(-x) is a normal float for x below this


class _NodeTables:
    """Fbar and its Jacobian for one model on one grid, from node tables.

    The rows cos z, sin z and -U(z), and the columns 1, cos z, sin z,
    cos^2 z, sin^2 z and cos z sin z, are computed once. An evaluation at
    (a, b) is then two matrix products: the log-density is
    [rho a, rho b, 1] times the rows; after a max shift and exp, the
    weights times the first 3 (fbar) or all 6 (fbar_jacobian_many) columns
    give the mass s0 and the unnormalized moments, and each moment is
    divided by s0 at the end (the node spacing cancels). The checks are
    pibar's, with its exception classes: a non-finite shift or a -inf
    log-density value raises NumericError, a weight that underflows to 0
    raises DomainError. The per-node test for a zero weight is skipped
    when a bound rules one out: every log-density value is at least
    min(-U) - |rho| hypot(a, b), so no weight underflows while the shift
    exceeds that bound by less than UNDERFLOW_GAP (a -inf in -U always
    takes the test). The max node contributes exp(0) = 1 to s0, so s0 >= 1
    holds by construction; it is checked all the same, as a DomainError.

    The products round differently from pibar -> moments, and a batched
    product from a one-point one, so results agree with the reference
    quadratures to round-off, not bit for bit: tests hold Fbar within
    1e-14 of moments(pibar(a, b)) - (a, b) and the Jacobian within
    1e-14 max(1, |rho|). Each result is deterministic for a given batch.

    fbar_jacobian_many evaluates k points per call, BATCH_VALUES // n at a
    time; a batch with a failing point raises what a loop over its points
    would raise first. fbar writes into two buffers the table owns, so a
    table serves one caller at a time; it returns fresh Python floats,
    fbar_jacobian_many fresh arrays.
    """

    def __init__(self, model: ModelSpec, grid: PeriodicGrid) -> None:
        z = grid.nodes
        c, s = np.cos(z), np.sin(z)
        self.rho = model.rho
        self.basis = np.stack([c, s, -np.asarray(model.u(z), dtype=float)])
        self.neg_u = self.basis[2]
        self.neg_u_min = float(np.minimum.reduce(self.neg_u))  # nan when -U has one
        self.cols = np.stack([np.ones(grid.n), c, s, c * c, s * s, c * s])
        self.batch = max(1, BATCH_VALUES // grid.n)
        self._logw, self._w = np.empty(grid.n), np.empty(grid.n)

    def fbar(self, a: float, b: float) -> tuple[float, float]:
        """Fbar at one point, on 1-D buffers, for the flow and the
        bisection: 5.2 us at 64 nodes and 6.6 us at 512, against 31 and
        33 us for fbar_jacobian_many with k = 1 (best of three runs on a
        2-vCPU Xeon VM, BENCH_fused_field.json)."""
        rho, logw, w = self.rho, self._logw, self._w
        np.dot((rho * a, rho * b, 1.0), self.basis, out=logw)
        shift = float(np.maximum.reduce(logw))  # a nan or +inf value propagates here
        if not math.isfinite(shift):
            raise NumericError("density_from_log: non-finite log-density value")
        np.subtract(logw, shift, out=w)
        np.exp(w, out=w)
        if not shift - self.neg_u_min + abs(rho) * math.hypot(a, b) < UNDERFLOW_GAP \
                and not np.minimum.reduce(w) > 0.0:
            if not np.isfinite(logw).all():  # a -inf value, which exp took to 0
                raise NumericError("density_from_log: non-finite log-density value")
            raise DomainError("GridDensity: density values must be strictly positive")
        s0, s1, s2 = np.dot(self.cols[:3], w).tolist()
        if not s0 >= 1.0:
            raise DomainError(f"GridDensity: weights sum to {s0!r}, below the max node's 1")
        return s1 / s0 - a, s2 / s0 - b

    def fbar_jacobian_many(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fbar, shape (k, 2), and its Jacobian, shape (k, 2, 2), at the
        points (a[i], b[i])."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        f, jac = np.empty((a.size, 2)), np.empty((a.size, 2, 2))
        for lo in range(0, a.size, self.batch):
            hi = lo + self.batch
            self._batch(a[lo:hi], b[lo:hi], f[lo:hi], jac[lo:hi])
        return f, jac

    def _batch(self, a: np.ndarray, b: np.ndarray, f: np.ndarray, jac: np.ndarray) -> None:
        rho = self.rho
        logw = np.stack([rho * a, rho * b, np.ones(a.size)], axis=1) @ self.basis
        shift = np.maximum.reduce(logw, axis=1)  # a nan or +inf value propagates here
        if not np.isfinite(shift).all():
            self._fail(a, b, f, jac,
                       NumericError("density_from_log: non-finite log-density value"))
        w = np.exp(logw - shift[:, None])
        if not (shift - self.neg_u_min + abs(rho) * np.hypot(a, b) < UNDERFLOW_GAP).all() \
                and not (np.minimum.reduce(w, axis=1) > 0.0).all():
            if not np.isfinite(logw).all():  # a -inf value, which exp took to 0
                self._fail(a, b, f, jac,
                           NumericError("density_from_log: non-finite log-density value"))
            self._fail(a, b, f, jac,
                       DomainError("GridDensity: density values must be strictly positive"))
        mom = w @ self.cols.T
        s0 = mom[:, 0]
        if not (s0 >= 1.0).all():
            self._fail(a, b, f, jac, DomainError(
                f"GridDensity: weights sum to {float(s0.min())!r}, below the max node's 1"))
        _, ma, mb, mcc, mss, mcs = (mom / s0[:, None]).T
        f[:, 0] = ma - a
        f[:, 1] = mb - b
        cs = rho * (mcs - ma * mb)
        jac[:, 0, 0] = rho * (mcc - ma * ma) - 1.0
        jac[:, 0, 1] = cs
        jac[:, 1, 0] = cs
        jac[:, 1, 1] = rho * (mss - mb * mb) - 1.0

    def _fail(self, a: np.ndarray, b: np.ndarray, f: np.ndarray, jac: np.ndarray,
              error: Exception) -> None:
        """A point of the batch failed a check: redo the batch point by
        point, so that the first failing point raises, as in a loop."""
        if a.size > 1:
            for i in range(a.size):
                self._batch(a[i:i + 1], b[i:i + 1], f[i:i + 1], jac[i:i + 1])
        raise error


FIELD_TOL = 1e-17  # quadrature error bound the census and flow grids must meet
FIELD_NODES = (64, 128, 256)  # node counts field_grid tries below DENSITY_GRID's
STRIP_WIDTHS = tuple(0.1 * i for i in range(1, 41))  # half-widths sigma the bound is minimized over
NEWTON_RADIUS = 1.5  # census Newton iterates and flow stages stay within this radius
SYMMETRY_TOL = 1e-10  # largest Gibbs moment of a centred U


def field_grid(model: ModelSpec) -> PeriodicGrid:
    """Grid for the census and the flow: the fewest nodes whose quadrature
    error provably stays below FIELD_TOL.

    The integrands g(z) exp(phi(z)) of Fbar and its Jacobian, with
    phi = -U + rho (a cos + b sin) and g one of 1, cos, sin and their
    products, are entire, so the n-node trapezoid rule errs by at most
    4 pi M / (exp(sigma n) - 1) for M a bound on |g e^phi| in the strip
    |Im z| < sigma (Trefethen & Weideman, SIAM Review 2014). With A_k the
    amplitude of harmonic k of phi, where A_1 <= |U_1| + NEWTON_RADIUS |rho|
    since every evaluated point lies within NEWTON_RADIUS, the strip raises
    phi by at most G(sigma) = sum_k A_k (cosh k sigma - 1) and |g| by
    cosh^2 sigma. Dividing by Z_lb, a lower bound on int exp(phi - max phi)
    from |phi''| <= sum_k k^2 A_k, bounds the error of the moments, and
    max(1, |rho|) times that bounds the Jacobian's. field_grid returns the
    first n in FIELD_NODES for which the bound, minimized over
    STRIP_WIDTHS, is at most FIELD_TOL; DENSITY_GRID when none is, or
    when the potential records no amplitudes.
    """
    if model.potential.amplitudes is None:
        return DENSITY_GRID
    amp = list(model.potential.amplitudes) or [0.0]
    amp[0] += NEWTON_RADIUS * abs(model.rho)
    terms = [(k, a) for k, a in enumerate(amp, 1) if a > 0.0]
    curvature = sum(k * k * a for k, a in terms)
    z_lb = 2.0 * math.pi
    if curvature > 0.0:
        z_lb = math.sqrt(2.0 * math.pi / curvature) * math.erf(math.pi * math.sqrt(0.5 * curvature))
    log_scale = math.log(4.0 * math.pi * max(1.0, abs(model.rho)) / z_lb)
    # log of the bound's numerator over Z_lb at each strip width
    log_num = []
    for sigma in STRIP_WIDTHS:
        try:
            g = sum(a * (math.cosh(k * sigma) - 1.0) for k, a in terms)
        except OverflowError:  # cosh beyond the float range: no bound at this width
            continue
        log_num.append((sigma, log_scale + 2.0 * math.log(math.cosh(sigma)) + g))
    for n in FIELD_NODES:
        # log(FIELD_TOL (exp(sigma n) - 1)), written to stay finite for large sigma n
        if any(num <= math.log(FIELD_TOL) + sigma * n + math.log1p(-math.exp(-sigma * n))
               for sigma, num in log_num):
            return PeriodicGrid(n)
    return DENSITY_GRID


# ---------------------------------------------------------------------------
# thresholds and the ring radius

def _ring_radius(tables: _NodeTables) -> float | None:
    """Root of Fbar_a(a, 0) in [1e-9, 1], by bisection until the midpoint
    rounds to an endpoint, when no further step can move the bracket; None
    when Fbar_a(a, 0) does not fall from positive to non-positive over the
    bracket. For a constant U the root is unique: r(rho), the radius of the
    circle of fixed points."""
    lo, hi = 1e-9, 1.0
    if not tables.fbar(lo, 0.0)[0] > 0.0 >= tables.fbar(hi, 0.0)[0]:
        return None
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if tables.fbar(mid, 0.0)[0] > 0.0:
            lo = mid
        else:
            hi = mid


def solve_r_of_rho(rho: float) -> float:
    """Positive root r(rho) of int cos d pibar_rho(r, 0) = r, for zero
    exterior potential: _ring_radius on THRESHOLD_GRID. Exists iff rho > 2."""
    if not rho > 2.0:
        raise DomainError(f"solve_r_of_rho: no positive root for rho = {rho} <= 2")
    tables = _NodeTables(ModelSpec(rho=rho), THRESHOLD_GRID)
    r = _ring_radius(tables)
    if r is None:
        raise NumericError(f"solve_r_of_rho: bracket failure at rho = {rho}")
    residual = tables.fbar(r, 0.0)[0]
    if abs(residual) >= RESIDUAL_TOL:
        raise NumericError(f"solve_r_of_rho: residual {residual:.3e} above "
                           f"{RESIDUAL_TOL} at rho = {rho}")
    return r


def _require_centered(model: ModelSpec) -> GridDensity:
    m_u = pibar(model, 0.0, 0.0, THRESHOLD_GRID)
    ma, mb = moments(m_u)
    if abs(ma) > SYMMETRY_TOL or abs(mb) > SYMMETRY_TOL:
        raise DomainError(
            f"exterior potential is not centred: Gibbs moments ({ma:.2e}, {mb:.2e})")
    return m_u


def rho_c(model: ModelSpec) -> float:
    """First bifurcation threshold 1 / int cos^2 dm_U.

    Requires the Gibbs measure of U to have vanishing first trigonometric
    moments (automatic for U even around 0 and pi, e.g. U = -cos 2z).
    """
    m_u = _require_centered(model)
    z = THRESHOLD_GRID.nodes
    return 1.0 / quad_periodic(np.cos(z) ** 2 * m_u.values, THRESHOLD_GRID)


def rho_2(model: ModelSpec) -> float:
    """Second threshold 1 / int sin^2 dm_U (vertical-axis analogue)."""
    m_u = _require_centered(model)
    z = THRESHOLD_GRID.nodes
    return 1.0 / quad_periodic(np.sin(z) ** 2 * m_u.values, THRESHOLD_GRID)


# ---------------------------------------------------------------------------
# fixed-point census

STABILITY_TOL = 1e-7
SWEEP_TICKS = 17  # Newton starts per axis of the census's square sweep
DEDUP_DIST = 1e-6  # census roots closer than this are one root
RESIDUAL_TOL = 1e-10  # largest |Fbar| a census root may keep
NEWTON_MAX_ITER = 60  # Newton steps before a start is given up
NEWTON_TOL = 1e-13  # |Fbar| at which a Newton iterate is a root
RING_POINTS = 64  # census samples of the circle of fixed points of a constant U


@dataclass(frozen=True)
class FixedPointRecord:
    a: float
    b: float
    residual: float
    jacobian: np.ndarray
    eigenvalues: np.ndarray  # complex pair
    stability: str  # Sink | Saddle | Source | Degenerate

    def as_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "residual": self.residual,
            "jac": [[self.jacobian[0, 0], self.jacobian[0, 1]],
                    [self.jacobian[1, 0], self.jacobian[1, 1]]],
            "eig_re": [float(self.eigenvalues[0].real), float(self.eigenvalues[1].real)],
            "eig_im": [float(self.eigenvalues[0].imag), float(self.eigenvalues[1].imag)],
            "stability": self.stability,
        }


def classify(eigenvalues: np.ndarray) -> str:
    re = np.sort(eigenvalues.real)
    if np.any(np.abs(re) <= STABILITY_TOL):
        return "Degenerate"
    if re[-1] < 0.0:
        return "Sink"
    if re[0] > 0.0:
        return "Source"
    return "Saddle"


def _records(tables: _NodeTables, roots: list[tuple[float, float]]) -> list[FixedPointRecord]:
    """One record per root, from one batched evaluation."""
    pts = np.array(roots, dtype=float).reshape(-1, 2)
    f, jacs = tables.fbar_jacobian_many(pts[:, 0], pts[:, 1])
    records = []
    for (a, b), (fa, fb), jac, eig in zip(roots, f.tolist(), jacs, np.linalg.eigvals(jacs)):
        eig = eig[np.lexsort((eig.imag, eig.real))]
        records.append(FixedPointRecord(a=a, b=b, residual=math.hypot(fa, fb),
                                        jacobian=jac, eigenvalues=eig,
                                        stability=classify(eig)))
    return records


def _newton_lockstep(tables: _NodeTables,
                     starts: np.ndarray) -> list[tuple[float, float] | None]:
    """Newton from every start of `starts` (shape (m, 2)) in lockstep.

    Entry i is start i's root, or None when its iterate left NEWTON_RADIUS,
    met a singular Jacobian or did not converge in NEWTON_MAX_ITER steps.
    Each round evaluates the live starts in one batch and solves their
    steps in one stacked np.linalg.solve, which gives every matrix the
    solution a solve of its own gives; so each start follows the path it
    would follow alone.
    """
    out: list[tuple[float, float] | None] = [None] * len(starts)
    x = np.array(starts, dtype=float)
    live = np.arange(len(x))
    for _ in range(NEWTON_MAX_ITER):
        if live.size == 0:
            break
        f, jac = tables.fbar_jacobian_many(x[:, 0], x[:, 1])
        done = np.hypot(f[:, 0], f[:, 1]) < NEWTON_TOL
        for i, root in zip(live[done].tolist(), x[done].tolist()):
            out[i] = (root[0], root[1])
        x, f, jac, live = x[~done], f[~done], jac[~done], live[~done]
        try:
            step = np.linalg.solve(jac, -f[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # a singular start: solve one at a time, drop it
            step = np.zeros_like(f)
            ok = np.ones(len(f), dtype=bool)
            for i in range(len(f)):
                try:
                    step[i] = np.linalg.solve(jac[i], -f[i])
                except np.linalg.LinAlgError:
                    ok[i] = False
            x, step, live = x[ok], step[ok], live[ok]
        norm = np.hypot(step[:, 0], step[:, 1])
        long = norm > 0.5  # keep iterates from shooting across the disk
        step[long] *= (0.5 / norm[long])[:, None]
        x = x + step
        inside = ~(np.hypot(x[:, 0], x[:, 1]) > NEWTON_RADIUS)
        x, live = x[inside], live[inside]
    return out


def _ring(radius: float) -> list[tuple[float, float]]:
    """RING_POINTS points at the angles 2 pi k / RING_POINTS of the circle
    of radius `radius`, counterclockwise from (radius, 0).

    The first eighth comes from cos and sin, the rest by exact reflections
    and quarter turns, so the points are exactly symmetric about both axes
    and both diagonals: points of equal |a| have equal a, so the census's
    sort orders them by b, and the axis points are (+-radius, 0) and
    (0, +-radius) exactly. 0.0 - b, not -b, keeps -0.0 off the axes.
    """
    step = 2.0 * math.pi / RING_POINTS
    eighth = [(radius * math.cos(k * step), radius * math.sin(k * step))
              for k in range(RING_POINTS // 8)]
    diagonal = radius * math.cos(0.25 * math.pi)
    quarter = eighth + [(diagonal, diagonal)] + [(b, a) for a, b in reversed(eighth[1:])]
    points = []
    for _ in range(4):
        points += quarter
        quarter = [(0.0 - b, a) for a, b in quarter]
    return points


def _roots(model: ModelSpec, tables: _NodeTables) -> list[tuple[float, float]]:
    """The census's roots, deduplicated in the order found; see
    find_fixed_points."""
    if model.du_sup == 0.0:  # U constant: Fbar commutes with rotations
        radius = _ring_radius(tables)
        return [(0.0, 0.0)] + ([] if radius is None else _ring(radius))
    ticks = np.linspace(-1.0, 1.0, SWEEP_TICKS)
    starts = [(a0, b0) for a0 in ticks for b0 in ticks if math.hypot(a0, b0) <= 1.0 + 1e-12]
    roots: list[tuple[float, float]] = []
    for res in _newton_lockstep(tables, np.array(starts)):
        if res is not None and all(math.hypot(res[0] - pa, res[1] - pb) >= DEDUP_DIST
                                   for pa, pb in roots):
            roots.append(res)
    return roots


def find_fixed_points(model: ModelSpec,
                      grid: PeriodicGrid | None = None) -> list[FixedPointRecord]:
    """All roots of Fbar in the closed unit disk, with stability classes,
    on `grid` (default field_grid(model)).

    When U is constant (model.du_sup == 0), Fbar commutes with rotations,
    so its roots are the origin and, for rho > 2, the whole circle of
    radius r(rho) (Benaim & Raimond, Ann. Probab. 2005): the census is the
    origin plus RING_POINTS equally spaced points of that circle, whose
    radius is the root of Fbar_a(a, 0) that _ring_radius bisects for. For
    every other U, Newton iterations started from a SWEEP_TICKS x
    SWEEP_TICKS grid over the disk run in lockstep, and a root within
    DEDUP_DIST of an earlier one is dropped. The roots are kept if their
    residual is below RESIDUAL_TOL and sorted by (round(a / DEDUP_DIST), b),
    so the census is deterministic: roots whose a agree to round-off, such
    as mirror images about the a-axis, are ordered by b.

    Fbar points strictly inward on the unit circle, so by Poincare-Hopf the
    indices of its roots in the disk sum to 1 when none is degenerate:
    each Sink and Source counts +1 and each Saddle -1. A census with no
    Degenerate record whose sum is not 1 has missed a root and raises
    NumericError naming rho. The check cannot see a missed Sink-Saddle
    pair.

    A tilted density that underflows at some node (rho * r beyond about
    350) raises DomainError naming rho.
    """
    if grid is None:
        grid = field_grid(model)
    tables = _NodeTables(model, grid)
    try:
        roots = sorted(_roots(model, tables), key=lambda p: (round(p[0] / DEDUP_DIST), p[1]))
        records = [r for r in _records(tables, roots) if r.residual < RESIDUAL_TOL]
    except DomainError as exc:  # from the tables' density checks
        raise DomainError(f"find_fixed_points: the tilted density underflows at "
                          f"rho = {model.rho!r} (the census needs rho * r <~ 350): "
                          f"{exc}") from exc
    if not records:
        raise NumericError("find_fixed_points: no roots found (centred models "
                           "always have the Gibbs fixed point)")
    stabilities = [r.stability for r in records]
    if "Degenerate" not in stabilities:
        index_sum = len(records) - 2 * stabilities.count("Saddle")
        if index_sum != 1:
            raise NumericError(f"find_fixed_points: the census at rho = {model.rho!r} has "
                               f"index sum {index_sum}, not 1, so it missed a root")
    return records


def census_signature(records: Sequence[FixedPointRecord]) -> str:
    """Compact census string such as '1 Saddle + 2 Sink + 2 Saddle'."""
    counts: dict[str, int] = {}
    for r in records:
        counts[r.stability] = counts.get(r.stability, 0) + 1
    return ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))


# ---------------------------------------------------------------------------
# free energy and Laplace check
FREE_ENERGY_TOL = 1e-8  # largest gap allowed between the two free-energy routes

def _entropy(vals: np.ndarray, grid: PeriodicGrid) -> float:
    return quad_periodic(vals * np.log(vals), grid)


def free_energy(model: ModelSpec, d: GridDensity) -> float:
    """Free energy of a density under the model's quadratic interaction.

    Two routes are computed: the generic double quadrature
    0.5*sum_jk W_jk d_j d_k h^2 + entropy, and the quadratic-kernel closed
    form int U d - (rho/2)(a^2 + b^2) + entropy. The two routes must agree
    to FREE_ENERGY_TOL on the supplied density, so a constant offset in
    either one is caught, and the closed-form value is returned.
    """
    if not np.all(np.asarray(d.values) > 0.0):
        raise DomainError("free_energy: density must be strictly positive")
    z = d.grid.nodes
    h = d.grid.h
    u_vals = np.asarray(model.u(z), dtype=float)
    w_mat = u_vals[:, None] + u_vals[None, :] - model.rho * np.cos(z[:, None] - z[None, :])

    vals = d.values
    entropy = _entropy(vals, d.grid)
    a, b = moments(d)
    ext = quad_periodic(u_vals * vals, d.grid)
    closed = ext - 0.5 * model.rho * (a * a + b * b) + entropy
    double = 0.5 * float(vals @ w_mat @ vals) * h * h + entropy
    if abs(closed - double) > FREE_ENERGY_TOL:
        raise NumericError(
            f"free_energy: closed form {closed!r} and double quadrature {double!r} disagree")
    return closed


def laplace_check(f: Callable[[np.ndarray], np.ndarray],
                  f2_at_theta: float, theta: float, rho_r: float) -> tuple[float, float]:
    """Sharp-tilt integral against its Laplace asymptotic.

    For f vanishing at theta, int f(z) exp(rho_r*(cos(z - theta) - 1)) dz
    approaches f''(theta) * sqrt(pi / (2 rho_r^3)). Returns the pair
    (quadrature on THRESHOLD_GRID, asymptotic value); callers compare them.
    """
    z = THRESHOLD_GRID.nodes
    f_theta = float(np.asarray(f(np.array([theta])), dtype=float)[0])
    if abs(f_theta) > 1e-12:
        raise DomainError(f"laplace_check: f(theta) = {f_theta!r} must vanish")
    vals = np.asarray(f(z), dtype=float) * np.exp(rho_r * (np.cos(z - theta) - 1.0))
    quad = quad_periodic(vals, THRESHOLD_GRID)
    asym = f2_at_theta * math.sqrt(math.pi / (2.0 * rho_r ** 3))
    return quad, asym
