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
cross-check. The census takes Fbar and its Jacobian from one tilted
density per point, and, when U is even about 0 and about pi/2, finds the
axis fixed points as the roots of Fbar's own components Fbar_a(a, 0) and
Fbar_b(0, b).

The census, the flow integrator (flow.integrate_flow) and solve_r_of_rho
evaluate Fbar thousands of times for one model on one grid, so each builds
a _NodeTables once: cos z, sin z, their products and -U(z) on the nodes,
plus work buffers that every evaluation reuses, so a table serves one
caller at a time. Its evaluations do the arithmetic of pibar, moments and
jacobian_fbar in the same order, with pibar's checks, so they are
bit-equal to fbar() and jacobian_fbar() and raise the same exception
types. The public pibar -> GridDensity -> moments path stays as the
validated reference.

Sign convention for the free energy: J(g) = 0.5*int int W g g + int g ln g
with W(x,z) = U(x) - rho cos(x - z) + U(z). With this convention J is
non-increasing along the limiting flow and sinks are local minimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericError
from .geometry import DENSITY_GRID, THRESHOLD_GRID, PeriodicGrid, quad_periodic
from .model import ModelSpec


@dataclass(frozen=True)
class GridDensity:
    """A strictly positive probability density sampled on a periodic grid.

    logZ records the log normalization constant that was divided out, so
    log-density values can be reconstructed without re-normalizing.
    """

    grid: PeriodicGrid
    values: np.ndarray
    logZ: float

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
    z = quad_periodic(w, grid)
    logZ = shift + math.log(z)
    return GridDensity(grid=grid, values=w / z, logZ=logZ)


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
    """Reduced vector field: moments(pibar(a, b)) - (a, b)."""
    ma, mb = moments(pibar(model, a, b, grid))
    return ma - a, mb - b


def jacobian_fbar(model: ModelSpec, a: float, b: float,
                  grid: PeriodicGrid = DENSITY_GRID) -> np.ndarray:
    """Analytic Jacobian of Fbar: rho * Cov - I.

    Cov is the covariance matrix of (cos z, sin z) under pibar(a, b);
    differentiation under the integral gives d moments / d(a,b) = rho*Cov.
    At the origin with centred exterior potential this is the classical
    rho*M_U - I with M_U the second trigonometric moment matrix.
    """
    d = pibar(model, a, b, grid)
    z = grid.nodes
    c, s = np.cos(z), np.sin(z)
    ma = quad_periodic(c * d.values, grid)
    mb = quad_periodic(s * d.values, grid)
    cc = quad_periodic(c * c * d.values, grid) - ma * ma
    ss = quad_periodic(s * s * d.values, grid) - mb * mb
    cs = quad_periodic(c * s * d.values, grid) - ma * mb
    return model.rho * np.array([[cc, cs], [cs, ss]]) - np.eye(2)


class _NodeTables:
    """Fbar and its Jacobian for one model on one grid, from node tables.

    -U(z) and the stacked rows 1, cos z, sin z, cos^2 z, sin^2 z and
    cos z sin z are computed once; each evaluation then does pibar's,
    moments()' and jacobian_fbar's arithmetic in the same order, with
    pibar's checks (non-finite log-density, non-positive density, mass off
    1), so results and exceptions are those of fbar() and jacobian_fbar().
    The mass and the moments come from one product of the first 3 (fbar)
    or all 6 (fbar_jacobian) rows with the density and one row sum: each
    row sums as the 1-D array would, and the row of ones leaves the density
    as it is. The quadrature finiteness checks are dropped: a finite
    log-density makes every quadrature integrand finite.

    Every evaluation writes into work buffers the table owns, so a table
    is not reentrant: one table serves one caller at a time. _density
    returns its density buffer, which the next evaluation overwrites; only
    the table's own methods hold it, and they are done with it before they
    return. fbar and fbar_jacobian return fresh Python floats and a fresh
    Jacobian array.
    """

    def __init__(self, model: ModelSpec, grid: PeriodicGrid) -> None:
        z = grid.nodes
        self.rho = model.rho
        self.h = grid.h
        self.neg_u = -np.asarray(model.u(z), dtype=float)
        c, s = np.cos(z), np.sin(z)
        rows = np.stack([np.ones(grid.n), c, s, c * c, s * s, c * s])
        prod, sums = np.empty_like(rows), np.empty(6)
        self.c, self.s = rows[1], rows[2]
        self._jacobian_bufs = (rows, prod, sums)
        self._fbar_bufs = (rows[:3], prod[:3], sums[:3])
        self._logw = np.empty(grid.n)  # kept apart from the density for the -inf check
        self._vals = np.empty(grid.n)

    def _density(self, a: float, b: float) -> np.ndarray:
        logw, vals = self._logw, self._vals
        np.multiply(self.c, a, out=logw)
        np.multiply(self.s, b, out=vals)
        np.add(logw, vals, out=logw)
        np.multiply(logw, self.rho, out=logw)
        np.add(self.neg_u, logw, out=logw)
        shift = float(np.maximum.reduce(logw))  # a nan or +inf value propagates here
        if not math.isfinite(shift):
            raise NumericError("density_from_log: non-finite log-density value")
        np.subtract(logw, shift, out=vals)
        np.exp(vals, out=vals)
        np.divide(vals, self.h * float(np.add.reduce(vals)), out=vals)
        if not np.minimum.reduce(vals) > 0.0:
            if not np.isfinite(logw).all():  # a -inf value, which exp took to 0
                raise NumericError("density_from_log: non-finite log-density value")
            raise DomainError("GridDensity: density values must be strictly positive")
        return vals

    def _moments(self, bufs: tuple[np.ndarray, np.ndarray, np.ndarray],
                 a: float, b: float) -> list[float]:
        """h * (row sums of rows * density), after the mass check."""
        rows, prod, sums = bufs
        np.multiply(rows, self._density(a, b), out=prod)
        h = self.h
        out = [h * v for v in np.add.reduce(prod, axis=1, out=sums).tolist()]
        if abs(out[0] - 1.0) > 1e-12:
            raise DomainError(f"GridDensity: not normalized (mass {out[0]!r})")
        return out

    def fbar(self, a: float, b: float) -> tuple[float, float]:
        _, ma, mb = self._moments(self._fbar_bufs, a, b)
        return ma - a, mb - b

    def fbar_jacobian(self, a: float, b: float) -> tuple[tuple[float, float], np.ndarray]:
        _, ma, mb, mcc, mss, mcs = self._moments(self._jacobian_bufs, a, b)
        rho = self.rho
        cc = rho * (mcc - ma * ma)
        ss = rho * (mss - mb * mb)
        cs = rho * (mcs - ma * mb)
        # rho * Cov - I entry by entry: x - 0.0 is x, bit for bit
        return (ma - a, mb - b), np.array([[cc - 1.0, cs], [cs, ss - 1.0]])


# ---------------------------------------------------------------------------
# thresholds and axis fixed points

def solve_r_of_rho(rho: float, tol: float = 1e-10,
                   grid: PeriodicGrid = THRESHOLD_GRID) -> float:
    """Positive root of int cos d pibar_rho(r, 0) = r, for zero exterior
    potential. Exists iff rho > 2; located by bisection on [tol, 1]."""
    if not rho > 2.0:
        raise DomainError(f"solve_r_of_rho: no positive root for rho = {rho} <= 2")
    tables = _NodeTables(ModelSpec(rho=rho), grid)

    def g(r: float) -> float:
        return tables.fbar(r, 0.0)[0]

    lo, hi = tol, 1.0
    if not (g(lo) > 0.0 > g(hi)):
        raise NumericError(f"solve_r_of_rho: bracket failure at rho = {rho}")
    while hi - lo > 0.5 * tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    if abs(g(r)) >= tol:
        # flat g near the root: fall back on the residual criterion
        raise NumericError(f"solve_r_of_rho: residual {g(r):.3e} above tol at rho = {rho}")
    return r


def _require_centered(model: ModelSpec, grid: PeriodicGrid, tol: float = 1e-10) -> GridDensity:
    m_u = pibar(model, 0.0, 0.0, grid)
    ma, mb = moments(m_u)
    if abs(ma) > tol or abs(mb) > tol:
        raise DomainError(
            f"exterior potential is not centred: Gibbs moments ({ma:.2e}, {mb:.2e})")
    return m_u


def rho_c(model: ModelSpec, grid: PeriodicGrid = THRESHOLD_GRID) -> float:
    """First bifurcation threshold 1 / int cos^2 dm_U.

    Requires the Gibbs measure of U to have vanishing first trigonometric
    moments (automatic for U even around 0 and pi, e.g. U = -cos 2z).
    """
    m_u = _require_centered(model, grid)
    z = grid.nodes
    return 1.0 / quad_periodic(np.cos(z) ** 2 * m_u.values, grid)


def rho_2(model: ModelSpec, grid: PeriodicGrid = THRESHOLD_GRID) -> float:
    """Second threshold 1 / int sin^2 dm_U (vertical-axis analogue)."""
    m_u = _require_centered(model, grid)
    z = grid.nodes
    return 1.0 / quad_periodic(np.sin(z) ** 2 * m_u.values, grid)


def _check_symmetry(u_vals: np.ndarray, flipped: np.ndarray, what: str,
                    tol: float = 1e-10) -> None:
    err = float(np.max(np.abs(u_vals - flipped)))
    if err > tol:
        raise DomainError(f"exterior potential lacks {what} symmetry (max deviation {err:.2e})")


def _axis_root(residual: Callable[[float], float]) -> float | None:
    """Positive root of an odd axis residual by sign scan plus bisection.

    Bisection stops once the midpoint rounds to an endpoint: no further
    step can move the bracket.
    """
    xs = np.linspace(1e-9, 1.0 - 1e-9, 512)
    vals = [residual(x) for x in xs]
    for i in range(len(xs) - 1):
        if vals[i] > 0.0 >= vals[i + 1]:
            lo, hi = xs[i], xs[i + 1]
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                if residual(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
    return None


# ---------------------------------------------------------------------------
# fixed-point census

STABILITY_TOL = 1e-7
SWEEP_TICKS = 17  # Newton starts per axis of the census's square sweep
DEDUP_DIST = 1e-6  # census roots closer than this are one root
RESIDUAL_TOL = 1e-10  # largest |Fbar| a census root may keep
NEWTON_MAX_ITER = 60  # Newton steps before a start is given up
NEWTON_TOL = 1e-13  # |Fbar| at which a Newton iterate is a root


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


def classify(eigenvalues: np.ndarray, tol: float = STABILITY_TOL) -> str:
    re = np.sort(eigenvalues.real)
    if np.any(np.abs(re) <= tol):
        return "Degenerate"
    if re[-1] < 0.0:
        return "Sink"
    if re[0] > 0.0:
        return "Source"
    return "Saddle"


def _record(tables: _NodeTables, a: float, b: float) -> FixedPointRecord:
    (fa, fb), jac = tables.fbar_jacobian(a, b)
    eig = np.linalg.eigvals(jac)
    eig = eig[np.lexsort((eig.imag, eig.real))]
    return FixedPointRecord(a=a, b=b, residual=math.hypot(fa, fb),
                            jacobian=jac, eigenvalues=eig,
                            stability=classify(eig))


def _newton(tables: _NodeTables, a: float, b: float) -> tuple[float, float] | None:
    x = np.array([a, b], dtype=float)
    for _ in range(NEWTON_MAX_ITER):
        f, jac = tables.fbar_jacobian(x[0], x[1])
        f = np.array(f)
        if np.hypot(f[0], f[1]) < NEWTON_TOL:
            return float(x[0]), float(x[1])
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        norm = float(np.hypot(step[0], step[1]))
        if norm > 0.5:  # keep iterates from shooting across the disk
            step *= 0.5 / norm
        x = x + step
        if np.hypot(x[0], x[1]) > 1.5:
            return None
    return None


def find_fixed_points(model: ModelSpec,
                      grid: PeriodicGrid = DENSITY_GRID) -> list[FixedPointRecord]:
    """All roots of Fbar in the closed unit disk, with stability classes.

    Two stages: when the exterior potential is even about 0 and about pi/2
    (U(z) = U(-z) = U(pi - z), checked once on the grid), the origin is a
    root and the components Fbar_a(a, 0) and Fbar_b(0, b) are odd, so
    their positive roots are found by a sign scan plus bisection (robust
    near the bifurcation thresholds, where Newton's basins shrink) and
    mirrored; then Newton iterations started from a SWEEP_TICKS x
    SWEEP_TICKS grid over the disk look for anything off-axis. Results are
    deduplicated within DEDUP_DIST, kept if their residual is below
    RESIDUAL_TOL, and sorted by (a, b) so the census is deterministic.
    """
    roots: list[tuple[float, float]] = []

    def push(a: float, b: float) -> None:
        for (pa, pb) in roots:
            if math.hypot(a - pa, b - pb) < DEDUP_DIST:
                return
        roots.append((a, b))

    tables = _NodeTables(model, grid)

    # stage 1: axis roots under symmetry
    z = grid.nodes
    u_vals = -tables.neg_u
    try:
        _check_symmetry(u_vals, np.asarray(model.u(-z), dtype=float), "z -> -z")
        _check_symmetry(u_vals, np.asarray(model.u(np.pi - z), dtype=float), "z -> pi - z")
    except DomainError:
        pass  # no axis symmetry; the sweep below does the work
    else:
        push(0.0, 0.0)
        a_star = _axis_root(lambda a: tables.fbar(a, 0.0)[0])
        if a_star is not None:
            push(a_star, 0.0)
            push(-a_star, 0.0)
        b_star = _axis_root(lambda b: tables.fbar(0.0, b)[1])
        if b_star is not None:
            push(0.0, b_star)
            push(0.0, -b_star)

    # stage 2: global Newton sweep over the disk
    ticks = np.linspace(-1.0, 1.0, SWEEP_TICKS)
    for a0 in ticks:
        for b0 in ticks:
            if math.hypot(a0, b0) > 1.0 + 1e-12:
                continue
            res = _newton(tables, a0, b0)
            if res is not None:
                push(*res)

    roots.sort()
    records = [_record(tables, a, b) for (a, b) in roots]
    records = [r for r in records if r.residual < RESIDUAL_TOL]
    if not records:
        raise NumericError("find_fixed_points: no roots found (centred models "
                           "always have the Gibbs fixed point)")
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
    a = quad_periodic(np.cos(z) * vals, d.grid)
    b = quad_periodic(np.sin(z) * vals, d.grid)
    ext = quad_periodic(u_vals * vals, d.grid)
    closed = ext - 0.5 * model.rho * (a * a + b * b) + entropy
    double = 0.5 * float(vals @ w_mat @ vals) * h * h + entropy
    if abs(closed - double) > FREE_ENERGY_TOL:
        raise NumericError(
            f"free_energy: closed form {closed!r} and double quadrature {double!r} disagree")
    return closed


def laplace_check(f: Callable[[np.ndarray], np.ndarray],
                  f2_at_theta: float, theta: float, rho_r: float,
                  grid: PeriodicGrid = THRESHOLD_GRID) -> tuple[float, float]:
    """Sharp-tilt integral against its Laplace asymptotic.

    For f vanishing at theta, int f(z) exp(rho_r*(cos(z - theta) - 1)) dz
    approaches f''(theta) * sqrt(pi / (2 rho_r^3)). Returns the pair
    (quadrature value, asymptotic value); callers compare them.
    """
    z = grid.nodes
    f_theta = float(np.asarray(f(np.array([theta])), dtype=float)[0])
    if abs(f_theta) > 1e-12:
        raise DomainError(f"laplace_check: f(theta) = {f_theta!r} must vanish")
    vals = np.asarray(f(z), dtype=float) * np.exp(rho_r * (np.cos(z - theta) - 1.0))
    quad = quad_periodic(vals, grid)
    asym = f2_at_theta * math.sqrt(math.pi / (2.0 * rho_r ** 3))
    return quad, asym
