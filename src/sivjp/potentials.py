"""Potentials on the circle and the registry used by experiment configs.

A FrozenPotential bundles a potential V, its derivative dV, an upper bound
dv_sup on sup|dV|, which the simulators add to the jump rate floor to
obtain their thinning envelope, and an upper bound ddv_sup on sup|V''|,
the slope of their local envelopes. Every registry kind (zero, cos(2z), a
two-parameter trigonometric double well, a grid-sampled custom potential)
is a trigonometric polynomial built by trig_potential from its
coefficients, with the exact dv_sup = sum_k k (|a_k| + |b_k|) and
ddv_sup = sum_k k^2 (|a_k| + |b_k|). frozen_potential is the general path for
arbitrary callables; it certifies dv_sup as 1.05 times the max of |dV|
over 4096 nodes and leaves ddv_sup infinite, so the simulators keep its
global envelope.

Potentials carry both vectorized callables (for quadrature work) and plain
scalar callables (for the per-proposal evaluations inside the event loops,
where numpy dispatch overhead would dominate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .geometry import THRESHOLD_GRID, wrap

CERTIFY_MARGIN = 1.05
FD_STEP = 1e-5  # step of check_derivative's central differences
FD_TOL = 1e-6  # largest gap check_derivative allows between dV and the differences
MIN_CURVATURE = 1e-6  # smallest V'' at which local_minima keeps a minimum


def _vectorize(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    def g(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.asarray(f(x), dtype=float), x.shape).copy()
    return g


@dataclass(frozen=True)
class FrozenPotential:
    """A smooth potential with derivative and a certified derivative bound.

    v and dv are vectorized over arrays of angles; v_scalar and dv_scalar
    are their float->float counterparts. dv_sup must dominate sup|dV|: it
    is exact for trig_potential and certified on a grid by frozen_potential.
    ddv_sup must dominate sup|V''|; inf (no bound) keeps the simulators on
    their global envelope. amplitudes[k - 1] is the amplitude
    sqrt(a_k^2 + b_k^2) of harmonic k, recorded by trig_potential; None
    (frozen_potential) means the harmonic content is unknown.
    """

    v: Callable[[np.ndarray], np.ndarray]
    dv: Callable[[np.ndarray], np.ndarray]
    dv_sup: float
    v_scalar: Callable[[float], float]
    dv_scalar: Callable[[float], float]
    name: str = "custom"
    ddv_sup: float = math.inf
    amplitudes: tuple[float, ...] | None = None


def certify_dv_sup(dv: Callable) -> float:
    """CERTIFY_MARGIN * max over THRESHOLD_GRID of |dV|."""
    dv_vals = np.asarray(dv(THRESHOLD_GRID.nodes), dtype=float)
    return CERTIFY_MARGIN * float(np.max(np.abs(dv_vals)))


def check_derivative(v: Callable, dv: Callable) -> None:
    """Central finite-difference check of dV against V on THRESHOLD_GRID."""
    z = THRESHOLD_GRID.nodes
    h = FD_STEP
    fd = (np.asarray(v(z + h), dtype=float) - np.asarray(v(z - h), dtype=float)) / (2.0 * h)
    err = float(np.max(np.abs(np.asarray(dv(z), dtype=float) - fd)))
    if err > FD_TOL:
        raise DomainError(f"potential derivative inconsistent with value: max fd error {err:.3e}")


def frozen_potential(v: Callable, dv: Callable, name: str = "custom",
                     dv_sup: float | None = None,
                     validate: bool = True) -> FrozenPotential:
    """Build a FrozenPotential from vectorized callables, certifying dv_sup."""
    v = _vectorize(v)
    dv = _vectorize(dv)
    if validate:
        check_derivative(v, dv)
    if dv_sup is None:
        dv_sup = certify_dv_sup(dv)
    return FrozenPotential(v=v, dv=dv, dv_sup=float(dv_sup),
                           v_scalar=lambda x: float(v(np.array([x]))[0]),
                           dv_scalar=lambda x: float(dv(np.array([x]))[0]), name=name)


# ---------------------------------------------------------------------------
# registry: trigonometric polynomials

def _trig_forms(const: float, terms: list):
    """const + sum c f(kz) over terms (k, c, numpy f, math f), in order; array and float forms.

    The float form runs once per proposal in the thinning loops, so it is
    compiled with the terms unrolled, one statement each: the same
    operations in the same order as a loop over the terms, without the
    loop. One statement per term keeps the code flat at any term count.
    """
    def array_form(z):
        z = np.asarray(z, dtype=float)
        out = np.full(z.shape, const)
        for k, c, f, _ in terms:
            out = out + c * f(k * z)
        return out

    lines = ["def float_form(x):", f"    out = {const!r}"]
    lines += [f"    out += {c!r} * {f.__name__}({k!r} * x)" for k, c, _, f in terms]
    lines.append("    return out")
    namespace = {"cos": math.cos, "sin": math.sin}
    exec("\n".join(lines), namespace)
    return array_form, namespace["float_form"]


def trig_potential(cos_coef, sin_coef=(), const: float = 0.0,
                   name: str = "trig") -> FrozenPotential:
    """U(z) = const + sum_k (a_k cos kz + b_k sin kz), k = 1, 2, ..., with
    a = cos_coef and b = sin_coef.

    Only nonzero terms are evaluated: the cosine terms first, then the sine
    terms, each in ascending k. dv_sup is the exact bound
    sum_k k (|a_k| + |b_k|) on |U'| (2 for -cos 2z), and ddv_sup the exact
    bound sum_k k^2 (|a_k| + |b_k|) on |U''| (4 for -cos 2z), and
    amplitudes the per-harmonic amplitudes sqrt(a_k^2 + b_k^2). Non-finite
    coefficients raise ConfigError.
    """
    a, b = (np.asarray(coef, dtype=float).ravel() for coef in (cos_coef, sin_coef))
    if not np.isfinite([const, *a, *b]).all():
        raise ConfigError(f"potential {name!r}: coefficients must be finite")
    cos_terms = [(float(k), float(c)) for k, c in enumerate(a, 1) if c != 0.0]
    sin_terms = [(float(k), float(c)) for k, c in enumerate(b, 1) if c != 0.0]
    v, v_scalar = _trig_forms(float(const), [(k, c, np.cos, math.cos) for k, c in cos_terms]
                              + [(k, c, np.sin, math.sin) for k, c in sin_terms])
    # U' = sum_k (k b_k cos kz - k a_k sin kz)
    dv, dv_scalar = _trig_forms(0.0, [(k, k * c, np.cos, math.cos) for k, c in sin_terms]
                                + [(k, -k * c, np.sin, math.sin) for k, c in cos_terms])
    terms = cos_terms + sin_terms
    amplitudes = [math.hypot(x, y) for x, y in zip_longest(a.tolist(), b.tolist(), fillvalue=0.0)]
    return FrozenPotential(v=v, dv=dv, v_scalar=v_scalar, dv_scalar=dv_scalar, name=name,
                           dv_sup=sum((k * abs(c) for k, c in terms), 0.0),
                           ddv_sup=sum((k * k * abs(c) for k, c in terms), 0.0),
                           amplitudes=tuple(amplitudes))


def zero_potential() -> FrozenPotential:
    return trig_potential((), name="zero")


def cos_potential() -> FrozenPotential:
    """V(z) = cos z, the standard single-well test potential."""
    return trig_potential((1.0,), name="cos")


def cos2_potential() -> FrozenPotential:
    """U(z) = -cos(2z): the symmetric double well with minima at 0 and pi."""
    return trig_potential((0.0, -1.0), name="cos2")


def two_well_potential(a1: float = 0.2, a2: float = -0.5) -> FrozenPotential:
    """U(z) = a1 cos z + a2 cos 2z.

    The defaults give two non-degenerate wells of different depths: a
    shallow one at z = 0 (U = a1 + a2) and a deep one at z = pi
    (U = a2 - a1). Choosing a2 > 0 instead produces a symmetric pair of
    equal-depth wells at +/- z*, since the potential is even either way.
    """
    return trig_potential((a1, a2), name=f"two_well({a1},{a2})")


def grid_potential(values: np.ndarray) -> FrozenPotential:
    """Potential sampled on a uniform periodic grid.

    The continuous potential is *defined* as the trigonometric interpolant
    of the samples: U(z) = a0 + sum_k (a_k cos kz + b_k sin kz), with
    coefficients from a real FFT. The derivative is then exact for the
    interpolant, so the finite-difference invariant holds by construction.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 4 or n % 2 != 0:
        raise ConfigError("grid_potential: need an even number >= 4 of samples")
    if not np.isfinite(values).all():
        raise ConfigError("potential 'custom-grid': samples must be finite")
    spec = np.fft.rfft(values) / n
    a_cos = 2.0 * spec[1:].real
    a_cos[-1] *= 0.5  # Nyquist mode appears once
    b_sin = -2.0 * spec[1:-1].imag
    return trig_potential(a_cos, b_sin, const=spec[0].real, name="custom-grid")


# each registry kind: its builder and the parameters it takes
_REGISTRY = {"zero": (zero_potential, ()), "cos2": (cos2_potential, ()),
             "two_well": (two_well_potential, ("a1", "a2")),
             "custom_grid": (grid_potential, ("values",))}
POTENTIAL_KINDS = tuple(_REGISTRY)


def make_potential(kind: str, params: dict | None = None) -> FrozenPotential:
    params = dict(params or {})
    if kind not in _REGISTRY:
        raise ConfigError(f"unknown potential kind {kind!r}; choose from {POTENTIAL_KINDS}")
    build, takes = _REGISTRY[kind]
    extra = sorted(set(params) - set(takes))
    if extra:
        raise ConfigError(f"potential {kind!r} does not take {extra}; it takes "
                          f"{list(takes) or 'no parameters'}")
    if kind == "custom_grid" and "values" not in params:
        raise ConfigError("custom_grid potential requires 'values'")
    return build(**params)


def local_minima(pot: FrozenPotential) -> list[float]:
    """Locations of the non-degenerate local minima of the potential.

    Minima detected on THRESHOLD_GRID are polished by bisection on dV and
    kept where the second-difference curvature exceeds MIN_CURVATURE.
    """
    z = THRESHOLD_GRID.nodes
    vals = np.asarray(pot.v(z), dtype=float)
    idx = np.flatnonzero((vals < np.roll(vals, 1)) & (vals < np.roll(vals, -1)))
    minima = []
    for kk in idx:
        lo = z[kk] - THRESHOLD_GRID.h
        hi = z[kk] + THRESHOLD_GRID.h
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if pot.dv_scalar(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        x0 = 0.5 * (lo + hi)
        h = 1e-4
        curv = (pot.v_scalar(x0 + h) - 2.0 * pot.v_scalar(x0) + pot.v_scalar(x0 - h)) / h ** 2
        if curv > MIN_CURVATURE:
            minima.append(wrap(x0))
    return sorted(minima)
