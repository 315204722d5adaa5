"""Circle and torus geometry: angle wrapping, the chordal metric,
uniform-node periodic quadrature, and the deposit of flight legs into
grid cells.

Angles are plain floats normalized to [0, 2*pi). The quadrature rule is the
rectangle rule on n equispaced nodes, which for smooth 2*pi-periodic
integrands converges faster than any power of 1/n and is exact on
trigonometric polynomials of degree < n/2.

Cells are node-centred and half-open, cell k being [node_k - h/2,
node_k + h/2). arc_sojourn is the one rule that splits a flight leg into
time-in-cell masses, for the general-kernel engine and the log analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, NumericError

TWO_PI = 2.0 * math.pi


def wrap(x: float) -> float:
    """Canonical representative of x in [0, 2*pi). Total on finite floats."""
    if not math.isfinite(x):
        raise DomainError(f"wrap: non-finite input {x!r}")
    r = math.fmod(x, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    # fmod of a tiny negative number can round back up to exactly 2*pi
    if r >= TWO_PI:
        r -= TWO_PI
    return r


def dist_t(x: float, z: float) -> float:
    """Chordal distance |e^{ix} - e^{iz}| = 2|sin((x-z)/2)|, in [0, 2]."""
    return 2.0 * abs(math.sin(0.5 * (x - z)))


@dataclass(frozen=True)
class PeriodicGrid:
    """n equispaced nodes 2*pi*k/n on the circle.

    n must be even and >= 4 so that the node set is symmetric under both
    z -> z + pi and z -> -z, which the symmetry checks rely on. The spacing
    h and the node array are computed on first use; the array is shared,
    so it is read-only. Both are left out of equality, hashing and
    pickling, which see only n.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 4 or self.n % 2 != 0:
            raise ConfigError(f"PeriodicGrid: n must be even and >= 4, got {self.n}")

    @cached_property
    def h(self) -> float:
        return TWO_PI / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        z = TWO_PI * np.arange(self.n) / self.n
        z.flags.writeable = False
        return z

    def __getstate__(self) -> dict:
        return {"n": self.n}


# Defaults per the accuracy budget: 512 nodes for density work, 4096 for
# threshold constants, which leaves >= 6 digits of headroom at tilt
# exponents up to rho = 40.
DENSITY_GRID = PeriodicGrid(512)
THRESHOLD_GRID = PeriodicGrid(4096)


def quad_periodic(vals: np.ndarray, grid: PeriodicGrid) -> float:
    """Uniform-node quadrature (2*pi/n) * sum vals[k], vals[k] = f(node_k).

    Spectrally accurate for smooth periodic integrands; exact to round-off
    for trigonometric polynomials of degree < n/2.
    """
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (grid.n,):
        raise DomainError(f"quad_periodic: expected {grid.n} node values, got shape {vals.shape}")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise NumericError(f"quad_periodic: non-finite integrand at node index {int(bad[0])}")
    return grid.h * float(vals.sum())


def cell_index(x: float, grid: PeriodicGrid) -> int:
    """Index k of the node-centred, half-open cell [node_k - h/2, node_k + h/2)
    that holds the angle x (any finite float)."""
    return min(int(((x + 0.5 * grid.h) % TWO_PI) / grid.h), grid.n - 1)


def arc_sojourn(x0: float, direction: int, length: float, grid: PeriodicGrid,
                out: np.ndarray | None = None) -> np.ndarray:
    """Add to out (zeros if None) the time in each cell of the unit-speed
    leg of the given length from x0, forward if direction > 0, else
    backward; return out.

    The package's one deposit rule, exact and local: each full lap adds h
    to every cell, the two end cells get their partial lengths and the
    cells strictly between them h each. Cells are as in cell_index.
    """
    if out is None:
        out = np.zeros(grid.n)
    if length <= 0.0:
        return out
    n, h = grid.n, grid.h
    laps, rem = divmod(length, TWO_PI)  # 0 <= rem < 2*pi
    if laps:
        out += laps * h
    # the partial arc [s, e) in edge-aligned coordinates, cell k = [k h, (k+1) h)
    lo = x0 if direction > 0 else x0 - rem
    i = cell_index(lo, grid)
    s = (lo + 0.5 * h) % TWO_PI
    e = s + rem
    j = int(e / h)
    if j == i:
        out[i] += rem
        return out
    out[i] += (i + 1) * h - s
    out[j % n] += e - j * h
    if j <= n:
        out[i + 1:j] += h
    else:  # the leg wraps past 2*pi
        out[i + 1:] += h
        out[:j - n] += h
    return out
