"""Model specification shared by the simulation engine and the fixed-point
atlas: exterior potential U, quadratic interaction strength rho, and the
jump rate floor lambda_min.

The interaction kernel is -rho*cos(x - z): attractive for rho > 0,
repulsive for rho < 0. Against a measure with trigonometric moments
(a, b) = (int cos, int sin) the induced drift is

    V'(x) = U'(x) + rho * (a sin x - b cos x),

so the whole self-interaction is carried by the two moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .potentials import FrozenPotential, zero_potential


@dataclass(frozen=True)
class ModelSpec:
    potential: FrozenPotential = field(default_factory=zero_potential)
    rho: float = 0.0
    lambda_min: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.rho):
            raise ConfigError(f"ModelSpec: rho must be finite, got {self.rho}")
        if not 0.0 < self.lambda_min < math.inf:
            raise ConfigError(f"ModelSpec: lambda_min must be finite and > 0, "
                              f"got {self.lambda_min}")

    @property
    def u(self):
        return self.potential.v

    @property
    def du(self):
        return self.potential.dv

    @property
    def du_sup(self) -> float:
        return self.potential.dv_sup

    @property
    def thinning_bound(self) -> float:
        """Global envelope for the self-interacting jump rate.

        Valid because the moments of a probability measure on the circle
        satisfy a^2 + b^2 <= 1, so |rho*(a sin x - b cos x)| <= |rho|.
        """
        return self.lambda_min + self.du_sup + abs(self.rho)
