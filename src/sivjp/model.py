"""Model specification shared by the simulation engine and the fixed-point
atlas: exterior potential U, quadratic interaction strength rho, and the
jump rate floor lambda_min.

The interaction kernel is -rho*cos(x - z): attractive for rho > 0,
repulsive for rho < 0. Against a measure with trigonometric moments
(a, b) = (int cos, int sin) the induced drift is

    V'(x) = U'(x) + rho * (a sin x - b cos x),

so the whole self-interaction is carried by the two moments.

This module is also the home of a run's specification: the start state
TelegraphState, the run config SIVJPConfig with its snapshot schedule, and
the proposal budget with its constants, so that loading a config loads no
engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .potentials import FrozenPotential, zero_potential
from .rng import SeedSpec

# the proposal budget: BUDGET_SIGMAS standard deviations and BUDGET_SLACK
# proposals above the mean of the dominating Poisson(lam_bar * T) count
BUDGET_SIGMAS = 10.0
BUDGET_SLACK = 100.0
# largest expected proposal count lam_bar * T of a run: about 11 to 21
# minutes at the engine loop's 0.65 to 1.25 us per proposal (2-vCPU Xeon)
MAX_PROPOSALS = 1e9
MAX_SNAPSHOTS = 2_000_000  # longest snapshot schedule a run may record
# relative round-off allowance on exact invariants: the unit disk of the
# occupation moments and the domination of the jump rate by the envelope
ROUNDOFF_TOL = 1e-12


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
    def thinning_bound(self) -> float:
        """Global envelope for the self-interacting jump rate.

        Valid because the moments of a probability measure on the circle
        satisfy a^2 + b^2 <= 1, so |rho*(a sin x - b cos x)| <= |rho|.
        """
        return self.lambda_min + self.potential.dv_sup + abs(self.rho)


@dataclass(frozen=True)
class TelegraphState:
    x: float
    y: int

    def __post_init__(self) -> None:
        if self.y not in (-1, 1):
            raise ConfigError(f"TelegraphState: y must be -1 or +1, got {self.y}")


def proposal_budget(lam_bar: float, t_end: float) -> int:
    """The most proposals a run of length t_end under lam_bar may make.

    Every proposal rate is at most lam_bar, so the count is dominated by
    Poisson(lam_bar * t_end); passing its mean by BUDGET_SIGMAS standard
    deviations means the loop does not advance. A mean above MAX_PROPOSALS,
    infinite or NaN raises ConfigError.
    """
    mean = lam_bar * t_end
    if not mean <= MAX_PROPOSALS:
        raise ConfigError(f"lam_bar * T = {mean:.3g} expected proposals, "
                          f"not at most MAX_PROPOSALS = {MAX_PROPOSALS:.0e}")
    return int(mean + BUDGET_SIGMAS * math.sqrt(mean) + BUDGET_SLACK)  # an int compares faster


@dataclass(frozen=True)
class SIVJPConfig:
    """One self-interacting run.

    z0 = None draws the initial position uniformly (the first stream draw)
    with velocity +1. mu0 gives the initial occupation moments; a
    run_sitp_general run starts uniform, so it needs mu0 = (0, 0).

    record_stride is the snapshot interval; with log_stride=True it is a
    multiplicative ratio and snapshots sit at record_t0 * stride^k, which
    gives a uniform density in logarithmic time.
    """

    model: ModelSpec
    t_end: float
    seed: SeedSpec
    r: float = 1.0
    mu0: tuple[float, float] = (0.0, 0.0)
    z0: TelegraphState | None = None
    record_stride: float = 10.0
    log_stride: bool = False
    record_t0: float = 1.0
    lambda_bar_override: float | None = None

    def validate(self) -> None:
        if not 0.0 < self.r < math.inf:
            raise ConfigError("SIVJPConfig: r must be finite and > 0")
        if not 0.0 < self.t_end < math.inf:
            raise ConfigError("SIVJPConfig: T must be finite and > 0")
        if not self.record_stride > 0.0:
            raise ConfigError("SIVJPConfig: record_stride must be > 0")
        if self.log_stride and self.record_stride <= 1.0:
            raise ConfigError("SIVJPConfig: multiplicative record_stride must be > 1")
        if self.log_stride and not 0.0 < self.record_t0 < math.inf:
            raise ConfigError("SIVJPConfig: record_t0 must be finite and > 0")
        a0, b0 = self.mu0
        if not a0 * a0 + b0 * b0 <= 1.0 + ROUNDOFF_TOL:  # NaN fails too
            raise ConfigError("SIVJPConfig: mu0 moments must lie in the closed unit disk")
        if self.z0 is not None and not math.isfinite(self.z0.x):
            raise ConfigError("SIVJPConfig: x0 must be finite")
        self.snapshot_times()
        proposal_budget(self.model.thinning_bound, self.t_end)

    def snapshot_times(self) -> np.ndarray:
        """The snapshot times before t_end, then t_end; refuses more than
        MAX_SNAPSHOTS before t_end."""
        span = (math.log(self.t_end / self.record_t0) / math.log(self.record_stride)
                if self.log_stride else self.t_end / self.record_stride)
        # the schedule keeps at least floor(span) - 1 times, so this refuses
        # no schedule that the count below accepts; it is compared as a float
        # because int() of an infinite or NaN span raises
        if not span <= MAX_SNAPSHOTS + 2:
            raise ConfigError("SIVJPConfig: snapshot schedule too dense")
        if self.log_stride:
            ts = self.record_t0 * self.record_stride ** np.arange(max(math.floor(span) + 1, 0))
            ts = ts[(ts > 0.0) & (ts < self.t_end)]
        else:
            ts = np.arange(1, int(span) + 1) * self.record_stride
            ts = ts[ts < self.t_end]
        if ts.size > MAX_SNAPSHOTS:
            raise ConfigError("SIVJPConfig: snapshot schedule too dense")
        return np.concatenate([ts, [self.t_end]])
