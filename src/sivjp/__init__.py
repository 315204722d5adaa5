"""Simulation and analysis of self-interacting velocity jump processes on
the circle: exact event-driven engines, the limiting moment flow, a
fixed-point atlas with bifurcation thresholds, and reproducible experiment
harnesses."""

from .engine import (MomentTrace, OccupationStats, SIVJPConfig,
                     advect_occupation, drift_vprime, run_sitp,
                     run_sitp_general, quadratic_kernel_grids)
from .equilibria import (FixedPointRecord, GridDensity, fbar, find_fixed_points,
                         free_energy, jacobian_fbar, laplace_check, moments,
                         pibar, rho_2, rho_c, solve_r_of_rho)
from .errors import ConfigError, DomainError, NumericError, RunawayRateError
from .flow import FlowTrace, integrate_flow, pseudotrajectory_error
from .geometry import (DENSITY_GRID, THRESHOLD_GRID, PeriodicGrid, dist_t,
                       quad_periodic, wrap)
from .markov import (EventLog, TelegraphState, TorusVJPState, empirical_tv,
                     invariant_density, occupation_histogram,
                     simulate_telegraph, simulate_torus_vjp, velocity_fraction)
from .model import ModelSpec
from .potentials import (FrozenPotential, cos_potential, cos2_potential,
                         frozen_potential, grid_potential, local_minima,
                         make_potential, two_well_potential, zero_potential)
from .rng import SeedSpec, derive_stream

__version__ = "0.1.0"
