"""Simulation and analysis of self-interacting velocity jump processes on
the circle: exact event-driven engines, the limiting moment flow, a
fixed-point atlas with bifurcation thresholds, and reproducible experiment
harnesses.

The names below are imported from their submodules on first access
(PEP 562), so `import sivjp` and `python -m sivjp` load no submodule that
the command at hand does not run.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "engine": ("MomentTrace", "OccupationStats", "SIVJPConfig", "advect_occupation",
               "drift_vprime", "run_sitp", "run_sitp_general", "quadratic_kernel_grids"),
    "equilibria": ("FixedPointRecord", "GridDensity", "fbar", "find_fixed_points",
                   "free_energy", "jacobian_fbar", "laplace_check", "moments", "pibar",
                   "rho_2", "rho_c", "solve_r_of_rho"),
    "errors": ("ConfigError", "DomainError", "NumericError", "RunawayRateError"),
    "flow": ("FlowTrace", "integrate_flow", "pseudotrajectory_error"),
    "geometry": ("DENSITY_GRID", "THRESHOLD_GRID", "PeriodicGrid", "dist_t",
                 "quad_periodic", "wrap"),
    "markov": ("EventLog", "TelegraphState", "TorusVJPState", "empirical_tv",
               "invariant_density", "occupation_histogram", "simulate_telegraph",
               "simulate_torus_vjp", "velocity_fraction"),
    "model": ("ModelSpec",),
    "potentials": ("FrozenPotential", "cos_potential", "cos2_potential",
                   "frozen_potential", "grid_potential", "local_minima",
                   "make_potential", "two_well_potential", "zero_potential"),
    "rng": ("SeedSpec", "derive_stream"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
