"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: ConfigError and DomainError -> 2,
OSError -> 3, a run or sweep that failed (NumericError, RunawayRateError,
SweepError) -> 4. Everything else is a genuine bug.
"""


class DomainError(ValueError):
    """An argument violates a mathematical precondition (non-finite input,
    symmetry hypothesis not satisfied, empty trajectory, ...)."""


class ConfigError(ValueError):
    """A run configuration is invalid or inconsistent."""


class NumericError(RuntimeError):
    """A numerical operation produced or encountered a non-finite /
    impossible value (overflow at a quadrature node, bracket failure, ...)."""


class RunawayRateError(RuntimeError):
    """A thinning loop lost its exactness guarantee: a jump rate exceeded
    the envelope (an understated bound such as a potential's dv_sup), or
    the loop exceeded its proposal budget, which indicates an unbounded
    effective jump rate rather than a long run."""


class SweepError(RuntimeError):
    """More than 10% of a sweep's runs failed; the sweep's outputs are
    written, with each failed run as an error row."""
