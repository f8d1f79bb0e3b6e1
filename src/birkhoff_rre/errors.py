"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An argument breaks a documented precondition (shape, range, parity)."""


class SolverFailure(RuntimeError):
    """A dense linear-algebra routine failed to converge."""


class OrbitEscape(RuntimeError):
    """Trajectory sampling hit a non-finite or out-of-bounds state.

    ``step`` is the iteration index at which the orbit left the allowed
    region, and ``evaluations`` the number of map evaluations made: past
    ``step`` when the sampler stepped a whole extension before finding a
    non-finite observable in it.
    """

    def __init__(self, message, step, evaluations):
        super().__init__(message)
        self.step = step
        self.evaluations = evaluations


class DegenerateFrequency(ValueError):
    """A tuned-filter factor has a vanishing normalization denominator."""


class ValidationFailure(RuntimeError):
    """Circle validation could not evaluate the map on the fitted curve."""


class ConfigError(ValueError):
    """A run configuration file is malformed or contains unknown keys."""
