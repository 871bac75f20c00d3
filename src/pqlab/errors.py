"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A structure parameter violates its admissible range, or the p,q-gap
    condition fails. The message names the violated bound."""


class RegionError(ValueError):
    """A requested space-time region contains no grid nodes."""


class PreconditionError(ValueError):
    """An operation's mathematical precondition is violated (e.g. a field
    that must vanish on a lateral boundary does not)."""


class StepFailure(RuntimeError):
    """Nonlinear iteration for one implicit time step did not reach the
    tolerance within the allowed number of iterations, or its line search
    found no decrease.  Carries the failing time, its last residual and the
    step's convergence history (a solver.StepHistory)."""

    def __init__(self, message, t=None, residual=None, history=None):
        super().__init__(message)
        self.t = t
        self.residual = residual
        self.history = history


class DivergenceError(RuntimeError):
    """The nonlinear iteration produced NaN or overflow."""


class ConfigError(ValueError):
    """An experiment config file is malformed. Carries the offending line
    number when the problem is tied to a specific line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
