"""Exception types shared across the package."""


class GebsError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(GebsError, ValueError):
    """A weight-scheme or configuration parameter is out of range."""


class ShapeError(GebsError, ValueError):
    """Array arguments have inconsistent lengths or shapes."""


class UnsupportedSchemeError(GebsError):
    """The requested operation needs a finite, enumerable weight law."""


class UnsupportedModelError(GebsError):
    """The requested resampling method does not apply to this model."""


class EvaluationError(GebsError):
    """A model evaluation hit a domain violation."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ParseError(GebsError, ValueError):
    """A data file or specification string could not be parsed."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class NonConvergenceError(GebsError):
    """Newton iteration failed; carries the last iterate."""

    def __init__(self, message, last_beta=None, residual_norm=None):
        super().__init__(message)
        self.last_beta = last_beta
        self.residual_norm = residual_norm


class SingularSystemError(GebsError):
    """The weighted Jacobian is numerically singular."""


class EmptyRootSetError(GebsError):
    """No multistart run converged."""


class DegenerateRunError(GebsError):
    """Too many resamples fell back to the full-data estimate.

    The offending sample is attached so callers can still report it.
    """

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample


class InsufficientSampleError(GebsError, ValueError):
    """Not enough draws for the requested summary."""


class ConfigError(GebsError, ValueError):
    """Invalid experiment configuration."""


# the failures a resample may fall back from; anything else is a bug
SOLVER_ERRORS = (NonConvergenceError, SingularSystemError, EvaluationError)
