"""Exception types shared across the package."""


class Affine2FError(Exception):
    """Base class for package-specific failures."""


class ConfigError(Affine2FError):
    """Raised when a config file cannot be parsed into a valid run setup."""


class HypothesisError(Affine2FError, ValueError):
    """The model fails the standing hypotheses of the requested operation."""


class SingularGram(Affine2FError):
    """A normal-equation matrix is numerically singular.

    Carries the offending condition number estimate when available.
    """

    def __init__(self, message: str, cond: float | None = None):
        super().__init__(message)
        self.cond = cond


class OutOfDomain(Affine2FError):
    """A transformed estimate falls outside the invertible region."""


class SingularSystem(Affine2FError):
    """The two-horizon quadratic-variation system has no stable solution."""


class NonPositiveVY(Affine2FError):
    """The growth-rate probe produced a nonpositive limit variable."""


class ExcessiveExclusions(Affine2FError):
    """Too many Monte Carlo replications had to be dropped as singular."""
