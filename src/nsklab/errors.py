"""Exception hierarchy shared by all nsklab modules."""


class NsklabError(Exception):
    """Base class for all toolkit errors."""


class ConstraintViolation(NsklabError):
    """A structural parameter constraint failed; the message names the inequality."""


class CriticalityViolation(NsklabError):
    """The pressure law is not critical at the reference density."""


class GridMismatch(NsklabError):
    """Field data is inconsistent with the grid it claims to live on."""


class EmptyLowBand(NsklabError):
    """No nonzero grid mode falls inside the low-frequency cutoff band."""


class WindowUncovered(NsklabError):
    """A time series does not cover the requested window."""


class NonPositiveSeries(NsklabError):
    """Log-log fitting requires strictly positive values on the window."""


class MissingConstituent(NsklabError):
    """A norm bundle lacks series required by the aggregate."""


class RangeViolation(NsklabError):
    """Density left the admissible window rho*/4 <= rho* + theta <= 4 rho*."""


class ValidityExceeded(NsklabError):
    """Density left the validity interval of the pressure law."""


class StepRejected(NsklabError):
    """A time step produced an inadmissible state and was rejected."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class ParseError(NsklabError):
    """Scenario config text could not be parsed."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(NsklabError):
    """Scenario config parsed but failed schema validation."""


class NumericsWarning(UserWarning):
    """Non-fatal numerical-quality warning (resolution, theorem scope, ...)."""
