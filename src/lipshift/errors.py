"""Exception types shared across the package."""


class LipshiftError(Exception):
    """Base class for all library errors."""


class InvalidIntervalError(LipshiftError, ValueError):
    """Interval endpoints are NaN or out of order."""


class InvalidParameterError(LipshiftError, ValueError):
    """A numeric parameter is outside its admissible range."""


class InvalidInputError(LipshiftError, ValueError):
    """Input data is empty or malformed."""


class NonDoublingError(LipshiftError, ValueError):
    """An interval carries zero mass, so doubling ratios are undefined."""


class NoBoundAvailableError(LipshiftError, ValueError):
    """No published closed-form spread bound exists for this distribution kind."""


class NondifferentiablePointError(LipshiftError, ValueError):
    """Requested derivative at (or too close to) a kink of the spread function."""


class ZeroDensityError(LipshiftError, ZeroDivisionError):
    """Kernel smoother normalization requires a strictly positive density."""


class NoViolationError(LipshiftError, ValueError):
    """The perturbation construction requires a K-sized gap that is not present."""


class SizeCapError(LipshiftError, ValueError):
    """The covering construction would exceed the enumeration cap."""


class ConfigError(LipshiftError, ValueError):
    """Experiment configuration is invalid."""


class ExperimentError(LipshiftError, RuntimeError):
    """Too many replicate failures to trust the experiment."""


class KernelUnavailableError(LipshiftError, ImportError):
    """The C kernels could not be built or loaded at import."""
