"""Exception types shared across the package."""


class GppiError(Exception):
    """Base class for all package errors."""


class ConfigError(GppiError):
    """Malformed or inconsistent configuration / persisted artifact."""


class AlignmentError(ConfigError):
    """Task library records disagree on a field that must be shared.

    Attributes:
        field: name of the mismatched field.
    """

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(message or f"library records disagree on '{field}'")


class NumericalError(GppiError):
    """Numerical failure (factorization, overflow, divergence).

    Attributes carry context when available:
        jitter: last jitter level attempted for a factorization failure.
        step: horizon/time-step index at which the failure occurred.
    """

    def __init__(self, message: str, *, jitter: float | None = None,
                 step: int | None = None):
        self.jitter = jitter
        self.step = step
        super().__init__(message)
