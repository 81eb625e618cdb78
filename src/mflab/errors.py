"""Exception types shared across the package."""


class MFLabError(Exception):
    """Base class for all package errors."""


class ValidationError(MFLabError):
    """An input violates a documented precondition or invariant; arg names
    the one argument at fault, when a single argument is."""

    def __init__(self, *args, arg: str | None = None):
        super().__init__(*args)
        self.arg = arg


class ToleranceError(MFLabError):
    """A numerical routine failed to reach its accuracy target."""


class QuadratureError(ToleranceError):
    """A quadrature error estimate exceeded its tolerance."""


class ResourceLimitError(MFLabError):
    """A problem size exceeds every available computational path."""


class ConfigError(ValidationError):
    """An experiment configuration failed to parse or validate."""
