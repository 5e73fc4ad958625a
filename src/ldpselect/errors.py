"""Exception types shared across the package."""


class LdpSelectError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(LdpSelectError, ValueError):
    """Two vectors or domains that must match in length do not."""


class ConfigError(LdpSelectError, ValueError):
    """A parameter is outside its legal range or names an unknown option."""


class ArgumentError(LdpSelectError, ValueError):
    """A runtime argument refers to something outside the object it targets."""


class InvariantError(LdpSelectError, ValueError):
    """Data violates a structural invariant (bad file row, broken bound, ...)."""


class UnsupportedSizeError(ConfigError):
    """The requested instance size is outside what the construction supports."""


class InvalidCertificateError(InvariantError):
    """A dominating-set certificate failed independent verification."""


class IncompleteEstimatesError(InvariantError):
    """Query estimates do not cover every test in the family."""


class InsufficientSamplesError(LdpSelectError, ValueError):
    """Fewer users are available than the protocol needs."""

    def __init__(self, available: int, required: int):
        self.available = int(available)
        self.required = int(required)
        super().__init__(
            f"protocol needs at least {self.required} users, only {self.available} available"
        )


class ResamplingLimitError(LdpSelectError, RuntimeError):
    """A random resampling loop hit its attempt cap; carries diagnostics."""

    def __init__(self, message: str, attempts: int, diagnostics: dict | None = None):
        self.attempts = int(attempts)
        self.diagnostics = dict(diagnostics or {})
        super().__init__(f"{message} (after {self.attempts} attempt{'s' * (self.attempts != 1)})")


class FlatnessError(LdpSelectError, ValueError):
    """A stochastic map is not flat; records the offending column and entry."""

    def __init__(self, group: str, column: int, entry: int, value: float, low: float, high: float):
        self.group = group
        self.column = int(column)
        self.entry = int(entry)
        self.value = float(value)
        self.low = float(low)
        self.high = float(high)
        super().__init__(
            f"image of {group}-column {self.column} has mass {self.value:.6g} at entry "
            f"{self.entry}, outside [{self.low:.6g}, {self.high:.6g}]"
        )
