"""Exception types shared across the package."""

__all__ = [
    "DesirablesError",
    "DomainError",
    "ImageError",
    "SpaceMismatch",
    "MissingArgument",
    "UnknownState",
    "DimensionError",
    "NumericalInstability",
    "ConfigError",
]


class DesirablesError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DesirablesError):
    """An argument lies outside a function's domain (e.g. a reward breaches the wealth floor)."""


class ImageError(DesirablesError):
    """A requested value lies outside a utility's image, so no inverse exists."""


class SpaceMismatch(DesirablesError):
    """Two gambles (or a gamble and an assessment set) live on different state spaces."""


class MissingArgument(DesirablesError):
    """A discount regime needs a reward or state label that was not supplied."""


class UnknownState(DesirablesError):
    """A state label is not present in a state-dependent rate map."""


class DimensionError(DesirablesError):
    """A linear program exceeds the kernel's size limits."""


class NumericalInstability(DesirablesError):
    """The LP kernel met a pivot too small to trust, or its solution failed the recheck.

    The message is one line; ``problem`` holds the LP (``lp.format_problem``
    dumps it for bug reports).
    """

    def __init__(self, message: str, problem=None):
        super().__init__(message)
        self.problem = problem


class ConfigError(DesirablesError):
    """Configuration text failed to parse or validate.

    ``line``/``column`` are 1-based positions into the source text when the
    error location is known, else ``None``.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
