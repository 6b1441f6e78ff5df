"""Exception types shared across the package, and `as_type`, which casts
a value from outside the program or raises a ConfigError."""

import math


class ShapeError(ValueError):
    """Operand dimensions do not line up; message names both shapes."""


class DomainError(ValueError):
    """Input outside an operation's documented domain (non-finite, off-simplex)."""


class ContractError(ValueError):
    """An operation was called in a way its contract forbids."""


class TapeStateError(RuntimeError):
    """Reverse pass requested for a value with no recorded computation."""


class GraphFormatError(ValueError):
    """Graph document cannot be parsed; message carries the byte offset."""


class GraphValidationError(ValueError):
    """Graph document parsed but a record violates the schema."""


class ConfigError(ValueError):
    """Invalid configuration or generator/verification parameters."""


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite; message names the epoch."""


def as_type(value, cast, key: str):
    """`cast(value)`, or a ConfigError naming `key` when that fails, gives
    a non-finite float, or casts a bool or a fractional number to int."""
    try:
        out = cast(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    lossy = cast is int and (isinstance(value, bool)
                             or isinstance(value, float) and out != value)
    if lossy or isinstance(out, float) and not math.isfinite(out):
        what = "an integer" if cast is int else f"a finite {cast.__name__}"
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return out
