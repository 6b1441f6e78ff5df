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
    """`cast(value)`, or a ConfigError naming `key` when that fails or
    gives a non-finite float."""
    try:
        out = cast(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if isinstance(out, float) and not math.isfinite(out):
        raise ConfigError(f"{key} must be a finite {cast.__name__}, got {value!r}")
    return out
