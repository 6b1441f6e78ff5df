"""Exception types shared across the package; `as_type`, which casts a
value from outside the program or raises a ConfigError; `check_range`,
the one form of every bound on a count or size; and `as_array`, which
reads a numeric array from a document by the same rule as `as_type`."""

import math
from collections import Counter
from itertools import chain

import numpy as np


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


def as_type(value, cast, key: str, text: bool = False):
    """`cast(value)`, or a ConfigError naming `key` when that fails, gives
    a non-finite float, casts a bool or a fractional number to int, a bool
    to float, or anything but a str to str. A str is a number only as a
    flag's `text`: in a document it is not one, as in as_array."""
    try:
        out = cast(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    lossy = (isinstance(value, bool) or (cast is str) != isinstance(value, str) and not text
             or cast is int and isinstance(value, float) and out != value)
    if lossy or isinstance(out, float) and not math.isfinite(out):
        what = {int: "an integer", str: "a string"}.get(cast, f"a finite {cast.__name__}")
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return out


def check_range(name: str, value, low, high=None, error=ConfigError):
    """`error` naming `name`, its bounds and `value`, unless low <= value
    and, when `high` is given, value <= high."""
    if value < low or high is not None and value > high:
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be {bounds}, got {value}")


_SHAPES = {int: ("an integer", "a list of integers", "a list of integer lists"),
           float: ("a finite number", "a list of finite numbers",
                   "a list of finite-number lists")}


def as_array(values, dtype, ndim: int, what: str, error) -> np.ndarray:
    """`values` as an int64 (`dtype` int) or float64 (`dtype` float) array
    of `ndim` dimensions, or one `error` naming `what` (and the first
    ragged row). As in as_type, a bool is not a number, a fraction is not
    an integer (2.0 reads as 2) and every value is finite; a string is
    not a number either, since only flags arrive as text."""
    try:
        arr = np.asarray(values)
        if isinstance(values, list) and arr.ndim == ndim:
            # numpy reads [0, true] as numbers and [2**70] as objects, so
            # a list's leaves are checked one by one
            leaves = chain.from_iterable(values) if ndim == 2 else values
            numbers = set(map(type, leaves)) <= {int, float}
        else:
            numbers = arr.dtype.kind in "iuf"
        with np.errstate(invalid="ignore", over="ignore"):
            out = arr.astype(np.int64 if dtype is int else np.float64)
        if numbers and arr.ndim == ndim and (
                np.array_equal(out, arr) if dtype is int else np.isfinite(out).all()):
            return out
    except (TypeError, ValueError, OverflowError):   # ragged rows, huge ints
        pass
    if ndim == 2 and isinstance(values, list) and all(isinstance(r, list) for r in values):
        # the odd row is the first whose width differs from the most common one
        widths = Counter(map(len, values))
        if len(widths) > 1:
            width = widths.most_common(1)[0][0]
            ragged = next(i for i, r in enumerate(values) if len(r) != width)
            raise error(f"{what} row {ragged} has ragged width")
    raise error(f"{what} must be {_SHAPES[dtype][ndim]}")
