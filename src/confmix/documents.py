"""The program's one boundary with its files: JSON documents read and
written, and CSV tables written.

The artefact format lives here: compact JSON with a trailing newline,
and CSV cells with floats at 12 significant digits and bools as 1/0.
Identical values give identical bytes.
"""

import json
import re
from itertools import chain, islice

import numpy as np


def read_json(path, what: str, error):
    """The JSON document in the file at `path`. A file that is not UTF-8
    or not JSON is one `error` naming `what` and the byte offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        offset, reason = e.start, "not UTF-8"
    except json.JSONDecodeError as e:
        offset, reason = len(e.doc[:e.pos].encode("utf-8")), e.msg
    raise error(f"malformed {what} document at byte {offset}: {reason}")


def _dumps(value, sort_keys=False, default=None) -> str:
    # dumps, not dump: dump streams through the pure-Python encoder
    return json.dumps(value, separators=(",", ":"), sort_keys=sort_keys, default=default)


# what a numpy array leaves in the encoded skeleton: no document string
# holds a NUL
_ARRAY_MARK = _dumps("\0array\0")


def write_json(path, doc, sort_keys: bool):
    """`doc` as compact JSON and a newline. A numpy array in `doc` is
    written as its `tolist()` would be, 256 rows at a time, so a document
    of large arrays never exists as Python lists or as one string."""
    arrays = []

    def hold(value):   # called in output order, for what json cannot encode
        if not isinstance(value, np.ndarray):
            raise TypeError(f"{type(value).__name__} is not JSON serializable")
        arrays.append(value)
        return "\0array\0"

    text = _dumps(doc, sort_keys, hold).split(_ARRAY_MARK)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[0])
        for array, after in zip(arrays, text[1:]):
            if array.ndim < 2:
                fh.write(_dumps(array.tolist()))
            else:
                for start in range(0, max(len(array), 1), 256):
                    rows = ",".join(_dumps(row.tolist()) for row in array[start:start + 256])
                    fh.write(("[" if start == 0 else ",") + rows)
                fh.write("]")
            fh.write(after)
        fh.write("\n")


# ---- CSV ----

_BOOL_CELLS = ("0", "1")
_FLOAT_CELL = "%.12g".__mod__   # the bytes of format(x, ".12g")
# the characters for which csv.QUOTE_MINIMAL quotes a cell
_SPECIAL = re.compile('[,"\r\n]')


def _cell(x) -> str:
    """One cell: a float at 12 significant digits, a bool as 1/0, None
    empty, anything else as `str` (what csv.writer makes of it)."""
    if isinstance(x, float):   # np.float64 included
        return _FLOAT_CELL(x)
    if type(x) in (bool, np.bool_):
        return _BOOL_CELLS[bool(x)]
    return "" if x is None else x if isinstance(x, str) else str(x)


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if _SPECIAL.search(cell) else cell


def cells(column) -> list:
    """A column's cells as written (`_cell` of each value, quoted as
    csv.QUOTE_MINIMAL quotes), for a sequence or a 1-D array. A column of
    one Python type, or an array of float64, bools or integers, is
    formatted in one pass."""
    if isinstance(column, np.ndarray):
        # values whose cells do not change as Python floats, ints or bools become them
        exact = column.dtype in (np.float64, np.bool_) or column.dtype.kind in "iu"
        column = column.tolist() if exact else list(column)
    types = set(map(type, column))
    if types <= {float}:
        return list(map(_FLOAT_CELL, column))
    if types <= {int}:
        return list(map(str, column))
    if types <= {bool}:
        return list(map(_BOOL_CELLS.__getitem__, column))
    out = column if types <= {str} else list(map(_cell, column))
    return list(map(_quote, out)) if _SPECIAL.search("".join(out)) else list(out)


def write_csv_cells(path, header, blocks):
    """`header` then the rows of each block: a block is a list of
    `cells` columns of equal length, one per header entry. Lines end in
    \\r\\n as csv.writer's do, and a row of one empty cell is written as
    `""`, as csv.writer writes it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for columns in chain([[[cell] for cell in cells(header)]], blocks):
            if len(columns) != len(header):
                raise ValueError(f"{len(columns)} columns under {len(header)} headers")
            if len(columns) == 1:
                columns = [[cell or '""' for cell in columns[0]]]
            lines = list(map(",".join, zip(*columns, strict=True)))
            if lines:
                fh.write("\r\n".join(lines) + "\r\n")


def write_csv(path, header, rows):
    """`header` then one line per row of `rows` (any iterable of rows of
    the header's width), each cell by the `cells` rule, 512 rows at a
    time."""
    rows = iter(rows)

    def blocks():
        while chunk := list(islice(rows, 512)):
            yield [cells(column) for column in zip(*chunk, strict=True)]

    write_csv_cells(path, header, blocks())
