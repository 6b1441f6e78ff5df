"""The program's one boundary with its files: JSON documents read and
written, and CSV tables written.

The artefact format lives here: compact JSON with a trailing newline,
and CSV cells with floats at 12 significant digits and bools as 1/0.
Identical values give identical bytes.
"""

import csv
import json

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


def write_json(path, doc, sort_keys: bool):
    with open(path, "w", encoding="utf-8") as fh:
        # dumps, not dump: dump streams through the pure-Python encoder
        fh.write(json.dumps(doc, separators=(",", ":"), sort_keys=sort_keys) + "\n")


_BOOLS = {bool, np.bool_}


def write_csv(path, header, rows):
    """`header` then one line per row: floats at 12 significant digits,
    bools as 1/0, anything else as the csv module writes it (`str`)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # inline, not a call per cell: predictions.csv has 10 cells per node.
        # np.float64 is a float; the writer applies `str` to the rest
        writer.writerows([f"{x:.12g}" if isinstance(x, float)
                          else ("1" if x else "0") if type(x) in _BOOLS
                          else x for x in row] for row in rows)
