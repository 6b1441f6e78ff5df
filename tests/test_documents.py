"""The file boundary: one reader, one number rule and one writer."""

import ast
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

import confmix
from confmix.documents import cells, read_json, write_csv, write_json
from confmix.errors import ConfigError


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["float", "float64", "int64", "bool", "bool_", "str"],
              [(0.1 + 0.2, np.float64(1 / 3), np.int64(7), True, np.False_, "a,b")])
    assert path.read_bytes() == (b"float,float64,int64,bool,bool_,str\r\n"
                                 b'0.3,0.333333333333,7,1,0,"a,b"\r\n')


def _csv_module_bytes(header, rows):
    """What csv.writer wrote under the artefact cell rule: floats at 12
    significant digits and bools as 1/0, the rest left to the writer."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows([f"{x:.12g}" if isinstance(x, float)
                      else ("1" if x else "0") if type(x) in (bool, np.bool_)
                      else x for x in row] for row in rows)
    return out.getvalue().encode("utf-8")


ADVERSARIAL = [
    ("a,b", 'say "hi"', "cr\rin", "lf\nin", "crlf\r\n", ""),
    ("", "", "", "", "", ""),
    (True, False, np.True_, np.False_, None, "plain"),
    (np.float64(1 / 3), np.int64(-7), float("nan"), float("inf"), -float("inf"), -0.0),
    (0.1 + 0.2, 1e-300, 2**70, -3, 1.0, 'x"y,z'),
    (" lead", "trail ", "tab\tin", "é", "'single'", "#"),
]


HEADER6 = ["h1", "h,2", 'h"3', "", "h\n5", "h6"]


@pytest.mark.parametrize("header, rows", [
    (HEADER6, ADVERSARIAL),
    (["only"], [("",), ("x",), (np.float64(2.5),), (True,), ("",), ("a,b",)]),
    ([""], [("",)]),
    (["a", "b"], []),
], ids=["six_columns", "one_column", "one_empty_cell", "header_only"])
def test_write_csv_equals_csv_writer(tmp_path, header, rows):
    """Every cell a csv.writer would quote is quoted, and only those; a
    row of one empty cell is written as "" as csv.writer writes it."""
    path = tmp_path / "t.csv"
    write_csv(path, header, rows)
    assert path.read_bytes() == _csv_module_bytes(header, rows)


def test_write_csv_takes_a_generator_of_rows(tmp_path):
    """Rows from a zip, as predictions.csv passes them, over more than one
    512-row block."""
    rows = [ADVERSARIAL[i % len(ADVERSARIAL)] for i in range(9000)]
    path = tmp_path / "t.csv"
    write_csv(path, HEADER6, zip(*zip(*rows)))
    assert path.read_bytes() == _csv_module_bytes(HEADER6, rows)


def test_cells_of_arrays_equal_cells_of_values():
    for column in (np.array([0.1, -0.0, np.nan, np.inf, 1e22]), np.array([True, False]),
                   np.array([3, -4], dtype=np.int64), np.array([1.5], dtype=np.float32)):
        assert cells(column) == cells(list(column))


def test_write_csv_refuses_rows_of_another_width(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [(1, 2), (3,)])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [(1, 2, 3)])


def test_write_json_writes_arrays_as_their_lists(tmp_path):
    """An array is written as its tolist() would be, 256 rows at a time."""
    rng = np.random.default_rng(0)
    doc = {"big": rng.normal(size=(600, 3)), "row": rng.normal(size=5),
           "empty": np.zeros((0, 4)), "narrow": np.zeros((3, 0)),
           "nested": [{"w": rng.normal(size=(2, 2)), "x": [1.5, None]}], "s": "text"}
    for sort_keys in (True, False):
        path = tmp_path / "d.json"
        write_json(path, doc, sort_keys=sort_keys)
        lists = json.loads(json.dumps(doc, default=np.ndarray.tolist))
        assert path.read_text(encoding="utf-8") == json.dumps(
            lists, separators=(",", ":"), sort_keys=sort_keys) + "\n"
    with pytest.raises(TypeError):
        write_json(tmp_path / "d.json", {"x": object()}, sort_keys=False)


def test_write_json_compact_with_newline(tmp_path):
    path = tmp_path / "d.json"
    write_json(path, {"b": [1.5, 2], "a": None}, sort_keys=True)
    assert path.read_bytes() == b'{"a":null,"b":[1.5,2]}\n'
    write_json(path, {"b": 1, "a": 2}, sort_keys=False)
    assert path.read_bytes() == b'{"b":1,"a":2}\n'


def test_read_json_offset_counts_bytes(tmp_path):
    # "é" is one character and two bytes, so the fault is at character 6, byte 7
    path = tmp_path / "d.json"
    path.write_bytes('["é", ]'.encode("utf-8"))
    with pytest.raises(ConfigError, match="^malformed spec document at byte 7: "):
        read_json(path, "spec", ConfigError)


def test_only_documents_imports_json_or_csv():
    offenders = []
    for path in sorted(Path(confmix.__file__).parent.glob("*.py")):
        if path.name == "documents.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}: {m}" for m in modules
                          if m.split(".")[0] in ("json", "csv")]
    assert offenders == []
