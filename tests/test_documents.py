"""The file boundary: one reader, one number rule and one writer."""

import ast
from pathlib import Path

import numpy as np
import pytest

import confmix
from confmix.documents import read_json, write_csv, write_json
from confmix.errors import ConfigError


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["float", "float64", "int64", "bool", "bool_", "str"],
              [(0.1 + 0.2, np.float64(1 / 3), np.int64(7), True, np.False_, "a,b")])
    assert path.read_bytes() == (b"float,float64,int64,bool,bool_,str\r\n"
                                 b'0.3,0.333333333333,7,1,0,"a,b"\r\n')


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
