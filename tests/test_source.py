"""Static rules for the library source."""

import ast
from pathlib import Path

import macmahon

SOURCES = sorted(Path(macmahon.__file__).resolve().parent.glob("*.py"))


def test_no_assert_in_library():
    # python -O strips assert statements, so no check may rely on one
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(SOURCES) >= 8
    assert found == []
