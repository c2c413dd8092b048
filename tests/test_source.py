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


def test_version_lives_in_the_package_only():
    # pyproject.toml reads the version from macmahon.__version__, so the
    # two can never disagree
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = pyproject.read_text().split("[project]\n", 1)[1].split("\n[", 1)[0]
    keys = [line.split("=", 1)[0].strip() for line in project.splitlines() if "=" in line]
    assert "version" not in keys
    assert 'dynamic = ["version"]' in project.splitlines()
    assert 'version = {attr = "macmahon.__version__"}' in pyproject.read_text()
    assert macmahon.__version__
