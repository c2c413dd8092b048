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


def test_no_tuple_of_a_generator_and_no_splatted_generator():
    # tuple(<genexpr>) grows its result by guesses and resizes it, and the
    # freed tuples fill CPython's per-size free lists, which only a full
    # collection empties; a list comprehension has no such cost
    def found(tree):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if (isinstance(node.func, ast.Name) and node.func.id == "tuple"
                    and any(isinstance(a, ast.GeneratorExp) for a in node.args)):
                yield node.lineno
            if any(isinstance(a, ast.Starred) and isinstance(a.value, ast.GeneratorExp)
                   for a in node.args):
                yield node.lineno

    hits = [f"{path.name}:{line}" for path in SOURCES
            for line in found(ast.parse(path.read_text(), str(path)))]
    assert hits == []


def test_public_names_resolve():
    # every name in __all__ is defined once, and a star import takes them all
    names = macmahon.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(macmahon, n)] == []
    scope = {}
    exec("from macmahon import *", scope)
    assert set(names) <= scope.keys()
