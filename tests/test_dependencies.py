"""Every third-party package a test file imports is declared in
``pyproject.toml``, as a dependency or in the ``test`` extra, so that
``pip install .[test]`` is enough to collect the suite."""

import ast
import pathlib
import re
import sys

import pytest

# tomllib is in the standard library from Python 3.11 on
tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


def _declared():
    """Distribution names of the dependencies and the ``test`` extra."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
            for spec in specs}


def _imported(path):
    """Top-level names of the modules a file imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_third_party_imports_of_the_tests_are_declared():
    local = {"a2gcovert"} | {p.stem for p in TESTS.glob("*.py")}
    declared = _declared()
    undeclared = {
        (path.name, name)
        for path in sorted(TESTS.glob("*.py"))
        for name in _imported(path)
        if name not in sys.stdlib_module_names and name not in local
        and name.lower() not in declared}
    assert not undeclared, sorted(undeclared)
