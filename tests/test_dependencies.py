"""Every third-party package a test file imports is declared in
``pyproject.toml``, as a dependency or in the ``test`` extra, so that
``pip install .[test]`` is enough to collect the suite; every one a
package module imports is a dependency, so that ``pip install .`` is
enough to run it."""

import ast
import pathlib
import re
import sys

import pytest

# tomllib is in the standard library from Python 3.11 on
tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


def _declared(extras=("test",)):
    """Distribution names of the dependencies and of ``extras``."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] + [
        spec for extra in extras
        for spec in project["optional-dependencies"][extra]]
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


def _undeclared(paths, local, declared):
    return sorted(
        (path.name, name) for path in paths for name in _imported(path)
        if name not in sys.stdlib_module_names and name not in local
        and name.lower() not in declared)


def test_third_party_imports_of_the_tests_are_declared():
    local = {"a2gcovert"} | {p.stem for p in TESTS.glob("*.py")}
    undeclared = _undeclared(sorted(TESTS.glob("*.py")), local, _declared())
    assert not undeclared, undeclared


def test_third_party_imports_of_the_package_are_dependencies():
    paths = sorted((ROOT / "src" / "a2gcovert").glob("*.py"))
    assert paths
    undeclared = _undeclared(paths, {"a2gcovert"}, _declared(extras=()))
    assert not undeclared, undeclared
