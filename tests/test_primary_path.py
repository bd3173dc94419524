"""The package imports numpy only: no module needs scipy, and no command
loads it.

Each check runs in a fresh interpreter, since this test session has
imported scipy itself.  The commands are the benchmark's three workloads
and an outage sweep of both modes whose noise uncertainty, up to 30 dB,
takes the multi-panel path of the noise rule for both fading laws.
"""

import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import a2gcovert

SRC = pathlib.Path(a2gcovert.__file__).resolve().parent.parent
BENCH = SRC.parent / "bench"

_WORKLOADS = json.loads((BENCH / "workloads.json").read_text())["workloads"]
COMMANDS = [w["argv"] + ["--seed", "0"] for w in _WORKLOADS.values()] + [
    ["sweep", "--axis", "rho", "--start", "2", "--stop", "30",
     "--metrics", "outage,ecr_opt", "--modes", "om,dm"]]

_RUN = """
import contextlib, io, json, sys
if {block_scipy!r}:
    sys.modules["scipy"] = None  # any import of scipy now fails
import a2gcovert.cli

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

report = {{"after_import": scipy_modules(), "outputs": []}}
for argv in {commands!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = a2gcovert.cli.main(argv)
    assert code == 0, (argv, code)
    report["outputs"].append(out.getvalue())
report["after_commands"] = scipy_modules()
print(json.dumps(report))
"""


def _fresh_python(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                         timeout=600)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


@pytest.fixture(scope="module")
def runs():
    return {block: json.loads(_fresh_python(_RUN.format(
        block_scipy=block, commands=COMMANDS))) for block in (False, True)}


def test_import_and_commands_load_no_scipy(runs):
    assert runs[False]["after_import"] == []
    assert runs[False]["after_commands"] == []


def test_commands_run_without_scipy_and_write_the_same_csv(runs):
    normal, blocked = runs[False]["outputs"], runs[True]["outputs"]
    assert len(normal) == len(COMMANDS)
    assert all(out.count("\n") > 2 for out in normal)
    assert blocked == normal


def test_every_module_imports_without_scipy():
    # the paper-reproduction layer too
    names = [m.name for m in pkgutil.iter_modules(a2gcovert.__path__)]
    assert "surrogate" in names
    code = f"""
import importlib, sys
sys.modules["scipy"] = None  # any import of scipy now fails
for name in {names!r}:
    importlib.import_module("a2gcovert." + name)
print(len({names!r}))
"""
    assert _fresh_python(code) == str(len(names))


def test_tracer_still_wraps_integrate_and_counts_fits():
    # bench/spans.py replaces ``integrate`` in specfun, detection and
    # throughput; those modules load it only when it is read
    code = f"""
import contextlib, io, sys
sys.path.insert(0, {str(BENCH)!r})
import a2gcovert, a2gcovert.cli, spans
tracer = spans.install(a2gcovert)
with contextlib.redirect_stdout(io.StringIO()):
    code = a2gcovert.cli.main(["mode-map", "--metric", "ecr", "--points",
                               "2", "--allow-unsafe"])
print(code, tracer.report()["specfun.marcum_fit.misses"])
"""
    assert _fresh_python(code) == "0 2"
