"""The primary path imports numpy and scipy.special only.

Each check runs in a fresh interpreter, since this test session has
imported scipy.optimize and scipy.integrate itself.
"""

import os
import pathlib
import subprocess
import sys

import a2gcovert

SRC = pathlib.Path(a2gcovert.__file__).resolve().parent.parent
BENCH = SRC.parent / "bench"

_RUN = """
import contextlib, io, sys
import a2gcovert.cli
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = a2gcovert.cli.main(argv)
    assert code == 0, (argv, code)
print(sorted(m for m in ("scipy.optimize", "scipy.integrate")
             if m in sys.modules))
"""


def _fresh_python(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                         timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def test_import_and_commands_load_neither_optimize_nor_integrate():
    commands = [
        ["mode-map", "--metric", "ecr", "--points", "2", "--allow-unsafe"],
        ["sweep", "--axis", "rho", "--start", "2", "--stop", "4",
         "--points", "2", "--metrics", "ecr_opt,csc_opt"],
        # 10^4 is the smallest sample count validate accepts
        ["validate", "--samples", "10000", "--workers", "1"],
    ]
    assert _fresh_python(_RUN.format(commands=[])) == "[]"
    assert _fresh_python(_RUN.format(commands=commands)) == "[]"


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
