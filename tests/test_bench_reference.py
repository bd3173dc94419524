"""The benchmark's planner workloads reproduce their recorded rows.

Runs the ``modemap_track`` and ``rho_sweep`` commands of
``bench/workloads.json`` at its reference seed through ``cli.main`` and
checks every row with ``bench/check.py`` against ``bench/reference/``.
"""

import importlib.util
import json
import pathlib

import pytest

from a2gcovert import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _check_module():
    spec = importlib.util.spec_from_file_location("bench_check",
                                                  BENCH / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["modemap_track", "rho_sweep"])
def test_reference_rows(workload, capsys):
    spec = json.loads((BENCH / "workloads.json").read_text())
    run = spec["workloads"][workload]
    argv = run["argv"] + ["--seed", str(spec["reference_seed"])]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    reference = (BENCH / "reference" / f"{workload}.csv").read_text()
    assert _check_module().failed_rows(out, reference, run["columns"]) == []
