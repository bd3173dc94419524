"""The benchmark's workloads reproduce their recorded rows.

Runs every workload command of ``bench/workloads.json`` at its reference
seed through ``cli.main`` and checks every row with ``bench/check.py``
against ``bench/reference/``.  The workloads with Monte Carlo columns run
at their held-out seed too, so the oracle's draws are checked at two seeds.
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


@pytest.mark.parametrize("workload, seed", [
    pytest.param(workload, "reference_seed", id=workload)
    for workload in ("modemap_track", "rho_sweep", "validate_grid")] + [
    pytest.param(workload, "held_out_seed", id=f"{workload}-held_out")
    for workload in ("rho_sweep", "validate_grid")])
def test_reference_rows(workload, seed, capsys):
    spec = json.loads((BENCH / "workloads.json").read_text())
    run = spec["workloads"][workload]
    argv = run["argv"] + ["--seed", str(spec.get(seed, run.get(seed)))]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    reference = (BENCH / "reference" / f"{workload}.csv").read_text()
    assert _check_module().failed_rows(out, reference, run["columns"]) == []
