"""Command-line interface: sweeps, optimization, mode maps and validation.

Output is CSV with ``#``-prefixed metadata lines (scenario hash, seed, unit
interpretations) followed by one header row; ``--json`` emits the same rows
as a JSON document.  All numbers are serialized with 10 significant digits,
and outputs are byte-stable for fixed (scenario, seed) regardless of the
worker count.  ``sweep --mc`` draws each link once per group of points
with equal state tables (``_mc_cells``).
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  argparse's gettext loads it at the first parse
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .channel import NoiseModel, link_states
from .detection import expected_min_dep
from .errors import A2GError, ScenarioError
from .oracle import derived_seed, mc_dep_points, mc_receiver_points
from .planner import maximize_csc, maximize_ecr, select_mode
from .scenario import (
    NodePosition,
    Scenario,
    _finite,
    db_to_linear,
    dbm_to_mw,
    scenario_from_flat,
    scenario_hash,
    scenario_to_flat,
)
from .throughput import csc, ecr, outage, snr_threshold
from .validation import run_validation

__all__ = ["main", "build_parser"]

_AXES = ("rho", "p_a", "x_a", "r_b", "epsilon", "p_max")
_ANALYTIC_METRICS = ("dep", "outage", "ecr", "csc")
_OPT_METRICS = ("ecr_opt", "csc_opt")
_ALL_METRICS = _ANALYTIC_METRICS + _OPT_METRICS

_UNIT_NOTES = (
    "units: fading-anchor readings interpreted as dB ratios; "
    "target rate r_b is absolute bits/s; dBm converted to mW at load"
)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    return "%.10g" % float(x)


def _json_cell(x):
    """A row cell for ``--json``: floats rounded to 10 significant digits."""
    if isinstance(x, (float, np.floating)):
        return float(_fmt(x))
    return x


def _apply_axis(scn: Scenario, axis: str, value: float) -> Scenario:
    if axis == "rho":
        return replace(scn, noise=NoiseModel(sigma_n2=scn.noise.sigma_n2,
                                             rho=db_to_linear(value)))
    if axis == "p_a":
        return replace(scn, p_a=dbm_to_mw(value))
    if axis == "x_a":
        return replace(scn, alice=NodePosition(value, scn.alice.y, scn.alice.h))
    if axis == "r_b":
        return replace(scn, r_b=value)
    if axis == "epsilon":
        return replace(scn, epsilon=value)
    if axis == "p_max":
        return replace(scn, p_max=dbm_to_mw(value))
    raise A2GError(f"unknown sweep axis {axis!r}")


# Stable ids that place each (mode, metric) column of a group of sweep
# points in the seed entropy, keyed by the group's first row; never
# renumber them, or MC outputs change.
_MODE_IDS = {"om": 0, "dm": 1}
_MC_METRIC_IDS = {"dep": 0, "outage": 1, "csc": 2}


def _analytic_metric(scn: Scenario, mode: str, metric: str) -> float:
    if metric == "dep":
        return expected_min_dep(scn, mode).value
    if metric == "outage":
        return float(outage(scn, mode))
    if metric == "ecr":
        return float(ecr(scn, mode))
    if metric == "csc":
        return float(csc(scn, mode))
    if metric == "ecr_opt":
        return maximize_ecr(scn, mode).objective
    if metric == "csc_opt":
        return maximize_csc(scn, mode).objective
    raise A2GError(f"unknown metric {metric!r}")


def _mc_cells(points: list[Scenario], modes: list[str], metrics: list[str],
              n: int, seed: int, workers: int) -> dict[tuple[int, str], dict]:
    """Monte Carlo estimates of the sweep's dep, outage and csc columns,
    keyed by (row index, mode) and then by metric.

    The points of a mode whose Willie and Bob state tables are equal form
    a group; as the tables carry the noise power and band, a group's
    points share them.  Each link is drawn once per group: one
    ``mc_dep_points`` call and one ``mc_receiver_points`` call, seeded as
    the group's first row.  Outage and csc come from one draw set of the
    receiver link, seeded as the outage column when both are asked for.
    """
    rx = [m for m in ("outage", "csc") if m in metrics]
    cells: dict[tuple[int, str], dict] = {}
    for mode in modes:
        groups: dict[tuple, list[int]] = {}
        for i, point in enumerate(points):
            key = (link_states(point, mode, "willie"),
                   link_states(point, mode, "bob"))
            groups.setdefault(key, []).append(i)
        for (willie, bob), group in groups.items():
            members = [points[i] for i in group]
            seeds = {m: derived_seed(seed, group[0], _MODE_IDS[mode], k)
                     for m, k in _MC_METRIC_IDS.items()}
            if "dep" in metrics:
                ests = mc_dep_points(
                    willie, [(pt.p_a, pt.noise.rho) for pt in members], n,
                    seeds["dep"], workers)
                for i, est in zip(group, ests):
                    cells.setdefault((i, mode), {})["dep"] = est
            if rx:
                ops = [(pt.p_a, pt.noise.rho,
                        (float(snr_threshold(pt.r_b, bob.bandwidth_hz)),)
                        if "outage" in rx else ()) for pt in members]
                ests = mc_receiver_points(bob, ops, n, seeds[rx[0]], workers,
                                          capacity="csc" in rx)
                for i, est in zip(group, ests):
                    cell = cells.setdefault((i, mode), {})
                    if est.outage:
                        cell["outage"] = est.outage[0]
                    if est.capacity is not None:
                        cell["csc"] = est.capacity
    return cells


def _emit(rows: list[dict], header: list[str], meta: list[str], args) -> None:
    out = sys.stdout if not args.out else open(args.out, "w", encoding="utf-8")
    try:
        if args.json:
            doc = {"metadata": meta,
                   "rows": [{k: _json_cell(v) for k, v in row.items()}
                            for row in rows]}
            out.write(json.dumps(doc, indent=2, default=_fmt) + "\n")
        else:
            for line in meta:
                out.write(f"# {line}\n")
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(_fmt(row.get(col)) for col in header) + "\n")
    finally:
        if args.out:
            out.close()


def _meta_lines(flat, seed: int, extra: list[str]) -> list[str]:
    return [f"a2gcovert {__version__}",
            f"scenario_hash={scenario_hash(flat)}",
            f"seed={seed}",
            _UNIT_NOTES] + extra


def _axis_values(args, axis: str) -> np.ndarray:
    """The axis points, each finite, in linear units too on a dB axis: a
    span that overflows gives inf or nan points."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(args.start, args.stop, args.points)
    if not all(_finite(float(v), axis in ("rho", "p_a", "p_max"))
               for v in values):
        raise A2GError(f"--start {args.start} to --stop {args.stop} does not "
                       f"give a finite {axis} at every point")
    return values


def _load_scenario(args) -> tuple[Scenario, dict]:
    text = ""
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{args.config}: not UTF-8: {exc}") from None
    flat = scenario_to_flat(text)
    scn = scenario_from_flat(flat)
    if args.seed is not None:
        scn = replace(scn, seed=int(args.seed))
    return scn, flat


def _cmd_sweep(args) -> int:
    scn, flat = _load_scenario(args)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    for m in metrics:
        if m not in _ALL_METRICS:
            raise A2GError(f"unknown metric {m!r}; choose from {_ALL_METRICS}")
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    for m in modes:
        if m not in ("om", "dm", "hybrid"):
            raise A2GError(f"unknown mode {m!r}")
    for what, names in (("metric", metrics), ("mode", modes)):
        if not names:
            raise A2GError(f"a sweep needs at least one {what}")
    if args.points < 2:
        raise A2GError("a sweep needs at least two points")
    values = _axis_values(args, args.axis)
    header = ["axis_value", "mode"] + metrics
    if args.mc:
        for m in metrics:
            if m in ("dep", "outage", "csc"):
                header += [f"mc_{m}", f"mc_{m}_stderr"]
    points = []
    for v in values:
        point = _apply_axis(scn, args.axis, float(v))
        if args.axis == "x_a":
            point.check_safe_distance(point.alice,
                                      allow_unsafe=args.allow_unsafe)
        points.append(point)
    mc = (_mc_cells(points, [m for m in ("om", "dm") if m in modes], metrics,
                    args.samples, scn.seed, args.workers) if args.mc else {})
    rows: list[dict] = []
    for i, (v, point) in enumerate(zip(values, points)):
        per_mode: dict[str, dict] = {}
        for mode in ("om", "dm"):
            if mode not in modes and "hybrid" not in modes:
                continue
            row = {"axis_value": float(v), "mode": mode}
            cells = mc.get((i, mode), {})
            for metric in metrics:
                row[metric] = _analytic_metric(point, mode, metric)
                if metric in cells:
                    row[f"mc_{metric}"] = cells[metric].mean
                    row[f"mc_{metric}_stderr"] = cells[metric].std_error
            per_mode[mode] = row
        for mode in modes:
            if mode == "hybrid":
                row = {"axis_value": float(v), "mode": "hybrid"}
                for metric in metrics:
                    row[metric] = max(per_mode["om"][metric],
                                      per_mode["dm"][metric])
                rows.append(row)
            else:
                rows.append(per_mode[mode])
    meta = _meta_lines(flat, scn.seed, [
        f"command=sweep axis={args.axis} start={_fmt(args.start)} "
        f"stop={_fmt(args.stop)} points={args.points} "
        f"metrics={','.join(metrics)} modes={','.join(modes)} "
        f"mc={'on' if args.mc else 'off'} samples={args.samples}"])
    _emit(rows, header, meta, args)
    return 0


def _cmd_optimize(args) -> int:
    scn, flat = _load_scenario(args)
    modes = ("om", "dm") if args.mode == "both" else (args.mode,)
    header = ["mode", "metric", "p_a_opt_mw", "r_b_opt", "objective",
              "binding", "feasible"]
    rows = []
    for mode in modes:
        res = (maximize_ecr(scn, mode) if args.metric == "ecr"
               else maximize_csc(scn, mode))
        rows.append({"mode": mode, "metric": args.metric,
                     "p_a_opt_mw": res.p_a_opt, "r_b_opt": res.r_b_opt,
                     "objective": res.objective, "binding": res.binding,
                     "feasible": res.feasible})
    meta = _meta_lines(flat, scn.seed,
                       [f"command=optimize metric={args.metric} "
                        f"mode={args.mode}"])
    _emit(rows, header, meta, args)
    return 0


def _cmd_mode_map(args) -> int:
    scn, flat = _load_scenario(args)
    if args.points < 2:
        raise A2GError("a mode map needs at least two points")
    values = _axis_values(args, "x_a")
    header = ["axis_value", "metric", "indicator", "objective_om",
              "objective_dm", "objective_hybrid"]
    rows = []
    for v in values:
        point = _apply_axis(scn, "x_a", float(v))
        point.check_safe_distance(point.alice, allow_unsafe=args.allow_unsafe)
        dec = select_mode(point, args.metric)
        rows.append({"axis_value": float(v), "metric": args.metric,
                     "indicator": dec.indicator,
                     "objective_om": dec.objective_om,
                     "objective_dm": dec.objective_dm,
                     "objective_hybrid": dec.objective})
    meta = _meta_lines(flat, scn.seed, [
        f"command=mode-map metric={args.metric} start={_fmt(args.start)} "
        f"stop={_fmt(args.stop)} points={args.points}"])
    _emit(rows, header, meta, args)
    return 0


def _cmd_validate(args) -> int:
    scn, flat = _load_scenario(args)
    if args.samples < 10**4:
        raise A2GError("validation needs at least 10^4 samples per cell")
    reports = run_validation(scn, n=args.samples, workers=args.workers)
    header = ["metric", "mode", "x_a", "p_a_dbm", "rho_db", "r_b",
              "analytic", "mc_mean", "mc_std_error", "tolerance", "gap",
              "passed"]
    rows = [{"metric": r.metric, "mode": r.mode, "x_a": r.x_a,
             "p_a_dbm": r.p_a_dbm, "rho_db": r.rho_db, "r_b": r.r_b,
             "analytic": r.analytic, "mc_mean": r.mc_mean,
             "mc_std_error": r.mc_std_error, "tolerance": r.tolerance,
             # |analytic - mc_mean| has no more correct digits than this,
             # and more would change the output on a 1e-16 change
             "gap": float(f"{r.gap:.4g}"), "passed": r.passed}
            for r in reports]
    n_fail = sum(1 for r in reports if not r.passed)
    meta = _meta_lines(flat, scn.seed, [
        f"command=validate samples={args.samples}",
        f"cells={len(reports)} failures={n_fail}"])
    _emit(rows, header, meta, args)
    return 0 if n_fail == 0 else 1


def _cmd_defaults(args) -> int:
    flat = scenario_to_flat("")
    header = ["key", "value"]
    rows = [{"key": k, "value": flat[k]} for k in sorted(flat)]
    meta = _meta_lines(flat, int(flat["seed"]), ["command=defaults"])
    _emit(rows, header, meta, args)
    return 0


def _add_common(p: argparse.ArgumentParser, scenario: bool = True,
                unsafe: bool = False, workers: bool = False):
    """Add the output options and, where the command reads them, the
    scenario, safe-band and worker options."""
    if scenario:
        p.add_argument("--config", help="scenario file (flat key = value text)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--json", action="store_true",
                   help="emit JSON instead of CSV")
    if unsafe:
        p.add_argument("--allow-unsafe", action="store_true",
                       help="permit UAV positions outside the safe-distance band")
    if workers:
        p.add_argument("--workers", type=int, default=1,
                       help="worker threads for Monte Carlo batches")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a2gcovert",
        description="Covert air-to-ground link performance: closed forms, "
                    "optimization and Monte Carlo validation.")
    parser.add_argument("--version", action="version",
                        version=f"a2gcovert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="sweep one parameter and tabulate metrics")
    p.add_argument("--axis", required=True, choices=_AXES)
    p.add_argument("--start", type=float, required=True,
                   help="axis start (dB for rho, dBm for p_a/p_max, m for x_a)")
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--metrics", default="dep",
                   help=f"comma list from {','.join(_ALL_METRICS)}")
    p.add_argument("--modes", default="om,dm",
                   help="comma list from om,dm,hybrid")
    p.add_argument("--mc", action="store_true",
                   help="append Monte Carlo columns for dep/outage/csc")
    p.add_argument("--samples", type=int, default=10**5,
                   help="Monte Carlo draws per cell")
    _add_common(p, unsafe=True, workers=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", help="solve one constrained maximization")
    p.add_argument("--metric", required=True, choices=("ecr", "csc"))
    p.add_argument("--mode", default="both", choices=("om", "dm", "both"))
    _add_common(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("mode-map",
                       help="sweep UAV x-position and report the chosen mode")
    p.add_argument("--metric", required=True, choices=("ecr", "csc"))
    p.add_argument("--start", type=float, default=-200.0)
    p.add_argument("--stop", type=float, default=2200.0)
    p.add_argument("--points", type=int, default=50)
    _add_common(p, unsafe=True)
    p.set_defaults(func=_cmd_mode_map)

    p = sub.add_parser("validate",
                       help="run the analytic-vs-Monte-Carlo grid")
    p.add_argument("--samples", type=int, default=10**5,
                   help="Monte Carlo draws per cell (min 10^4)")
    _add_common(p, workers=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("defaults", help="print the default scenario keys")
    _add_common(p, scenario=False)
    p.set_defaults(func=_cmd_defaults)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (A2GError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
