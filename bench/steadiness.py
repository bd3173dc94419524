"""Repeat benchmark runs over several seeds and record how steady they are.

    python3 bench/steadiness.py --seeds 1-10 --out bench/baseline.json
    python3 bench/steadiness.py --seeds 1-5 --workload modemap_track

Runs ``run.py --trace 0`` once per (seed, workload), seed by seed so that
slow drift of the machine falls on every workload alike.  For each
end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  ``--out`` merges the result, per workload, into a JSON
file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--workload", action="append",
                        help="repeat for several; default: all")
    parser.add_argument("--out", help="JSON file to merge the result into")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in names}
    rows = {w: [0, 0] for w in names}
    provenance = {}
    for seed in seeds:
        for w in names:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                 w, "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            provenance[w] = next(json.loads(ln[len("# provenance "):])
                                 for ln in lines
                                 if ln.startswith("# provenance "))
            rows[w][0] += result["attempted"]
            rows[w][1] += result["failed"]
            for name, metric in result["metrics"].items():
                values[w][name].append(metric["value"])
            print(f"seed {seed} {w} " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                + f" correct={result['correct']}", flush=True)

    record = {}
    for w in names:
        record[w] = {"seeds": seeds, "rows_total": rows[w][0],
                     "rows_failed": rows[w][1],
                     "provenance_of_last_run": provenance[w], "metrics": {}}
        for m in bench["end_to_end"]:
            vals = values[w][m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            record[w]["metrics"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"], "values": vals}
            print(f"{w:<14} {m['name']:<12} median {med:10.4f} {m['unit']:<3}"
                  f" q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.3f}"
                  f" (bound {m['bound']}, bound/3 {m['bound'] / 3:.3f})")
    if args.out:
        merged = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                merged = json.load(fh)
        merged.update(record)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
