"""a2gcovert benchmark: cold-start CLI workloads, end to end and per layer.

    python3 bench/run.py --workload modemap_track --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --all --seed 1 --trace 1   # every workload in turn
    python3 bench/run.py --record-reference         # rewrite bench/reference/

A workload (``workloads.json``) is a CLI command run through
``a2gcovert.cli.main(argv)``; the workload seed is passed to it as
``--seed`` and nothing else.  Every invocation starts cold, as every CLI
user does: caches such as the Marcum-fit ``lru_cache`` are empty.
BLAS/OpenMP pools are pinned to one thread; the only parallelism is the
oracle's ``--workers``.

Timed runs (``--trace 0``).  A run first times ``SETUP_SAMPLES`` fresh
interpreters that only import the package and load the scenario, after a
discarded one that writes bytecode and warms the file cache.  Then
``child.py --serve`` imports the package once more and forks a child per
invocation of the command, which starts from the state of a fresh
interpreter after the import without paying for the import again.
Invocations repeat while the next is expected to end within ``--seconds``
of the first.  The host's speed varies by up to 1.7 times from moment to
moment, so ``child.Speedometer`` samples it during every invocation and
set-up, and the timed metrics are given at its reference speed:

- ``wall_ref_s``: an invocation's wall time at reference speed, median
  over the invocations;
- ``cpu_ref_s``: the same for user + system CPU time;
- ``peak_rss_mb``: an invocation's ``ru_maxrss``, median over the
  invocations;
- ``setup_s``: import a2gcovert and load the scenario in a fresh
  interpreter, at reference speed, median over the samples.

The measured times are printed next to them and kept in ``bench/out/``.

Traced runs (``--trace 1``) alternate untraced and traced invocations, each
in a fresh interpreter, and report the per-layer metrics of ``spans.py``
and ``trace.overhead_s``, the traced minus the untraced median wall time.

Every output row is checked against ``bench/reference/<workload>.csv``
(rules in ``workloads.json``); a row fails when the command exits non-zero
or a cell leaves its tolerance.  The last line printed is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with rows as the unit of
``attempted`` and ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_SAMPLES = 4  # import-only children, besides the server's own
RUN_LIMIT_S = 170.0  # a run must end within 180 s, set-up included
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
             "NUMEXPR_NUM_THREADS": "1"}

sys.path.insert(0, BENCH)
from check import failed_rows, parse_csv  # noqa: E402


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong output)."""


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _child(argv: list[str] | None, trace: bool, deadline: float,
           spans_out: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "child.py")]
    if argv is not None:
        cmd += ["--argv", json.dumps(argv)]
    if trace:
        cmd += ["--spans-out", spans_out]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              env={**os.environ, **CHILD_ENV}, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child exceeded the run time limit: {cmd}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _provenance(workload: str, seed: int, argv: list[str],
                versions: dict) -> dict:
    samples = argv[argv.index("--samples") + 1] if "--samples" in argv else None
    return {"workload": workload, "seed": seed, "argv": argv,
            "samples": int(samples) if samples else None,
            "versions": versions, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "git_commit": _git_commit()}


def _reference(workload: str) -> str:
    path = os.path.join(BENCH, "reference", f"{workload}.csv")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class _Server:
    """``child.py --serve``: one set-up, then a forked child per invocation.

    The child runs in its own session so that closing the server, or the
    watchdog at the run's deadline, ends it and any invocation in flight.
    """

    def __init__(self, deadline: float):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "child.py"), "--serve"],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env={**os.environ, **CHILD_ENV},
            start_new_session=True)
        self.watchdog = threading.Timer(
            max(0.0, deadline - time.monotonic()), self._kill)
        self.watchdog.start()
        self.hello = self._read()

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("server ended early (failed, or the run time "
                             "limit was reached)")
        return json.loads(line)

    def call(self, argv: list[str]) -> dict:
        try:
            self.proc.stdin.write(json.dumps(argv) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise BenchError("server ended early") from exc
        return self._read()

    def close(self) -> None:
        self.watchdog.cancel()
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self._kill()
        self.proc.wait()
        self.proc.stdout.close()


def _check(res: dict, reference: str, columns: dict) -> tuple[int, int]:
    """(rows, failed rows) of one invocation against its reference."""
    n_ref = len(parse_csv(reference)[1])
    bad = (n_ref if res["exit_code"] != 0 else
           len(failed_rows(res["output"], reference, columns)))
    return n_ref, bad


def _setup_samples(deadline: float) -> list[dict]:
    _child(None, False, deadline)  # warm-up, discarded
    return [_child(None, False, deadline) for _ in range(SETUP_SAMPLES)]


def _timed(workload: str, seed: int, seconds: int, spec: dict,
           deadline: float) -> tuple[dict, dict, list[str], dict]:
    """Invocations of the workload, each forked from one server."""
    argv = spec["argv"] + ["--seed", str(seed)]
    reference = _reference(workload)
    setup = _setup_samples(deadline)
    keys = ("wall_s", "cpu_s", "wall_ref_s", "cpu_ref_s", "peak_rss_mb",
            "probes")
    samples = {k: [] for k in keys}
    rows_total = rows_failed = 0
    server = _Server(deadline)
    try:
        setup.append(server.hello)
        t0 = time.monotonic()
        while True:
            res = server.call(argv)
            n, bad = _check(res, reference, spec["columns"])
            rows_total += n
            rows_failed += bad
            for key in keys:
                samples[key].append(res[key])
            elapsed = time.monotonic() - t0
            n_runs = len(samples["wall_s"])
            if elapsed * (1 + 1 / n_runs) > seconds:
                break
    finally:
        server.close()

    values = {k: statistics.median(v) for k, v in samples.items()}
    measured_setup_s = statistics.median(s["setup_s"] for s in setup)
    values["setup_s"] = statistics.median(s["setup_ref_s"] for s in setup)
    lines = [f"  invocations {n_runs}  setup samples {len(setup)}",
             "  measured (medians; the metrics below are these times at "
             "reference speed)",
             f"  setup_s {measured_setup_s:.6f} s  wall_s {values['wall_s']:.6f}"
             f" s  cpu_s {values['cpu_s']:.6f} s"]
    if n_runs > 1:
        lines.append("  quartiles over the invocations: " + "  ".join(
            "{} {:.6f}..{:.6f} s".format(
                k, *statistics.quantiles(samples[k], n=4)[::2])
            for k in ("wall_ref_s", "cpu_ref_s", "wall_s", "cpu_s")))
    extra = {"versions": server.hello["versions"],
             "samples": {"setup": setup, "invocations": samples},
             "rows_total": rows_total, "rows_failed": rows_failed}
    return values, extra, lines, {"invocations": n_runs}


def _traced(workload: str, seed: int, seconds: int, spec: dict,
            deadline: float) -> tuple[dict, dict, list[str], dict]:
    """Alternate untraced and traced cold runs of the full command."""
    argv = spec["argv"] + ["--seed", str(seed)]
    reference = _reference(workload)
    spans_out = os.path.join(OUT, f"{workload}-seed{seed}-spans.npz")
    plain, traced = [], []
    rows_total = rows_failed = 0
    t0 = time.monotonic()
    while True:
        for is_traced in (False, True):
            res = _child(argv, is_traced, deadline, spans_out)
            (traced if is_traced else plain).append(res)
            n, bad = _check(res, reference, spec["columns"])
            rows_total += n
            rows_failed += bad
        elapsed = time.monotonic() - t0
        if elapsed * (1 + 1 / len(plain)) > seconds:
            break
    layers = _median_reports([r["trace"] for r in traced])
    layers["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain))
    counts = [{k: v for k, v in r["trace"].items()
               if not k.endswith(("_s", ".s", "ms_p50", "ms_p90"))}
              for r in traced]
    lines = [f"  untraced/traced invocations {len(plain)}/{len(traced)}"]
    if any(c != counts[0] for c in counts[1:]):
        lines.append("  WARNING: counts differ between traced invocations")
    extra = {"versions": plain[0]["versions"], "rows_total": rows_total,
             "rows_failed": rows_failed}
    return layers, extra, lines, {"invocations": len(plain) + len(traced)}


def run(workload: str, seed: int, seconds: int, trace: bool,
        bench: dict, spec: dict) -> dict:
    """One run of one workload; returns the result object to print."""
    deadline = time.monotonic() + RUN_LIMIT_S
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    values, extra, body, counts = (_traced if trace else _timed)(
        workload, seed, seconds, spec, deadline)
    prov = _provenance(workload, seed, spec["argv"] + ["--seed", str(seed)],
                       extra["versions"])
    prov.update(counts)
    lines = [f"# provenance {json.dumps(prov)}",
             f"workload {workload}  seed {seed}", *body]
    if trace:
        lines.append("  per-layer (traced; self = span minus its child spans)")
    for m in wanted:
        value = values[m["name"]]
        shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
        lines.append(f"  {m['name']:<36} {shown} {m['unit']}")
    rows_total, rows_failed = extra["rows_total"], extra["rows_failed"]
    lines.append(f"  rows_failed  {rows_failed} of {rows_total}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    record = {"provenance": prov,
              ("per_layer" if trace else "end_to_end"): values,
              "samples": extra.get("samples"),
              "rows_total": rows_total, "rows_failed": rows_failed}
    os.makedirs(OUT, exist_ok=True)
    name = f"{workload}-seed{seed}{'-trace' if trace else ''}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    return {"correct": rows_failed == 0, "attempted": rows_total,
            "failed": rows_failed, "metrics": metrics}


def _median_reports(reports: list[dict]) -> dict:
    """Per-key median; counts stay whole numbers."""
    return {k: (statistics.median_low if isinstance(v, int)
                else statistics.median)([r[k] for r in reports])
            for k, v in reports[0].items()}


def record_reference(workloads: dict, seed: int) -> None:
    """Write each workload's output at ``seed`` as its reference."""
    for name, spec in workloads.items():
        res = _child(spec["argv"] + ["--seed", str(seed)], False,
                     time.monotonic() + RUN_LIMIT_S)
        if res["exit_code"] != 0:
            raise BenchError(f"{name} exited {res['exit_code']}")
        with open(os.path.join(BENCH, "reference", f"{name}.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write(res["output"])
        print(f"{name}: {res['wall_s']:.2f} s, reference written")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "a2gcovert", "__init__.py")):
        print(f"error: no a2gcovert package under {SRC}", file=sys.stderr)
        return 2
    bench = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = _load_json(os.path.join(BENCH, "workloads.json"))
    try:
        if args.record_reference:
            record_reference(workloads["workloads"], workloads["reference_seed"])
            return 0
        names = (list(workloads["workloads"]) if args.all else [args.workload])
        for name in names:
            if name not in workloads["workloads"]:
                parser.error(f"unknown workload {name!r}; choose from "
                             f"{', '.join(workloads['workloads'])}")
            result = run(name, args.seed, args.seconds or bench["run_seconds"],
                         bool(args.trace), bench, workloads["workloads"][name])
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
