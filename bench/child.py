"""Workload invocations in a fresh interpreter.

Run by ``run.py``.  It imports a2gcovert from the checkout's ``src/`` and
loads the default scenario (that is ``setup_s``, measured and at reference
speed), then, in one of three
modes:

- without ``--argv`` or ``--serve`` it stops there, giving one ``setup_s``
  sample;
- with ``--argv`` it runs ``a2gcovert.cli.main(argv)`` once in this process;
- with ``--serve`` it reads one JSON argv list per line from stdin and runs
  each in a child forked from this process after the set-up, so every
  invocation starts from the same state as a fresh interpreter after the
  import (caches cold) without paying the import again.

Each invocation prints one JSON line: the wall and CPU time and peak RSS of
the process that ran it, the same times at reference speed (see
``Speedometer``; not for traced invocations), the exit code, the CSV the
command wrote and, when traced, the per-layer report.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

PROBE_N = 10_000  # iterations of the probe loop
# The reference speed is the one at which the probe takes PROBE_REF_S, near
# its fastest on the 2-vCPU Intel Xeon VM the benchmark was tuned on.
PROBE_REF_S = 0.0012
PROBE_EVERY_S = 0.05  # wall time between probes


class Speedometer:
    """Samples the speed the machine gives this process while it works.

    On a shared host the same code runs up to 1.7 times slower, for
    stretches of a fraction of a second to minutes, as neighbours come and
    go; the CPU time of the process grows alike, so the host does not
    account for it.  Every ``PROBE_EVERY_S`` of wall time a ``SIGALRM``
    handler times a fixed pure-Python loop (the probe) in the main thread
    by that thread's CPU time, which leaves out time the thread waited for
    the program's own worker threads but not the host's slowdown.  The mean
    of ``PROBE_REF_S / probe time`` over the samples is the average speed
    relative to the reference, and ``reference_s`` turns a measured time
    into the time the same work takes at the reference speed, with the
    probes' own time taken out.  The probe uses no a2gcovert code, so the
    program under test cannot move it.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _probe(self, *_):
        t0 = time.thread_time()
        acc = 0.0
        for i in range(PROBE_N):
            acc += math.sqrt(i + 0.5)
        self.samples.append(time.thread_time() - t0)

    def start(self) -> "Speedometer":
        self.samples = []
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()  # at least one sample, however short the work

    def reference_s(self, measured_s: float) -> float:
        """``measured_s`` of work (probes included) at reference speed."""
        speed = sum(PROBE_REF_S / c for c in self.samples) / len(self.samples)
        return max(0.0, measured_s - sum(self.samples[:-1])) * speed


SETUP_METER = Speedometer().start()


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _invoke(a2gcovert, argv: list, bench: str, spans_out=None) -> dict:
    """Run ``a2gcovert.cli.main(argv)`` here, stdout captured."""
    tracer = None
    if spans_out:
        sys.path.insert(0, bench)
        import spans
        tracer = spans.install(a2gcovert)
    meter = None if tracer else Speedometer().start()
    out = io.StringIO()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            rc = a2gcovert.cli.main(argv)
        except Exception:  # a crash is reported as a failed invocation
            traceback.print_exc()
            rc = 1
    result = {"wall_s": time.perf_counter() - t0, "cpu_s": _cpu_s() - cpu0,
              "exit_code": rc, "output": out.getvalue()}
    if meter is not None:
        meter.stop()
        result["wall_ref_s"] = meter.reference_s(result["wall_s"])
        result["cpu_ref_s"] = meter.reference_s(result["cpu_s"])
        result["probes"] = len(meter.samples)
    if tracer is not None:
        result["trace"] = tracer.report()
        tracer.save(spans_out)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


def _forked(a2gcovert, argv: list, bench: str) -> dict:
    """``_invoke`` in a forked child; the result comes back over a pipe."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            data = json.dumps(_invoke(a2gcovert, argv, bench)).encode()
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"forked invocation failed (status {status})")
    return json.loads(data)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--argv", help="CLI arguments as a JSON list")
    parser.add_argument("--spans-out",
                        help="trace the invocation and write its spans here")
    parser.add_argument("--serve", action="store_true",
                        help="run one forked invocation per stdin line")
    args = parser.parse_args()

    bench = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(bench), "src")
    sys.path.insert(0, src)
    import a2gcovert
    if not os.path.abspath(a2gcovert.__file__).startswith(src + os.sep):
        print(f"a2gcovert imported from {a2gcovert.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import a2gcovert.cli
    from a2gcovert.scenario import loads_scenario
    loads_scenario("")
    setup_s = time.perf_counter() - T_START
    SETUP_METER.stop()
    setup = {"setup_s": setup_s,
             "setup_ref_s": SETUP_METER.reference_s(setup_s)}

    import numpy
    import scipy
    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, "a2gcovert": a2gcovert.__version__}

    if args.serve:
        sys.stdout.write(json.dumps({**setup, "versions": versions}) + "\n")
        sys.stdout.flush()
        for line in sys.stdin:
            result = _forked(a2gcovert, json.loads(line), bench)
            sys.stdout.write(json.dumps(result) + "\n")
            sys.stdout.flush()
        return 0

    result = dict(setup)
    if args.argv is not None:
        result.update(_invoke(a2gcovert, json.loads(args.argv), bench,
                              args.spans_out))
    else:
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["versions"] = versions
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
