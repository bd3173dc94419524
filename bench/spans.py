"""Per-layer spans and counts, recorded from outside the a2gcovert package.

``install`` replaces every public function of the package's modules, in
every module namespace that holds it, by a wrapper that records one span:
name, start, end, parent span and thread id.  Wrapping the name in the
namespace the caller looks it up in (``detection.rician_power_pdf`` as well
as ``channel.rician_power_pdf``) is what makes calls between modules
visible; the package itself is not edited.

The parent stack is kept per thread.  Monte Carlo batches that the oracle
hands to worker threads are adopted by the ``oracle._run_batches`` span that
submitted them, so a parent's children may overlap in time; a span's self
time is its duration minus the union of its children's intervals.

``scipy.integrate.quad`` is counted per calling module (calls, and integrand
evaluations as quad reports them) through a proxy put in place of that
module's ``integrate``.

Spans are kept in memory, in per-thread arrays, and summarised by
``Tracer.report`` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time
from array import array

LAYERS = ("specfun", "geometry", "channel", "scenario", "detection",
          "throughput", "planner", "oracle", "validation", "cli")

# Modules whose ``integrate.quad`` calls are counted.
QUAD_LAYERS = ("specfun", "detection", "throughput")

# Span groups reported on their own; each maps to the functions it covers.
# A group's calls, latencies and inclusive time (``.s``) count each call
# once, at its outermost span in the group; its self time sums every member.
GROUPS = {
    "specfun.marcum_mu_nu": ("specfun.marcum_mu_nu",),
    "specfun.marcum_q1_exact": ("specfun.marcum_q1_exact",),
    "specfun.dilog_li2": ("specfun.dilog_li2",),
    "channel.pdf": ("channel.rician_power_pdf", "channel.nakagami_power_pdf"),
    "channel.sample": ("channel.sample_rician_power",
                       "channel.sample_nakagami_power",
                       "channel.sample_noise_power"),
    "scenario.loads_scenario": ("scenario.loads_scenario",),
    "detection.expected_min_dep": ("detection.expected_min_dep",
                                   "detection.expected_min_dep_om",
                                   "detection.expected_min_dep_dm"),
    "throughput.outage": ("throughput.outage", "throughput.outage_om",
                          "throughput.outage_dm"),
    "throughput.csc": ("throughput.csc", "throughput.csc_om",
                       "throughput.csc_dm"),
    "planner.solve": ("planner.maximize_ecr", "planner.maximize_csc"),
    "planner.select_mode": ("planner.select_mode",),
    "oracle.mc": ("oracle.mc_expected_min_dep", "oracle.mc_outage",
                  "oracle.mc_ergodic_capacity", "oracle._run_batches",
                  "oracle.batch"),
    "validation.run_validation": ("validation.run_validation",),
    "cli.main": ("cli.main",),
}

# Private functions wrapped because they are layer boundaries.
_PRIVATE_BOUNDARIES = {"oracle": ("_run_batches",)}


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[int] = []
        self.adopted = -1
        self.buffer = None


class Tracer:
    """Records spans and counts for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._state = _ThreadState()
        self._lock = threading.Lock()
        self._buffers: list[tuple[array, ...]] = []
        self.counts: dict[str, int] = {}
        self._fit_cache_info = None

    # -- recording -------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _thread_state(self) -> _ThreadState:
        st = self._state
        if st.buffer is None:
            # span id, name id, start, end, parent id, thread id
            st.buffer = (array("q"), array("i"), array("d"), array("d"),
                         array("q"), array("q"))
            with self._lock:
                self._buffers.append(st.buffer)
        return st

    def wrap(self, fn, name: str, after=None):
        """Return ``fn`` recording a span called ``name`` around each call.

        ``after(result)`` runs once the span has closed, for counts taken
        from the result.
        """
        nid = self._name_id(name)
        ids = self._ids
        thread_state = self._thread_state
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = thread_state()
            stack = st.stack
            parent = stack[-1] if stack else st.adopted
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf = st.buffer
                buf[0].append(sid)
                buf[1].append(nid)
                buf[2].append(t0)
                buf[3].append(t1)
                buf[4].append(parent)
                buf[5].append(threading.get_ident())
            if after is not None:
                after(result)
            return result

        return traced

    def current_span(self) -> int:
        st = self._thread_state()
        return st.stack[-1] if st.stack else st.adopted

    def adopt(self, fn, parent: int):
        """Run ``fn`` with ``parent`` as the parent of spans opened on a
        thread whose own stack is empty (a worker thread)."""
        state = self._thread_state

        @functools.wraps(fn)
        def adopted(*args, **kwargs):
            st = state()
            prev, st.adopted = st.adopted, (st.adopted if st.stack else parent)
            try:
                return fn(*args, **kwargs)
            finally:
                st.adopted = prev

        return adopted

    # -- summary ---------------------------------------------------------

    def spans(self):
        """All closed spans as numpy arrays indexed by span id."""
        import numpy as np

        with self._lock:
            cols = [np.concatenate([np.frombuffer(b[i], dtype=b[i].typecode)
                                    for b in self._buffers])
                    if self._buffers else np.zeros(0)
                    for i in range(6)]
        order = np.argsort(cols[0], kind="stable")
        sid, nid, start, end, parent, tid = (c[order] for c in cols)
        return nid.astype(int), start, end, parent.astype(int), tid

    def save(self, path: str) -> None:
        """Write every span, by id, to an ``.npz`` file."""
        import numpy as np

        nid, start, end, parent, tid = self.spans()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=nid, start=start,
                 end=end, parent=parent, thread=tid)

    def report(self) -> dict:
        """Per-group and per-layer counts, self times and call latencies."""
        import numpy as np

        nid, start, end, parent, tid = self.spans()
        n = len(nid)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=n)
        # a parent whose children ran on other threads: use their union
        cross = has_parent & (tid != tid[np.maximum(parent, 0)])
        for p in np.unique(parent[cross]):
            kids = np.flatnonzero(parent == p)
            covered[p] = _union_length(start[kids], end[kids])
        self_s = dur - covered

        def select(names):
            ids = [i for i, name in enumerate(self.names) if name in names]
            return np.isin(nid, ids)

        out: dict[str, float] = {}
        for layer in LAYERS:
            mask = select({s for s in self.names
                           if s.split(".", 1)[0] == layer})
            out[f"{layer}.self_s"] = float(self_s[mask].sum())
        outer = {}
        for group, members in GROUPS.items():
            mask = select(members)
            # a call is counted once, at its outermost span in the group
            outer[group] = mask & ~(has_parent & mask[np.maximum(parent, 0)])
            ms = np.sort(dur[outer[group]]) * 1e3
            out[f"{group}.calls"] = int(outer[group].sum())
            out[f"{group}.self_s"] = float(self_s[mask].sum())
            out[f"{group}.s"] = float(dur[outer[group]].sum())
            out[f"{group}.ms_p50"] = _percentile(ms, 50)
            out[f"{group}.ms_p90"] = _percentile(ms, 90)

        solves = np.flatnonzero(outer["planner.solve"])
        deps = np.flatnonzero(outer["detection.expected_min_dep"])
        out["planner.dep_evals_per_solve"] = (
            _count_descendants(parent, solves, deps) / len(solves)
            if len(solves) else 0.0)
        draws = self.counts.get("oracle.mc.draws", 0)
        out["oracle.mc.draws"] = draws
        out["oracle.draws_per_s"] = (draws / out["oracle.mc.s"]
                                     if draws else 0.0)
        out["oracle.batches"] = int(select({"oracle.batch"}).sum())
        out["channel.sample.draws"] = self.counts.get("channel.sample.draws", 0)
        for layer in QUAD_LAYERS:
            for what in ("calls", "evals"):
                key = f"{layer}.quad.{what}"
                out[key] = self.counts.get(key, 0)
        out["specfun.marcum_fit.misses"] = self._fit_cache_info().misses
        out["trace.spans"] = n
        return out


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if len(sorted_values) == 0:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return float(sorted_values[int(rank) - 1])


def _union_length(starts, ends) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(zip(starts, ends)):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _count_descendants(parent, roots, candidates) -> int:
    """How many ``candidates`` have one of ``roots`` among their ancestors."""
    roots = set(int(r) for r in roots)
    hits = 0
    for c in candidates:
        p = int(parent[c])
        while p >= 0 and p not in roots:
            p = int(parent[p])
        hits += p >= 0
    return hits


class _QuadCounter:
    """Stands in for ``scipy.integrate`` in one module, counting ``quad``."""

    def __init__(self, tracer: Tracer, layer: str, integrate):
        self._tracer = tracer
        self._layer = layer
        self._integrate = integrate

    def __getattr__(self, name):
        return getattr(self._integrate, name)

    def quad(self, func, *args, **kwargs):
        full = kwargs.pop("full_output", 0)
        val, err, info, *rest = self._integrate.quad(func, *args,
                                                     full_output=1, **kwargs)
        self._tracer.count(f"{self._layer}.quad.calls")
        self._tracer.count(f"{self._layer}.quad.evals", int(info["neval"]))
        return (val, err, info, *rest) if full else (val, err)


def install(package) -> Tracer:
    """Wrap the public functions of every module of ``package``."""
    import importlib

    tracer = Tracer()
    modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                           for m in LAYERS]
    prefix = package.__name__ + "."

    def draws(result):
        tracer.count("channel.sample.draws", int(getattr(result, "size", 1)))

    def mc_draws(result):
        tracer.count("oracle.mc.draws", int(result.n_samples))

    after = {**dict.fromkeys(GROUPS["channel.sample"], draws),
             **{n: mc_draws for n in GROUPS["oracle.mc"] if ".mc_" in n}}

    wrapped: dict[object, object] = {}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if not (inspect.isfunction(obj)
                    and obj.__module__.startswith(prefix)):
                continue
            layer = obj.__module__[len(prefix):]
            if attr.startswith("_") and attr not in _PRIVATE_BOUNDARIES.get(
                    layer, ()):
                continue
            if obj not in wrapped:
                name = f"{layer}.{obj.__name__}"
                fn = obj
                if name == "oracle._run_batches":
                    fn = _batch_spans(tracer, obj)
                wrapped[obj] = tracer.wrap(fn, name, after.get(name))
            setattr(mod, attr, wrapped[obj])

    for layer in QUAD_LAYERS:
        mod = importlib.import_module(prefix + layer)
        mod.integrate = _QuadCounter(tracer, layer, mod.integrate)
    tracer._fit_cache_info = importlib.import_module(
        prefix + "specfun")._fitted_mu_nu.cache_info
    return tracer


def _batch_spans(tracer: Tracer, run_batches):
    """``_run_batches`` with each batch recorded as an ``oracle.batch`` span
    whose parent is the submitting span, on whichever thread it runs."""

    @functools.wraps(run_batches)
    def hooked(sample_batch, *args, **kwargs):
        batch = tracer.wrap(sample_batch, "oracle.batch")
        return run_batches(tracer.adopt(batch, tracer.current_span()),
                           *args, **kwargs)

    return hooked
