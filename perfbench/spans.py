"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by the benchmark's own code around calls into the
program's public functions: :func:`install` wraps those functions in
place (the program's sources are not edited).  Each span is a row
``[name, start_s, end_s, parent, run]``; ``parent`` is the index of the
enclosing span on the same thread (``-1`` for a root) and ``run``
groups the spans of one unit of work (one sweep, one service job).
The rows stay in memory until :meth:`Tracer.dump` writes them out.

A layer's *self* time is a span's duration minus the part of its
interval covered by its child spans; see :func:`self_times`.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from typing import Dict, List

#: the run id of spans recorded before :meth:`Tracer.set_run` is called
DEFAULT_RUN = "0"
#: the line a measured process writes to standard error at its ready
#: point; ``-X importtime`` lines after it are not set-up cost
READY_MARK = "perfbench: ready"


def mark_ready() -> None:
    """Write :data:`READY_MARK`; call it before :func:`install`, whose
    imports are the tracer's cost, not the program's."""
    print(READY_MARK, file=sys.stderr, flush=True)


class Tracer:
    """Spans, counters and samples of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------- #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_run(self, run: str) -> None:
        """Tag the calling thread's following spans with ``run``."""
        self._local.run = run

    def begin(self, name: str) -> int:
        stack = self._stack()
        row = [name, time.perf_counter(), None,
               stack[-1] if stack else -1,
               getattr(self._local, "run", DEFAULT_RUN)]
        with self._lock:
            self.spans.append(row)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        stack = self._stack()
        # Tolerate a span abandoned by an exception below it.
        while stack and stack.pop() != idx:
            pass

    def span(self, name: str):
        return _Span(self, name)

    # -- counters and samples ------------------------------------------- #

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    # -- output ---------------------------------------------------------- #

    def snapshot(self) -> Dict:
        """Spans still open are closed at the time of the snapshot."""
        now = time.perf_counter()
        return {"spans": [s if s[2] is not None else s[:2] + [now] + s[3:]
                          for s in self.spans],
                "counters": dict(self.counters),
                "samples": {k: list(v) for k, v in self.samples.items()}}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.idx)


def merge(snapshots: List[Dict]) -> Dict:
    """Concatenate snapshots from several processes (parents re-indexed)."""
    out = {"spans": [], "counters": {}, "samples": {}}
    for snap in snapshots:
        base = len(out["spans"])
        for name, t0, t1, parent, run in snap["spans"]:
            out["spans"].append(
                [name, t0, t1, parent + base if parent >= 0 else -1, run])
        for k, v in snap["counters"].items():
            out["counters"][k] = out["counters"].get(k, 0) + v
        for k, v in snap["samples"].items():
            out["samples"].setdefault(k, []).extend(v)
    return out


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[list]) -> List[float]:
    """Per-span self time: duration minus the union of its children."""
    children: Dict[int, List[tuple]] = {}
    for name, t0, t1, parent, _run in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for i, (_name, t0, t1, _parent, _run) in enumerate(spans):
        kids = [(max(lo, t0), min(hi, t1)) for lo, hi in children.get(i, ())]
        out.append((t1 - t0) - _covered([k for k in kids if k[1] > k[0]]))
    return out


class Summary:
    """Per-name aggregates over a span list.

    ``busy(name)`` sums the durations of the outermost spans of that
    name (a span nested inside another of the same name is not counted
    twice); ``self_s(name)`` sums self times.
    """

    def __init__(self, snap: Dict) -> None:
        self.spans = snap["spans"]
        self.counters = snap["counters"]
        self.samples = snap["samples"]
        self._self = self_times(self.spans)

    def _outermost(self, name: str) -> List[int]:
        out = []
        for i, span in enumerate(self.spans):
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def calls(self, name: str) -> int:
        return len(self._outermost(name))

    def busy(self, name: str) -> float:
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self._outermost(name))

    def durations(self, name: str) -> List[float]:
        return [self.spans[i][2] - self.spans[i][1]
                for i in self._outermost(name)]

    def p50(self, name: str) -> float:
        d = self.durations(name)
        return statistics.median(d) if d else 0.0

    def self_s(self, name: str) -> float:
        return sum(self._self[i] for i, s in enumerate(self.spans)
                   if s[0] == name)

    def _inside(self, i: int, root: str) -> bool:
        p = self.spans[i][3]
        while p >= 0 and self.spans[p][0] != root:
            p = self.spans[p][3]
        return p >= 0

    def unattributed(self, root: str, layers) -> float:
        """1 − the self time of the ``layers`` spans inside ``root`` spans
        ÷ the ``root`` spans' time: the share of a unit that no layer
        accounts for.  The root's own self time, and that of traced calls
        not named in ``layers``, count as unattributed."""
        total = sum(s[2] - s[1] for s in self.spans if s[0] == root)
        attributed = sum(self._self[i] for i, s in enumerate(self.spans)
                         if s[0] in layers and self._inside(i, root))
        return 1 - attributed / total if total > 0 else 0.0


# ---------------------------------------------------------------------- #
# wrapping the program's public calls
# ---------------------------------------------------------------------- #


def _timed(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(out, args)
        return out
    return wrapper


def _wrap_method(tracer, cls, attr, name, after=None):
    setattr(cls, attr, _timed(tracer, name, cls.__dict__[attr], after))


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points named in the benchmark's per-layer
    metrics.  Call once per process, before the work starts."""
    from repro.amr.block import BlockCostTracker
    from repro.amr.sedov import SedovWorkload
    from repro.bench import scalebench, sedov_experiment
    from repro.core.policy import PlacementPolicy
    from repro.engine.core import EpochEngine
    from repro.engine.hooks import EpochHook
    from repro.mesh.mesh import AmrMesh
    from repro.mesh.sharding import ShardedBlockTable
    from repro.service import render
    from repro.simnet.runtime import BSPModel, ExchangePattern
    from repro.telemetry.collector import TelemetryCollector

    # amr: trajectory generation and the cost tracker
    _wrap_method(tracer, SedovWorkload, "full_trajectory", "amr.trajectory",
                 after=lambda out, a: tracer.count("amr.trajectory.epochs",
                                                   len(out)))
    _wrap_method(tracer, BlockCostTracker, "observe_all", "amr.tracker")
    _wrap_method(tracer, BlockCostTracker, "estimates", "amr.tracker")

    # mesh: remesh (with the share of the mesh each delta touched) and the
    # lazy neighbor-graph rebuild
    remesh = AmrMesh.__dict__["remesh"]

    @functools.wraps(remesh)
    def traced_remesh(self, tags):
        n_before = self.n_blocks
        idx = tracer.begin("mesh.remesh")
        try:
            delta = remesh(self, tags)
        finally:
            tracer.end(idx)
        if delta.changed and n_before:
            tracer.sample("mesh.remesh.touched_frac", delta.touched / n_before)
        return delta

    AmrMesh.remesh = traced_remesh

    graph_prop = AmrMesh.__dict__["neighbor_graph"]

    def traced_graph(self):
        if getattr(self, "_graph", None) is not None:
            return graph_prop.fget(self)
        with tracer.span("mesh.neighbor_graph"):
            return graph_prop.fget(self)

    AmrMesh.neighbor_graph = property(traced_graph, doc=graph_prop.__doc__)

    _wrap_method(
        tracer, ShardedBlockTable, "materialize", "mesh.shard.materialize",
        after=lambda out, a: tracer.sample("mesh.shard.peak_bytes",
                                           a[0].peak_shard_bytes))

    # core: every placement computation
    _wrap_method(tracer, PlacementPolicy, "place", "core.place")

    # simnet: BSP steps and exchange-pattern construction
    _wrap_method(tracer, BSPModel, "step", "simnet.step")
    from_mesh = ExchangePattern.__dict__["from_mesh"].__func__
    ExchangePattern.from_mesh = classmethod(
        _timed(tracer, "simnet.pattern", from_mesh))

    # telemetry: collector writes
    _wrap_method(tracer, TelemetryCollector, "record_step", "telemetry.record")
    _wrap_method(tracer, TelemetryCollector, "record_epoch", "telemetry.record")

    # perf: the supervised executor (journal, events) around a job's cells
    for module in (scalebench, sedov_experiment):
        module.supervised_map = _timed(tracer, "perf.supervisor",
                                       module.supervised_map)

    # bench: the report renderers (looked up on the module at call time)
    for fn in ("render_sedov", "render_scalebench"):
        setattr(render, fn, _timed(tracer, "bench.render", getattr(render, fn)))

    # engine: lifecycle phases, timed by a hook at the public points
    class PhaseSpans(EpochHook):
        def __init__(self) -> None:
            self.open = None

        def _switch(self, name):
            if self.open is not None:
                tracer.end(self.open)
            self.open = tracer.begin(name) if name else None

        def on_epoch_start(self, ctx, epoch):
            self._switch("engine.measure")

        def before_redistribute(self, ctx, epoch):
            self._switch("engine.redistribute")

        def after_redistribute(self, ctx, epoch):
            self._switch("engine.steps")

        def on_epoch_end(self, ctx, epoch):
            self._switch(None)
            tracer.count("engine.epochs")

        def on_run_end(self, ctx, summary):
            self._switch(None)

    engine_run = EpochEngine.__dict__["run"]

    @functools.wraps(engine_run)
    def traced_run(self):
        self.hooks.append(PhaseSpans())
        idx = tracer.begin("engine.run")
        try:
            summary = engine_run(self)
        finally:
            tracer.end(idx)
        tracer.count("perf.pattern_cache.hits", summary.pattern_cache_hits)
        tracer.count("perf.pattern_cache.lookups",
                     summary.pattern_cache_hits + summary.pattern_cache_misses)
        return summary

    EpochEngine.run = traced_run


def install_service_job_root(tracer: Tracer) -> None:
    """Make each service job's execution a root span with its own run id."""
    from repro.service.runner import JobRunner

    run = JobRunner.__dict__["run"]
    counter = itertools.count(1)

    @functools.wraps(run)
    def traced(self, spec, on_event=None):
        tracer.set_run(f"job-{next(counter)}")
        with tracer.span("service.job"):
            return run(self, spec, on_event)

    JobRunner.run = traced
