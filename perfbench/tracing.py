"""The traced run: spans, self time and benchmark-side timers.

The library already records spans (``repro.obs.trace_spans``) around its
coarse entry points and counters (``repro.obs.collect_metrics``) in its hot
loops.  This module adds, from outside the library:

* :class:`ThreadTracer`, a tracer that keeps one span stack per thread, so
  spans opened by pool and service worker threads do not corrupt each
  other's nesting.  A span's *self time* is its duration minus the time
  its child spans on the same thread cover.
* :class:`Instruments`, timers around public functions that have no span
  of their own: plan compilation on a cache miss, ``Structure.with_tuple``,
  the first view access per structure, and the ``WorkerPool`` entry points.
  They are installed only for the traced rounds and removed afterwards.
"""

from __future__ import annotations

import resource
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro import PlanCache, Structure
from repro.obs import Tracer, span
from repro.parallel import WorkerPool

#: Span names the benchmark itself records.
PARSE = "bench.logic.parse"
COMPILE = "bench.plan.compile"
WITH_TUPLE = "bench.structures.with_tuple"
FIRST_ACCESS = "bench.structures.first_access"
POOL = "bench.parallel.pool"
REPAIR = "bench.core.repair"


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class ThreadTracer(Tracer):
    """A :class:`repro.obs.Tracer` with one span stack per thread.

    Keeps per-name aggregates only: calls, total seconds and self seconds.
    """

    def __init__(self) -> None:
        super().__init__(max_spans=0)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, total_seconds, self_seconds]
        self.totals: Dict[str, List[float]] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [0.0]  # seconds covered by child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            with self._lock:
                entry = self.totals.get(name)
                if entry is None:
                    self.totals[name] = [1, duration, duration - frame[0]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[0]

    def calls(self, prefix: str) -> int:
        return int(sum(e[0] for n, e in self.totals.items() if n.startswith(prefix)))

    def total_s(self, prefix: str) -> float:
        return sum(e[1] for n, e in self.totals.items() if n.startswith(prefix))

    def self_s(self, prefix: str) -> float:
        return sum(e[2] for n, e in self.totals.items() if n.startswith(prefix))


class TimedPlanCache(PlanCache):
    """A :class:`PlanCache` that times each compilation (a cache miss)
    against the active tracer; without one the timer does nothing."""

    def get_or_compile(self, key, compile_fn):
        def timed():
            with span(COMPILE):
                return compile_fn()

        return super().get_or_compile(key, timed)


class Instruments:
    """Benchmark-side timers patched onto public library functions.

    ``new_operation()`` starts a new first-access scope: a view counts as a
    first access the first time an operation reads it from a structure.
    """

    _VIEWS = ("adjacency", "columnar", "index")
    _POOL = ("map", "run_tasks", "map_outcomes")

    def __init__(self, tracer: ThreadTracer) -> None:
        self.tracer = tracer
        self.pool_cpu_s = 0.0
        self.pool_worker_s = 0.0
        self.shards = 0
        self._seen: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list = []

    def new_operation(self) -> None:
        self._seen = set()

    def install(self) -> None:
        self._patch(Structure, "with_tuple", self._timed_with_tuple)
        for name in self._VIEWS:
            self._patch(Structure, name, self._timed_view)
        for name in self._POOL:
            self._patch(WorkerPool, name, self._timed_pool)

    def remove(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []

    def _patch(self, owner, name, make) -> None:
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(name, original))

    def _timed_with_tuple(self, name, original):
        tracer = self.tracer

        def with_tuple(structure, *args, **kwargs):
            with tracer.span(WITH_TUPLE):
                return original(structure, *args, **kwargs)

        return with_tuple

    def _timed_view(self, name, original):
        instruments = self
        tracer = self.tracer

        def view(structure, *args):
            key = (id(structure), name, args)
            local = instruments._local
            if key in instruments._seen or getattr(local, "inside", False):
                return original(structure, *args)
            instruments._seen.add(key)
            local.inside = True
            try:
                with tracer.span(FIRST_ACCESS):
                    return original(structure, *args)
            finally:
                local.inside = False

        return view

    def _timed_pool(self, name, original):
        instruments = self
        tracer = self.tracer

        # run_tasks(tasks, ...) versus map(fn, items) / map_outcomes(fn, items)
        work_position = 0 if name == "run_tasks" else 1

        def entry(pool, *args, **kwargs):
            shards = len(args[work_position])
            cpu = cpu_seconds()
            start = time.perf_counter()
            try:
                with tracer.span(POOL):
                    return original(pool, *args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                with instruments._lock:
                    instruments.shards += shards
                    instruments.pool_worker_s += wall * pool.workers
                    instruments.pool_cpu_s += cpu_seconds() - cpu

        return entry
