"""The harness's own span recorder and the proxies it hangs on public seams.

Everything here measures the program **from outside**: a span is opened
around a call the harness (or a proxy it handed to a driver) makes into a
layer's public function.  Nothing inside ``src/`` knows it is being traced;
spans inside the program are a later issue.

A span is ``(id, name, start, end, parent, job)``.  Spans nest per thread;
a thread with no open span (the server's worker thread) parents its spans
on the current job's root, so there is one tree per job.  The workloads are
a closed loop with one client, hence one job at a time and ``job``/``root``
can be plain attributes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from repro.core.metrics import get_metric
from repro.service.cache import JobCache
from repro.service.server import CalibrationServer


class Recorder:
    """In-memory spans plus the counts read at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self.counters: Counter[str] = Counter()
        self.job = ""
        self.root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function):
        """``function`` with a span named ``name`` around every call."""

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else self.root
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.job))

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.job))

    @contextlib.contextmanager
    def job_root(self, job: str):
        """The root span of one job; every span until exit belongs to it."""
        self.job, self.root = job, 0
        with self.span("job") as span_id:
            self.root = span_id
            try:
                yield
            finally:
                self.root = 0

    # -- reading -------------------------------------------------------- #
    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed duration, summed self time, span count.

        Self time is a span's duration minus its direct children's; the
        children of one span run in one thread, so they never overlap.
        """
        children: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            children[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for span_id, name, start, end, _, _ in self.spans:
            total[name] += end - start
            self_time[name] += (end - start) - children.get(span_id, 0.0)
            count[name] += 1
        return total, self_time, count

    def by_job(self, name: str) -> dict[str, float]:
        """Summed duration of the spans called ``name``, per job."""
        out: dict[str, float] = defaultdict(float)
        for _, span_name, start, end, _, job in self.spans:
            if span_name == name:
                out[job] += end - start
        return out

    def write_jsonl(self, path: Path, workload: str) -> None:
        with path.open("a") as handle:
            for span_id, name, start, end, parent, job in self.spans:
                handle.write(json.dumps({
                    "workload": workload, "job": job, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


# --------------------------------------------------------------------- #
# proxies
# --------------------------------------------------------------------- #
def trace_algorithm(algorithm, recorder: Recorder):
    """Time ``ask``/``tell`` of the instance handed to a driver.

    The drivers (and ``serial_drive``) call both through the instance, so
    shadowing the bound methods on it sees every call.
    """
    algorithm.ask = recorder.wrap(f"core.algorithms.ask.{algorithm.name}", algorithm.ask)
    algorithm.tell = recorder.wrap(f"core.algorithms.tell.{algorithm.name}", algorithm.tell)
    return algorithm


def sim_error(objective, trace) -> float:
    """The accuracy value of one simulated trace (metrics, then error)."""
    metrics = trace.metrics(nodes=objective.scenario.node_names, icds=objective.icd_values)
    return get_metric(objective.metric_name)(objective.reference_metrics, metrics)


SIM_COUNTERS = (
    "events", "sharing_updates", "wall_time",
    "phase_sharing_seconds", "phase_advance_seconds", "phase_timers_seconds",
)


def trace_sim_objective(objective, recorder: Recorder):
    """A case-study objective run through its public halves —
    ``hepsim.simulate`` (:meth:`CaseStudyObjective.simulate`) and
    ``hepsim.metrics`` spans — folding ``ExecutionTrace.stats`` into the
    recorder's counters.  The harness requires the traced repetition's
    trajectories to equal the untraced ones, which run the objective whole,
    so the split cannot drift from the program."""
    simulate = recorder.wrap("hepsim.simulate", objective.simulate)
    error = recorder.wrap("hepsim.metrics", sim_error)
    counters = recorder.counters

    def split(values) -> float:
        trace = simulate(values)
        value = error(objective, trace)
        counters["sim.evals"] += 1
        for icd in objective.icd_values:
            stats = trace.stats(icd)
            counters["sim.icds"] += 1
            for key in SIM_COUNTERS:
                counters["sim." + key] += stats.get(key, 0.0)
        return value

    return recorder.wrap("hepsim.objective", split)


class TracedStore:
    """Spans around the store calls a cache makes; everything else (and
    ``stats()``) goes to the real store."""

    def __init__(self, store, recorder: Recorder) -> None:
        self._store = store
        for name in ("claim", "put", "get", "peek", "release"):
            setattr(self, name, recorder.wrap(f"service.store.{name}", getattr(store, name)))

    def __getattr__(self, name):
        return getattr(self._store, name)


class TracedCache(JobCache):
    """Spans around a job cache; its self time (span minus the store span
    inside it) is what the cache layer itself costs."""

    def __init__(self, inner: JobCache, recorder: Recorder) -> None:
        self._inner = inner
        self.get = recorder.wrap("service.cache.claim", inner.get)
        self.claim = recorder.wrap("service.cache.claim", inner.claim)
        self.put = recorder.wrap("service.cache.put", inner.put)
        for name in ("cancel", "poll", "mark_failed", "get_failure"):
            setattr(self, name, getattr(inner, name))

    @property
    def hits(self) -> int:
        return self._inner.hits


class TracedServer(CalibrationServer):
    """The server with its two documented template hooks spanned: the job
    cache it builds and the calibrator run it executes."""

    def __init__(self, recorder: Recorder, **kwargs) -> None:
        self._recorder = recorder  # before super(): it starts the worker threads
        super().__init__(**kwargs)

    def _make_cache(self, request):
        return TracedCache(super()._make_cache(request), self._recorder)

    def _execute(self, job, objective, cache, on_checkpoint):
        with self._recorder.span("core.calibrator.run"):
            return super()._execute(job, objective, cache, on_checkpoint)
