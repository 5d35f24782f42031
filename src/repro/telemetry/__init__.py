"""Unified telemetry: metrics, per-evaluation tracing, simulator profiling.

The instrumentation layer every other subsystem reports into.  It is
dependency-free (standard library only) and split into four modules:

* :mod:`repro.telemetry.metrics` — a process-wide
  :class:`~repro.telemetry.metrics.MetricsRegistry` of counters, gauges
  and histograms.  Thread-safe, near-zero overhead while disabled (the
  default), with Prometheus-style text exposition and JSON snapshot
  export.  The algorithm layer (ask/tell timing), the drivers (dispatch
  counts, in-flight depth, cache hits) and the service (store hits /
  misses / lease contention, per-job counters) all record here.
* :mod:`repro.telemetry.tracing` — per-evaluation spans: a lightweight
  trace context that follows one candidate point from ``ask()`` through
  driver dispatch, cache/lease consultation, simulator execution and
  ``tell()``, emitted to a JSONL sink with parent/child span ids so a
  run can be reconstructed as a timeline.
* :mod:`repro.telemetry.profiling` — simulator hot-path profiling: a
  :class:`~repro.telemetry.profiling.SimulationProfile` attached to a
  :class:`~repro.simgrid.engine.SimulationEngine` attributes wall-clock
  and event counts to the engine's phases (fluid-share recomputation,
  clock advancement/completions, timer callbacks), the flame-style
  breakdown that performance work on the engine starts from.
* :mod:`repro.telemetry.log` — the shared :mod:`logging` setup for the
  CLI and the benchmark scripts (``--verbose``/``-q``), plus the
  :func:`~repro.telemetry.log.console` helper for user-facing output
  (``print`` is banned in ``src/`` by lint rule T20).

Everything is opt-in: with the registry disabled, the tracer unset and
no profile attached, the instrumented code paths reduce to a handful of
``is None`` / boolean checks (see ``tests/telemetry/test_overhead.py``
and ``benchmarks/bench_telemetry_overhead.py`` for the guarantee).

Quick start::

    from repro import telemetry

    telemetry.enable_metrics()
    tracer = telemetry.Tracer(telemetry.JsonlTraceSink("trace.jsonl"))
    telemetry.set_tracer(tracer)

    result = problem.calibrate(...)          # instruments itself

    print(telemetry.registry().render_text())     # Prometheus exposition
    telemetry.registry().save_snapshot("metrics.json")
    tracer.close()

or, from the command line::

    repro calibrate --metrics metrics.json --trace trace.jsonl ...
"""

from repro.telemetry.log import configure as configure_logging
from repro.telemetry.log import console, get_logger
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.telemetry.profiling import (
    SimulationProfile,
    disable_simulation_profiling,
    enable_simulation_profiling,
    simulation_profiling_enabled,
)
from repro.telemetry.tracing import (
    NULL_TRACER,
    InMemoryTraceSink,
    JsonlTraceSink,
    Span,
    Tracer,
    current_tracer,
    set_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "enable_metrics",
    "disable_metrics",
    "Span",
    "Tracer",
    "JsonlTraceSink",
    "InMemoryTraceSink",
    "NULL_TRACER",
    "current_tracer",
    "set_tracer",
    "SimulationProfile",
    "enable_simulation_profiling",
    "disable_simulation_profiling",
    "simulation_profiling_enabled",
    "configure_logging",
    "console",
    "get_logger",
]


def enable_metrics() -> MetricsRegistry:
    """Enable the process-wide metrics registry and return it."""
    reg = registry()
    reg.enable()
    return reg


def disable_metrics() -> MetricsRegistry:
    """Disable the process-wide metrics registry and return it."""
    reg = registry()
    reg.disable()
    return reg
