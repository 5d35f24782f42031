"""Per-evaluation spans: follow one candidate through the whole stack.

A *span* is a named interval of wall-clock time with attributes and an
optional parent; a *trace* is the tree of spans sharing one root.  The
drivers open an ``evaluation`` span per candidate point, the objective
opens a ``simulate`` child span when the point actually reaches the
simulator, and the algorithm layer opens ``tell`` spans — so one
calibration run serialises to a timeline that reconstructs the full
lifecycle of every evaluated point (cache hit?  leased?  how long in
the simulator?  when told back?).

Span records are appended to a sink as JSON objects, one per line::

    {"span_id": "1", "parent_id": null, "trace_id": "1",
     "name": "calibration", "start": 1723108981.2, "end": ...,
     "duration": 12.8, "attrs": {"algorithm": "cmaes"}}

Design notes:

* **Opt-in, near-zero overhead otherwise.**  The process default is
  :data:`NULL_TRACER`, whose ``begin`` returns ``None`` and whose
  ``end`` ignores ``None`` — the instrumented code paths never branch on
  "is tracing on", they just pass the (possibly ``None``) span around.
* **Deterministic ids.**  Span ids come from a per-tracer monotonic
  counter, not from random/uuid sources, so two runs with the same seed
  produce byte-comparable traces (modulo timestamps).
* **Thread-safe.**  Sinks serialise writes under a lock, and the
  ambient parent stack used by the :meth:`Tracer.span` context manager
  is thread-local, so concurrent driver threads nest correctly.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterator

__all__ = [
    "Span",
    "TraceSink",
    "JsonlTraceSink",
    "InMemoryTraceSink",
    "Tracer",
    "NULL_TRACER",
    "current_tracer",
    "set_tracer",
]


@dataclass
class Span:
    """One named interval in a trace.

    ``end`` / ``duration`` are filled in by :meth:`Tracer.end`; until
    then the span is open.  Attributes may be added at begin time, at
    end time, or any time in between via :meth:`set`.
    """

    span_id: str
    name: str
    trace_id: str
    parent_id: str | None = None
    start: float = 0.0
    end: float | None = None
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        if self.end is None:
            return None
        return self.end - self.start

    def set(self, **attrs: object) -> Span:
        """Attach attributes to the span (chainable)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": self.attrs,
        }


class TraceSink:
    """Destination for finished spans.  Subclasses override :meth:`emit`."""

    def emit(self, span: Span) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass


class JsonlTraceSink(TraceSink):
    """Append each finished span to a JSONL file (thread-safe)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # Long-lived sink handle, closed by close(); not a with-block resource.
        self._file = self.path.open("a")  # noqa: SIM115

    def emit(self, span: Span) -> None:
        line = json.dumps(span.to_dict())
        with self._lock:
            if self._file.closed:
                return
            self._file.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()


class InMemoryTraceSink(TraceSink):
    """Collect finished spans in a list (used by the tests)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.spans: list[Span] = []

    def emit(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def by_name(self, name: str) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.name == name]


class Tracer:
    """Creates spans and forwards finished ones to a sink.

    Two usage styles:

    * explicit — ``span = tracer.begin("evaluation", parent=root)`` ...
      ``tracer.end(span, value=0.3)``; needed when begin and end happen
      in different callbacks (the async driver);
    * ambient — ``with tracer.span("tell"):`` which parents to the
      innermost open ambient span *of the same thread* automatically.

    Both interoperate: an explicit ``parent=`` always wins, and
    :meth:`begin` falls back to the ambient parent when no explicit one
    is given.
    """

    enabled = True

    def __init__(self, sink: TraceSink) -> None:
        self._sink = sink
        self._counter_lock = threading.Lock()
        self._counter = 0
        self._ambient = threading.local()

    # -- id allocation --------------------------------------------------- #
    def _next_id(self) -> str:
        with self._counter_lock:
            self._counter += 1
            return format(self._counter, "x")

    def _ambient_stack(self) -> list[Span]:
        stack = getattr(self._ambient, "stack", None)
        if stack is None:
            stack = []
            self._ambient.stack = stack
        return stack

    # -- explicit API ----------------------------------------------------- #
    def begin(
        self, name: str, parent: Span | None = None, **attrs: object
    ) -> Span | None:
        """Open a span.  Returns ``None`` on a disabled tracer."""
        if parent is None:
            stack = self._ambient_stack()
            if stack:
                parent = stack[-1]
        span_id = self._next_id()
        return Span(
            span_id=span_id,
            name=name,
            trace_id=parent.trace_id if parent is not None else span_id,
            parent_id=parent.span_id if parent is not None else None,
            start=time.time(),
            attrs=dict(attrs),
        )

    def end(self, span: Span | None, **attrs: object) -> None:
        """Close a span and emit it.  ``None`` (from a disabled tracer)
        is accepted and ignored, so call sites never need a guard."""
        if span is None:
            return
        if attrs:
            span.attrs.update(attrs)
        span.end = time.time()
        self._sink.emit(span)

    # -- ambient API ------------------------------------------------------ #
    @contextmanager
    def span(self, name: str, parent: Span | None = None, **attrs: object) -> Iterator[Span | None]:
        """Open a span for the duration of a ``with`` block, parenting
        any span begun inside the block (on the same thread) to it."""
        span = self.begin(name, parent=parent, **attrs)
        stack = self._ambient_stack()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            self.end(span)

    def close(self) -> None:
        """Close the underlying sink (flushes JSONL files)."""
        self._sink.close()


class _NullTracer(Tracer):
    """The default: every operation is a no-op returning ``None``."""

    enabled = False

    def __init__(self) -> None:  # no sink
        self._ambient = threading.local()

    def begin(self, name: str, parent: Span | None = None, **attrs: object) -> None:
        return None

    def end(self, span: Span | None, **attrs: object) -> None:
        return None

    @contextmanager
    def span(self, name: str, parent: Span | None = None, **attrs: object) -> Iterator[None]:
        yield None

    def close(self) -> None:
        return None


#: Process-default tracer: a no-op.
NULL_TRACER = _NullTracer()

_current: Tracer = NULL_TRACER
_current_lock = threading.Lock()


def current_tracer() -> Tracer:
    """The process-wide tracer (``NULL_TRACER`` unless one was set)."""
    return _current


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` as the process-wide tracer (``None`` resets to
    the no-op tracer).  Returns the previously installed tracer."""
    global _current
    with _current_lock:
        previous = _current
        _current = tracer if tracer is not None else NULL_TRACER
        return previous
