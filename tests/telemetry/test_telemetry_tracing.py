"""Span tracing: nesting, sinks, and parent/child integrity under the
asynchronous out-of-order driver."""

import json

import pytest

from repro.telemetry.tracing import (
    NULL_TRACER,
    InMemoryTraceSink,
    JsonlTraceSink,
    Tracer,
    current_tracer,
    set_tracer,
)


class TestSpans:
    def test_begin_end_emits_one_span(self):
        sink = InMemoryTraceSink()
        tracer = Tracer(sink)
        span = tracer.begin("work", kind="test")
        tracer.end(span, value=3.0)
        assert len(sink.spans) == 1
        emitted = sink.spans[0]
        assert emitted.name == "work"
        assert emitted.attrs == {"kind": "test", "value": 3.0}
        assert emitted.end >= emitted.start
        assert emitted.duration >= 0.0

    def test_context_manager_nests_ambiently(self):
        sink = InMemoryTraceSink()
        tracer = Tracer(sink)
        with tracer.span("parent") as parent:
            with tracer.span("child"):
                pass
        child, outer = sink.spans  # children end (and emit) first
        assert child.name == "child"
        assert child.parent_id == parent.span_id
        assert child.trace_id == outer.trace_id

    def test_explicit_parent_wins_over_ambient(self):
        sink = InMemoryTraceSink()
        tracer = Tracer(sink)
        root = tracer.begin("root")
        with tracer.span("ambient"):
            span = tracer.begin("work", parent=root)
            tracer.end(span)
        assert sink.by_name("work")[0].parent_id == root.span_id

    def test_span_ids_are_unique(self):
        tracer = Tracer(InMemoryTraceSink())
        ids = {tracer.begin(f"s{i}").span_id for i in range(100)}
        assert len(ids) == 100

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.begin("x") is None
        NULL_TRACER.end(None, value=1)  # must not raise
        with NULL_TRACER.span("x") as span:
            assert span is None

    def test_set_tracer_installs_and_restores(self):
        sink = InMemoryTraceSink()
        tracer = Tracer(sink)
        previous = set_tracer(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            set_tracer(previous)
        assert current_tracer() is not tracer


class TestJsonlSink:
    def test_spans_round_trip_through_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlTraceSink(path))
        with tracer.span("outer", driver="test"):
            with tracer.span("inner"):
                pass
        tracer.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner, outer = records
        assert inner["parent_id"] == outer["span_id"]
        assert inner["trace_id"] == outer["trace_id"]
        assert inner["attrs"] == {}
        assert outer["attrs"] == {"driver": "test"}
        for record in records:
            assert record["end"] >= record["start"]


class TestAsyncDriverSpanIntegrity:
    @pytest.mark.parametrize("algorithm", ["random"])
    def test_every_evaluation_has_a_span_chained_to_the_root(self, algorithm):
        """Out-of-order completions must still produce one evaluation span
        per point, all parented on the run's root calibration span."""
        from repro.core import AsyncCalibrator, EvaluationBudget
        from repro.core.parameters import Parameter, ParameterSpace

        sink = InMemoryTraceSink()
        previous = set_tracer(Tracer(sink))
        try:
            space = ParameterSpace([Parameter("x", 1.0, 2.0, scale="linear")])
            result = AsyncCalibrator(
                space, lambda v: v["x"], algorithm=algorithm,
                budget=EvaluationBudget(16), seed=3,
                workers=4, mode="thread", cache=False,
            ).run()
        finally:
            set_tracer(previous)

        roots = sink.by_name("calibration")
        assert len(roots) == 1
        root = roots[0]
        evaluations = sink.by_name("evaluation")
        assert len(evaluations) == result.evaluations == 16
        assert all(span.parent_id == root.span_id for span in evaluations)
        assert all(span.trace_id == root.trace_id for span in evaluations)
        # Spans carry the objective value of the point they followed.
        values = sorted(span.attrs["value"] for span in evaluations)
        assert values == sorted(e.value for e in result.history)
