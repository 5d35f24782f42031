"""Engine observers: the activity tracer."""

import json

import pytest

from repro.simgrid import ActivityTracer, Platform


def build_two_host_platform():
    platform = Platform("trace-test")
    a = platform.add_host("alpha", 1e9, cores=2)
    b = platform.add_host("beta", 1e9, cores=2)
    link = platform.add_link("wire", 1e8, latency=0.0)
    platform.add_route(a, b, [link])
    platform.add_disk(a, "alpha_disk", 1e8)
    return platform, a, b, link


class TestActivityTracer:
    def run_simple_workflow(self, keep_zero_work=False):
        platform, a, b, _ = build_two_host_platform()
        tracer = ActivityTracer(keep_zero_work=keep_zero_work)
        platform.engine.add_observer(tracer)

        def process():
            yield a.exec_async("crunch", 2e9)                       # 1 s on one core
            yield platform.transfer_async("ship", 1e8, a, b)        # 1 s on the link
            yield a.disks["alpha_disk"].read_async("load", 5e7)     # 0.5 s on the disk
            yield platform.transfer_async("loopback", 1e6, a, a)    # zero-work activity

        platform.engine.add_process(process(), "main")
        platform.engine.run()
        return platform, tracer

    def test_records_classified_activities(self):
        platform, tracer = self.run_simple_workflow()
        assert len(tracer) == 3  # the zero-work loopback is skipped by default
        kinds = {record.kind for record in tracer.records}
        assert kinds == {"compute", "network", "disk"}
        assert tracer.makespan() == pytest.approx(platform.engine.now)

    def test_keep_zero_work_records_loopbacks(self):
        _, tracer = self.run_simple_workflow(keep_zero_work=True)
        assert len(tracer) == 4

    def test_busy_time_by_kind(self):
        _, tracer = self.run_simple_workflow()
        assert tracer.busy_time("compute") == pytest.approx(2.0, rel=1e-6)
        assert tracer.busy_time("network") == pytest.approx(1.0, rel=1e-6)
        assert tracer.busy_time() == pytest.approx(3.5, rel=1e-6)

    def test_summary_and_json_roundtrip(self):
        _, tracer = self.run_simple_workflow()
        summary = tracer.summary()
        assert summary["compute_count"] == 1.0
        assert summary["makespan"] > 0
        decoded = json.loads(tracer.to_json())
        assert len(decoded) == 3
        assert {d["kind"] for d in decoded} == {"compute", "network", "disk"}

    def test_gantt_rendering(self):
        _, tracer = self.run_simple_workflow()
        chart = tracer.gantt(width=30)
        assert "crunch" in chart
        assert "#" in chart
        assert ActivityTracer().gantt() == "(no traced activities)"

    def test_observer_can_be_removed(self):
        platform, a, _, _ = build_two_host_platform()
        tracer = ActivityTracer()
        platform.engine.add_observer(tracer)
        platform.engine.remove_observer(tracer)
        platform.engine.remove_observer(tracer)  # second removal is a no-op

        def process():
            yield a.exec_async("quick", 1e9)

        platform.engine.add_process(process(), "main")
        platform.engine.run()
        assert len(tracer) == 0

    def test_canceled_activities_are_marked(self):
        platform, a, _, _ = build_two_host_platform()
        tracer = ActivityTracer()
        platform.engine.add_observer(tracer)
        activity = a.exec_async("doomed", 1e12)
        platform.engine.start_activity(activity)
        platform.engine.schedule(0.5, lambda: platform.engine.cancel_activity(activity))
        platform.engine.run()
        assert len(tracer) == 1
        assert tracer.records[0].canceled is True
