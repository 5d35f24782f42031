"""Smoke test of the performance benchmark: ``--check`` in-process.

No timing assertions — it only pins the contract between ``BENCHMARK.json``
and the harness: every metric named there is emitted for every workload, the
names are well-formed and the size limits hold.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load_harness():
    spec = importlib.util.spec_from_file_location("perf_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_benchmark_json_limits():
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer") for entry in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_check_mode_emits_every_metric_for_every_workload(tmp_path):
    harness = load_harness()
    report = harness.run_check(harness.DEFAULT_SEED, tmp_path)
    assert list(report) == [workload["name"] for workload in SPEC["workloads"]]
    for workload, entry in report.items():
        assert entry["problems"] == [], workload
        for kind in ("end_to_end", "per_layer"):
            assert list(entry[kind]) == [metric["name"] for metric in SPEC[kind]], workload
            for metric in SPEC[kind]:
                assert entry[kind][metric["name"]]["unit"] == metric["unit"]
