"""The committed ground truth and where new ground truth is cached.

``src/repro/hepsim/data/gt-*.json`` are read, never written: the committed
tiny traces must regenerate bit for bit (they exercise the reference
system's :class:`~repro.hepsim.simulator.RealismModel` branch of the
simulator, which ``trace_parity.json`` does not), and a trace generated for
any other scenario goes to ``$REPRO_GT_CACHE`` or the user cache directory,
not into the source tree.
"""

from pathlib import Path

import pytest

from repro.hepsim.groundtruth import COMMITTED_GROUND_TRUTH, GroundTruthGenerator
from repro.hepsim.scenario import Scenario
from repro.hepsim.trace import ExecutionTrace

COMMITTED_TINY = sorted(COMMITTED_GROUND_TRUTH.glob("gt-*-tiny-*.json"))


def snapshot(directory: Path) -> dict[str, int]:
    return {path.name: path.stat().st_mtime_ns for path in directory.iterdir()}


def never(scenario):
    pytest.fail(f"ground truth for {scenario.cache_key()} was generated, not read")


def test_the_four_tiny_platforms_are_committed():
    assert [path.name.split("-")[1] for path in COMMITTED_TINY] == [
        "FCFN", "FCSN", "SCFN", "SCSN"
    ]


@pytest.mark.parametrize("path", COMMITTED_TINY, ids=lambda path: path.name.split("-")[1])
def test_committed_tiny_ground_truth_regenerates_bit_for_bit(path):
    scenario = Scenario.tiny(path.name.split("-")[1])
    generator = GroundTruthGenerator(use_disk_cache=False)
    assert f"{generator._cache_key(scenario)}.json" == path.name
    committed = ExecutionTrace.from_json(path.read_text())
    fresh = generator.generate(scenario)
    assert fresh.icd_values == committed.icd_values
    for icd in committed.icd_values:
        assert [r.to_dict() for r in fresh.results(icd)] == [
            r.to_dict() for r in committed.results(icd)
        ], icd


def test_committed_ground_truth_is_read_whatever_the_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_GT_CACHE", str(tmp_path))
    generator = GroundTruthGenerator()
    monkeypatch.setattr(generator, "generate", never)
    assert generator.get(Scenario.tiny("SCSN")).icd_values == [0.0, 0.5, 1.0]
    assert not list(tmp_path.iterdir())


# An ICD outside the paper's grid gives a ground-truth scenario with twelve
# ICDs, which nothing commits.
UNCOMMITTED = Scenario.tiny("FCFN", icd_values=(0.25,))


def test_new_ground_truth_goes_to_the_user_cache_not_the_source_tree(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_GT_CACHE", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    before = snapshot(COMMITTED_GROUND_TRUTH)
    generator = GroundTruthGenerator()
    trace = generator.get(UNCOMMITTED)
    assert snapshot(COMMITTED_GROUND_TRUTH) == before
    (written,) = tmp_path.glob(".cache/repro/ground-truth/gt-*.json")
    assert written.name == f"{generator._cache_key(UNCOMMITTED)}.json"
    # A second generator reads it back instead of generating again.
    again = GroundTruthGenerator()
    monkeypatch.setattr(again, "generate", never)
    assert again.get(UNCOMMITTED).metrics() == trace.metrics()


def test_repro_gt_cache_names_where_new_ground_truth_goes(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_GT_CACHE", str(tmp_path / "gt"))
    before = snapshot(COMMITTED_GROUND_TRUTH)
    GroundTruthGenerator().get(UNCOMMITTED)
    assert snapshot(COMMITTED_GROUND_TRUTH) == before
    assert len(list((tmp_path / "gt").glob("gt-*.json"))) == 1
