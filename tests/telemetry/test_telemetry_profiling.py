"""Simulator profiling hooks: engine phase attribution and the hepsim
stats-dict folding."""

import pytest

from repro.telemetry.profiling import (
    SimulationProfile,
    disable_simulation_profiling,
    enable_simulation_profiling,
    simulation_profiling_enabled,
)


@pytest.fixture()
def profiling_enabled():
    enable_simulation_profiling()
    try:
        yield
    finally:
        disable_simulation_profiling()


class TestSimulationProfile:
    def test_add_accumulates_seconds_and_counts(self):
        profile = SimulationProfile()
        profile.add("sharing", 0.25)
        profile.add("sharing", 0.75, count=3)
        assert profile.seconds("sharing") == pytest.approx(1.0)
        assert profile.count("sharing") == 4

    def test_to_dict_is_flat_and_picklable(self):
        import pickle

        profile = SimulationProfile()
        profile.add("advance", 0.5, count=2)
        data = profile.to_dict()
        assert data == {"phase_advance_seconds": 0.5, "phase_advance_count": 2.0}
        assert pickle.loads(pickle.dumps(data)) == data

    def test_flag_toggles(self):
        assert not simulation_profiling_enabled()
        enable_simulation_profiling()
        assert simulation_profiling_enabled()
        disable_simulation_profiling()
        assert not simulation_profiling_enabled()


class TestEngineHooks:
    def _run_engine(self, profile):
        from repro.simgrid.engine import SimulationEngine
        from repro.simgrid.host import Host

        engine = SimulationEngine()
        engine.profile = profile
        host = Host(engine, "node", speed=100.0, cores=2)

        def body():
            yield host.exec_async("a", 200.0)
            yield host.exec_async("b", 100.0)

        engine.add_process(body(), "main")
        engine.run()
        return engine

    def test_phases_attributed_when_profile_attached(self):
        profile = SimulationProfile()
        engine = self._run_engine(profile)
        assert profile.seconds("sharing") >= 0.0
        assert profile.count("sharing") == engine.sharing_update_count
        assert profile.count("advance") == engine.completed_activity_count
        assert profile.count("timers") >= 1  # process wake-ups are timers

    def test_no_profile_leaves_engine_untouched(self):
        engine = self._run_engine(None)
        assert engine.profile is None
        assert engine.completed_activity_count > 0


class TestHepsimFolding:
    def _stats(self):
        from repro.hepsim import GroundTruthGenerator, Scenario
        from repro.hepsim.calibration import CaseStudyProblem
        from repro.hepsim.simulator import HEPSimulator

        scenario = Scenario.tiny("FCSN")
        problem = CaseStudyProblem.create(scenario, generator=GroundTruthGenerator())
        simulator = HEPSimulator(scenario)
        _, stats = simulator.simulate(problem.true_values(), scenario.icd_values[0])
        return stats

    def test_stats_carry_phase_keys_only_when_enabled(self, profiling_enabled):
        stats = self._stats()
        assert "phase_sharing_seconds" in stats
        assert "phase_advance_seconds" in stats
        assert stats["phase_advance_count"] == stats["events"]
        assert all(isinstance(v, float) for v in stats.values())

    def test_stats_have_no_phase_keys_by_default(self):
        stats = self._stats()
        assert not any(key.startswith("phase_") for key in stats)
