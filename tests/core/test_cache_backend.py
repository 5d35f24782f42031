"""Pluggable evaluation-cache backends and cache-hit accounting."""

import pytest

from repro.core import (
    CacheBackend,
    Calibrator,
    DictCache,
    EvaluationBudget,
    Parameter,
    ParameterSpace,
    RunConfig,
)


def make_space():
    return ParameterSpace(
        [Parameter("x", 1.0, 16.0), Parameter("y", 1.0, 16.0)]
    )


class RecordingBackend(CacheBackend):
    """A dict backend that records the calls it receives."""

    def __init__(self):
        self.data = {}
        self.calls = []

    def get(self, key, values):
        self.calls.append(("get", key))
        return self.data.get(key)

    def put(self, key, values, value):
        self.calls.append(("put", key))
        self.data[key] = value

    def cancel(self, key, values):
        self.calls.append(("cancel", key))


A = {"x": 4.0, "y": 8.0}
B = {"x": 2.0, "y": 2.0}


class TestPluggableBackend:
    def test_custom_backend_receives_gets_and_puts(self, scripted):
        space = make_space()
        backend = RecordingBackend()
        calibrator = Calibrator(space, lambda v: v["x"],
                                algorithm=scripted(space, [A, A]), cache=backend)
        result = calibrator.run()
        kinds = [kind for kind, _ in backend.calls]
        assert kinds == ["get", "put", "get"]
        assert calibrator.cache_hits == 1
        assert result.evaluations == 1

    def test_prewarmed_backend_avoids_the_simulator(self, scripted):
        space = make_space()
        backend = RecordingBackend()
        Calibrator(space, lambda v: v["x"] * 10.0,
                   algorithm=scripted(space, [A]), cache=backend).run()

        calls = []
        algorithm = scripted(space, [A])
        warm = Calibrator(space, lambda v: calls.append(v) or 0.0, algorithm=algorithm,
                          cache=backend, config=RunConfig(replay_cache_hits=True))
        warm.run()
        assert algorithm.told == [40.0]
        assert calls == []
        assert warm.cache_hits == 1

    def test_cache_true_builds_a_dict_cache(self, scripted):
        space = make_space()
        calibrator = Calibrator(space, lambda v: v["x"],
                                algorithm=scripted(space, [A, A]), cache=True)
        calibrator.run()
        assert calibrator.cache_hits == 1

    def test_rerun_with_cache_true_starts_from_an_empty_cache(self):
        """``cache=True`` memoises within one run: a second run() is the
        fresh calibrator's run again, never free hits on the first's points."""
        space = make_space()

        def calibrator():
            return Calibrator(space, lambda v: v["x"] + v["y"], "random",
                              EvaluationBudget(5), seed=1)

        rerun = calibrator()
        rerun.run()
        second = rerun.run()
        fresh = calibrator().run()
        assert [(e.values, e.value) for e in second.history] == [
            (e.values, e.value) for e in fresh.history
        ]
        assert second.evaluations == 5
        assert rerun.cache_hits == 0

    def test_failing_function_cancels_the_announced_computation(self, scripted):
        space = make_space()
        backend = RecordingBackend()

        def broken(values):
            raise RuntimeError("boom")

        calibrator = Calibrator(space, broken, algorithm=scripted(space, [A]), cache=backend)
        with pytest.raises(RuntimeError):
            calibrator.run()
        assert ("cancel", backend.calls[0][1]) in backend.calls

    def test_budget_exhaustion_announces_nothing(self, scripted):
        space = make_space()
        backend = RecordingBackend()
        calibrator = Calibrator(space, lambda v: v["x"], algorithm=scripted(space, [A, B]),
                                budget=EvaluationBudget(1), cache=backend)
        calibrator.run()
        # The loop stops asking once the budget is spent, so the point
        # past it is never claimed and there is no claim to cancel.
        assert [kind for kind, _ in backend.calls] == ["get", "put"]


class TestCacheHitRecording:
    def test_hits_recorded_when_asked(self, scripted):
        space = make_space()
        algorithm = scripted(space, [A, A])
        result = Calibrator(space, lambda v: v["x"], algorithm=algorithm,
                            config=RunConfig(replay_cache_hits=True)).run()
        assert len(result.history) == 2
        assert [e.cached for e in result.history] == [False, True]
        assert result.evaluations == 1
        assert len(algorithm.told) == 2

    def test_hits_not_recorded_by_default(self, scripted):
        space = make_space()
        result = Calibrator(space, lambda v: v["x"], algorithm=scripted(space, [A, A])).run()
        assert len(result.history) == 1

    def test_counted_first_seen_hits_exhaust_the_budget(self, scripted):
        # A backend prewarmed by earlier work: every hit replays a paid-for
        # invocation, so each distinct point charges the budget once.
        space = make_space()
        backend = RecordingBackend()
        points = [{"x": x, "y": 2.0} for x in (2.0, 4.0, 8.0, 16.0)]
        Calibrator(space, lambda v: v["x"], algorithm=scripted(space, points),
                   cache=backend).run()

        algorithm = scripted(space, points)
        calls = []
        warm = Calibrator(space, lambda v: calls.append(v) or v["x"], algorithm=algorithm,
                          budget=EvaluationBudget(3), cache=backend,
                          config=RunConfig(replay_cache_hits=True)).run()
        assert algorithm.told == [2.0, 4.0, 8.0]  # the fourth is past the budget
        assert calls == []
        assert [e.cached for e in warm.history] == [True, True, True]

    def test_in_run_revisits_stay_free_when_counting(self, scripted):
        # Revisits of a point the run itself evaluated do not consume
        # budget — identical to the paper's default cache semantics, so a
        # cold service run matches a plain calibrator even for algorithms
        # that revisit points (grid corners, coordinate/pattern stalls).
        space = make_space()
        algorithm = scripted(space, [A] * 6 + [B, {"x": 8.0, "y": 8.0}])
        result = Calibrator(space, lambda v: v["x"], algorithm=algorithm,
                            budget=EvaluationBudget(2),
                            config=RunConfig(replay_cache_hits=True)).run()
        assert algorithm.told == [4.0] * 6 + [2.0]  # five free revisits, then B
        assert result.evaluations == 2

    def test_cold_service_semantics_match_plain_for_revisiting_algorithms(self):
        # The reviewer's scenario: 'coordinate' revisits points in-run; a
        # cold run with counting enabled must reproduce the plain run.
        space = make_space()
        fn = lambda v: (v["x"] - 4.0) ** 2 + (v["y"] - 9.0) ** 2  # noqa: E731
        plain = Calibrator(space, fn, algorithm="coordinate",
                           budget=EvaluationBudget(30), seed=1).run()
        cold = Calibrator(space, fn, algorithm="coordinate",
                          budget=EvaluationBudget(30), seed=1, cache=DictCache(),
                          config=RunConfig(replay_cache_hits=True)).run()
        assert cold.evaluations == plain.evaluations
        assert cold.best_values == plain.best_values
        assert cold.best_value == plain.best_value

    def test_fully_warm_calibration_reproduces_the_cold_run(self):
        space = make_space()
        fn = lambda v: (v["x"] - 4.0) ** 2 + (v["y"] - 9.0) ** 2  # noqa: E731
        shared = DictCache()
        cold = Calibrator(space, fn, algorithm="random", budget=EvaluationBudget(20),
                          seed=5, cache=shared,
                          config=RunConfig(replay_cache_hits=True)).run()
        calls = []
        warm = Calibrator(space, lambda v: calls.append(v) or fn(v), algorithm="random",
                          budget=EvaluationBudget(20), seed=5, cache=shared,
                          config=RunConfig(replay_cache_hits=True)).run()
        assert calls == []  # never touched the simulator
        assert warm.evaluations == 0
        assert warm.best_values == cold.best_values
        assert warm.best_value == cold.best_value
        assert len(warm.history) == len(cold.history)
