"""Parallel evaluation of candidate batches."""

import numpy as np
import pytest

from repro.core import ParallelEvaluator, Parameter, ParameterSpace


def make_space(dimension=2):
    return ParameterSpace([Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(dimension)])


class _QuadraticObjective:
    """Picklable objective with a known optimum in unit coordinates."""

    def __init__(self, space, optimum=0.3):
        self.space = space
        self.optimum = optimum

    def __call__(self, values):
        unit = self.space.to_unit_array(values)
        return float(np.sum((unit - self.optimum) ** 2)) * 50.0


class TestParallelEvaluator:
    def test_process_thread_and_serial_agree(self):
        space = make_space()
        objective = _QuadraticObjective(space)
        batch = [space.from_unit_array([x, x]) for x in (0.0, 0.25, 0.5, 0.75, 1.0)]

        def values(workers, mode):
            with ParallelEvaluator(objective, workers=workers, mode=mode) as evaluator:
                futures = [evaluator.submit(candidate) for candidate in batch]
                return [future.result(timeout=30)[0] for future in futures]

        serial = values(1, "serial")
        assert serial == pytest.approx([objective(candidate) for candidate in batch])
        assert values(3, "thread") == pytest.approx(serial)
        assert values(2, "process") == pytest.approx(serial)

    def test_invalid_configuration(self):
        space = make_space()
        with pytest.raises(ValueError):
            ParallelEvaluator(_QuadraticObjective(space), workers=0)
        with pytest.raises(ValueError):
            ParallelEvaluator(_QuadraticObjective(space), mode="gpu")
