"""Algorithms on an objective that is NaN on a slice of the space.

The objective is a quadratic bowl over ``x`` in [2^10, 2^30] (log2) and
an integer ``n`` in 1..4, NaN where unit ``x`` < 0.3.  ``coordinate``
must leave a NaN restart point behind (a number displaces a NaN, the
history's rule), and ``gdfix``/``gddyn`` must read a NaN difference as
no descent along that axis instead of asking a NaN coordinate, which
the driver rejects by name.  Each run's asks are bounded, so a run that
would never end fails instead of hanging the suite.
"""

import math

import numpy as np
import pytest

from repro.core import Calibrator, EvaluationBudget, Parameter, ParameterSpace, get_algorithm

SPACE = ParameterSpace([
    Parameter("x", 2.0**10, 2.0**30),
    Parameter("n", 1, 4, scale="linear", integer=True),
])
#: far more asks than 30 evaluations and their free revisits need
MAX_ASKS = 10_000


def objective(values):
    unit = SPACE.to_unit_array(values)
    if unit[0] < 0.3:
        return math.nan
    return float(np.sum((unit - 0.37) ** 2)) * 100.0


def bounded(algorithm):
    """``algorithm`` whose asks raise once ``MAX_ASKS`` candidates were asked."""
    ask, asked = algorithm.ask, [0]

    def bounded_ask(rng, n):
        candidates = ask(rng, n)
        asked[0] += len(candidates)
        if asked[0] > MAX_ASKS:
            raise AssertionError(f"{algorithm.name} asked {asked[0]} candidates for 30 evaluations")
        return candidates

    algorithm.ask = bounded_ask
    return algorithm


@pytest.mark.parametrize("name, seed", [("coordinate", 2), ("gdfix", 0), ("gddyn", 0)])
def test_a_nan_slice_neither_stalls_nor_breaks_the_run(name, seed):
    result = Calibrator(SPACE, objective, algorithm=bounded(get_algorithm(name)),
                        budget=EvaluationBudget(30), seed=seed).run()
    assert result.evaluations == 30
    assert not math.isnan(result.best_value)


def test_a_nan_coordinate_is_rejected_by_name(scripted):
    algorithm = scripted(SPACE, [(0.5, 0.5), (0.5, math.nan)])
    with pytest.raises(ValueError, match=r"'scripted' asked a candidate whose coordinate 1 \('n'\)"):
        Calibrator(SPACE, objective, algorithm=algorithm, budget=EvaluationBudget(5)).run()
    assert len(algorithm.told) == 1
