"""Figure 2 — best-so-far absolute simulation error vs calibration cost.

The cost axis is cumulative simulated events, the paper's model of
calibration time (Section IV.C.4); every algorithm gets the same
simulated-event budget.

Expected shape (paper, Section IV.C.5): all curves are non-increasing with
a sharp initial decrease; GRID converges the slowest and to the worst
error of the three algorithms.
"""

from conftest import run_once

from repro.analysis.experiments import figure2_convergence


def test_figure2_convergence(benchmark, publish, ground_truth_generator):
    result = run_once(
        benchmark,
        figure2_convergence,
        generator=ground_truth_generator,
    )
    publish(result)

    series = result.extra["series"]
    for name, points in series.items():
        assert points, f"algorithm {name} never completed an evaluation"
        values = [v for _, v in points]
        # Best-so-far curves are non-increasing.
        assert all(values[i + 1] <= values[i] + 1e-9 for i in range(len(values) - 1))

    final = {name: points[-1][1] for name, points in series.items()}
    # GRID ends at the worst (or tied-worst) error of the three algorithms.
    assert final["grid"] >= min(final.values()) - 1e-9
    assert final["grid"] >= max(final["random"], final["gdfix"]) * 0.99
