"""Extension — parallel candidate evaluation (the paper's 40-core protocol).

The paper evaluates candidate calibrations with "one simulation on each
core of a dedicated ... 40-core CPU".  This benchmark runs the
space-filling parallel calibrator with 1, 2 and 4 workers under the same
evaluation budget.

Expected shape: the batch driver draws the same candidates at every worker
count, so the evaluations and the best MRE are identical in every row, and
four workers finish the budget in less wall-clock than one.  On a machine
with fewer than four cores there is nothing to scale onto: the pool then
runs serially and only the equal-budget claims are checked.
"""

import os

from conftest import run_once

from repro.analysis.extensions import parallel_scaling_experiment


def test_parallel_scaling(benchmark, publish, ground_truth_generator):
    scaling = (os.cpu_count() or 1) >= 4
    result = run_once(
        benchmark,
        parallel_scaling_experiment,
        generator=ground_truth_generator,
        worker_counts=(1, 2, 4),
        mode="process" if scaling else "serial",
    )
    publish(result)

    detail = result.extra
    assert set(detail) == {"1", "2", "4"}
    assert detail["1"]["evaluations"] >= 1
    # The same budget buys the same history at every worker count.
    for cell in detail.values():
        assert cell["evaluations"] == detail["1"]["evaluations"]
        assert cell["best"] == detail["1"]["best"]
    if scaling:
        # Four workers finish the same candidates sooner than one (process
        # start-up costs a little, hence the 1.2x rather than 4x bar).
        assert detail["1"]["elapsed"] >= 1.2 * detail["4"]["elapsed"]
