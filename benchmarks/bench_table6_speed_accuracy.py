"""Table VI — accuracy vs simulation-time (granularity) trade-off on FCSN.

Expected shape (paper, Section IV.C.4): with the same simulated-event
calibration budget, the coarsest (fastest) simulation granularity yields
the best MRE for every algorithm, because the calibration can explore the
parameter space much more thoroughly; the simulated events and the
simulation time grow as the block and buffer sizes shrink.
"""

from conftest import run_once

from repro.analysis.experiments import table6_speed_accuracy


def test_table6_speed_accuracy(benchmark, publish, ground_truth_generator):
    result = run_once(
        benchmark,
        table6_speed_accuracy,
        generator=ground_truth_generator,
    )
    publish(result)

    detail = result.extra["detail"]
    keys = list(detail)  # ordered coarse/fast -> fine/slow
    events = [detail[k]["events"] for k in keys]
    # Finer granularity => more simulated events per evaluation, exactly.
    assert all(events[i] < events[i + 1] for i in range(len(events) - 1))
    sim_times = [detail[k]["avg_sim_time"] for k in keys]
    # Finer granularity => slower simulation (strictly increasing cost).
    assert all(sim_times[i] < sim_times[i + 1] for i in range(len(sim_times) - 1))

    # Finer granularity => fewer evaluations fit in the fixed budget.
    for algorithm in ("random", "gdfix"):
        evals = [detail[k][f"{algorithm}_evaluations"] for k in keys]
        assert evals[0] > evals[-1]

    # The coarsest granularity is at least as accurate as the finest one for
    # the sequential algorithms (the paper's headline observation).
    for algorithm in ("random", "gdfix"):
        assert detail[keys[0]][algorithm] <= detail[keys[-1]][algorithm] * 1.25
