"""Shared fixtures for the benchmark harness.

Every benchmark reproduces one table or figure of the paper.  The
underlying experiments live in :mod:`repro.analysis.experiments`; the
benchmarks run them once (pytest-benchmark's ``pedantic`` mode with a
single round — the experiments are minutes-scale, statistical repetition
is neither needed nor affordable), print the reproduced table and persist
it under ``benchmarks/results/`` so the output survives pytest's capture.

Budgets are intentionally small (see docs/architecture.md, "Reproduction
deviations"); set ``REPRO_BENCH_EVALS`` / ``REPRO_BENCH_SECONDS`` to larger
values to sharpen the results.
"""

import os
import sys
from pathlib import Path

import pytest

# Make the src layout importable without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.hepsim.groundtruth import GroundTruthGenerator  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def ground_truth_generator():
    """One ground-truth generator shared by every benchmark (traces are
    cached on disk after the first generation)."""
    return GroundTruthGenerator()


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def publish(results_dir):
    """Print an ExperimentResult and persist it under benchmarks/results/."""

    def _publish(result):
        text = result.to_text()
        print("\n" + text)
        (results_dir / f"{result.name}.txt").write_text(text + "\n")
        return result

    return _publish


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, iterations=1, rounds=1)
