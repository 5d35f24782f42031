"""What only a fresh interpreter can show: what importing the package pulls
in, and that simulated results do not depend on where objects live.

``scipy.stats`` (0.8 s, 50 k GC-tracked objects) is used by the ``sobol``
algorithm only; every evaluation of every other calibration paid for it, in
import time and in each full garbage collection, while it was imported at
module level.  ``networkx`` is not a dependency at all.

Activities hash by identity, so the engine's sets iterate in an order that
depends on memory addresses.  Nothing result-affecting may follow that
order: the same point simulated at three different heap layouts (twice in
this process around a few thousand allocations, once in a fresh process)
must give the same bits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.hepsim import CaseStudyProblem, Scenario

SRC = Path(__file__).resolve().parents[2] / "src"


def run_python(*argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_package_leaves_scipy_stats_out():
    heavy = run_python(
        "-c",
        "import sys\n"
        "import repro.hepsim, repro.core, repro.service, repro.simgrid, repro.wrench\n"
        "print([m for m in ('scipy.stats', 'networkx') if m in sys.modules])\n"
        # ... and the code that needs it still finds it
        "import numpy as np\n"
        "from repro.core import ParameterSpace, Parameter, get_algorithm\n"
        "sobol = get_algorithm('sobol')\n"
        "sobol.setup(ParameterSpace([Parameter('x', 1.0, 2.0)]))\n"
        "assert len(sobol.ask(np.random.default_rng(1), 4)) == 4\n"
        "print([m for m in ('scipy.stats', 'networkx') if m in sys.modules])\n"
    )
    assert heavy.splitlines() == ["[]", "['scipy.stats']"]


def job_times_hex() -> list[list[str]]:
    """Every job's start and end at one calib-scale point, as hex."""
    problem = CaseStudyProblem.create(Scenario.calib("SCFN"))
    trace = problem.objective.simulate(problem.space.sample(np.random.default_rng(5)))
    return [
        [result.name, result.start_time.hex(), result.end_time.hex()]
        for icd in trace.icd_values
        for result in trace.results(icd)
    ]


def test_results_do_not_depend_on_object_addresses():
    here = job_times_hex()
    junk = [[object() for _ in range(7)] for _ in range(3000)]  # shifts the heap
    again = job_times_hex()
    del junk
    fresh = json.loads(run_python(__file__))
    assert len(here) == 88
    assert here == again == fresh


if __name__ == "__main__":
    print(json.dumps(job_times_hex()))
