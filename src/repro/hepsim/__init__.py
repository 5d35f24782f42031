"""The High-Energy-Physics case-study simulator (Section IV of the paper).

This subpackage contains everything specific to the paper's case study:

* the workload model (independent jobs reading ~427 MB input files,
  computing a volume of work per byte, writing an output file);
* the four platform configurations of Table II (SCFN, FCFN, SCSN, FCSN);
* the calibratable simulator (:class:`~repro.hepsim.simulator.HEPSimulator`)
  whose block size ``B`` and buffer size ``b`` control the simulation
  granularity, exactly as in Section IV.C.4;
* the ground-truth reference system (:mod:`repro.hepsim.groundtruth`) that
  substitutes for the paper's real WLCG executions;
* the HUMAN manual calibration procedure (:mod:`repro.hepsim.human`);
* the glue that turns all of the above into a calibration problem for
  :mod:`repro.core` (:mod:`repro.hepsim.calibration`).
"""

from repro.hepsim.calibration import (
    CaseStudyObjective,
    CaseStudyProblem,
    build_parameter_space,
    scenario_fingerprint,
)
from repro.hepsim.generalization import (
    GeneralizationStudy,
    generalization_study,
    with_compute_data_ratio,
)
from repro.hepsim.groundtruth import GroundTruthGenerator, ReferenceSystemConfig
from repro.hepsim.human import human_calibration
from repro.hepsim.platforms import (
    PLATFORM_CONFIGS,
    CalibrationValues,
    PlatformConfig,
    build_platform,
)
from repro.hepsim.scenario import Scenario
from repro.hepsim.simulator import HEPSimulator
from repro.hepsim.trace import ExecutionTrace
from repro.hepsim.workload import WorkloadSpec, make_workload

__all__ = [
    "CalibrationValues",
    "CaseStudyObjective",
    "CaseStudyProblem",
    "ExecutionTrace",
    "GeneralizationStudy",
    "GroundTruthGenerator",
    "HEPSimulator",
    "PLATFORM_CONFIGS",
    "PlatformConfig",
    "ReferenceSystemConfig",
    "Scenario",
    "WorkloadSpec",
    "build_parameter_space",
    "build_platform",
    "generalization_study",
    "human_calibration",
    "make_workload",
    "scenario_fingerprint",
    "with_compute_data_ratio",
]
