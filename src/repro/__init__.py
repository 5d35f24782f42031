"""repro — automated calibration of parallel and distributed computing simulators.

A from-scratch Python reproduction of McDonald, Horzela, Suter & Casanova,
"Automated Calibration of Parallel and Distributed Computing Simulators:
A Case Study" (IPDPS 2024).

The package is organised in four layers:

* :mod:`repro.simgrid` — a fluid-model discrete-event simulation substrate
  (hosts, links, disks, memories, max-min sharing, simulated processes);
* :mod:`repro.wrench` — a service layer on top of it (files, jobs, a
  bare-metal compute service and an FCFS scheduler);
* :mod:`repro.hepsim` — the High-Energy-Physics case-study simulator
  (workload, the four platform configurations, ground-truth generation,
  the HUMAN manual calibration procedure);
* :mod:`repro.core` — the calibration framework itself (parameter spaces in
  log2 representation, accuracy metrics, time/evaluation budgets, and the
  GRID / RANDOM / GDFIX / GDDYN algorithms plus extensions).

:mod:`repro.analysis` regenerates every table and figure of the paper's
evaluation section.
"""

from repro.version import __version__

__all__ = ["__version__"]
