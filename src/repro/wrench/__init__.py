"""Service layer on top of the fluid simulation substrate.

This subpackage mirrors the WRENCH abstractions the case-study simulator
uses: data files, jobs, a bare-metal compute service handing out core
slots, and a simple FCFS batch scheduler (standing in for HTCondor).  The
I/O path itself (remote reads, node-local and page caches) is the
simulator's job body, in :mod:`repro.hepsim.simulator`.
"""

from repro.wrench.compute import BareMetalComputeService
from repro.wrench.files import DataFile
from repro.wrench.jobs import Job, JobResult, JobSpec
from repro.wrench.scheduler import FCFSScheduler

__all__ = [
    "BareMetalComputeService",
    "DataFile",
    "FCFSScheduler",
    "Job",
    "JobResult",
    "JobSpec",
]
