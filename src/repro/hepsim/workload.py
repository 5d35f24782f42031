"""The case-study application workload.

The paper's ground-truth workload comprises 48 independent jobs, each
reading 20 input files of ~427 MB, performing some volume of computation
per byte of input, and writing one output file.  Data and compute volumes
can be given either as constants or as probability distributions (the
paper's simulator supports both); the reproduction defaults to constants,
which is what the ground-truth workload uses.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from repro.hepsim.units import MB
from repro.wrench.files import DataFile
from repro.wrench.jobs import JobSpec


@dataclasses.dataclass(frozen=True)
class Distribution:
    """A scalar value or a simple probability distribution.

    ``kind`` is one of ``"constant"``, ``"uniform"`` (``low``/``high``) or
    ``"lognormal"`` (``mean``/``sigma`` of the underlying normal, scaled so
    that the distribution mean is ``value``).
    """

    value: float
    kind: str = "constant"
    low: float = 0.0
    high: float = 0.0
    sigma: float = 0.0

    def sample(self, rng: np.random.Generator | None = None) -> float:
        if self.kind == "constant" or rng is None:
            return self.value
        if self.kind == "uniform":
            return float(rng.uniform(self.low, self.high))
        if self.kind == "lognormal":
            # Scale so that the expected value equals ``value``.
            mu = math.log(self.value) - 0.5 * self.sigma**2
            return float(rng.lognormal(mu, self.sigma))
        raise ValueError(f"unknown distribution kind {self.kind!r}")


def constant(value: float) -> Distribution:
    """A degenerate distribution always returning ``value``."""
    return Distribution(value=value, kind="constant")


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """Description of the workload to execute.

    The defaults are a scaled-down version of the paper's ground-truth
    workload (see docs/architecture.md, "Reproduction deviations");
    :func:`paper_scale` gives the full-size
    one (48 jobs x 20 files of 427 MB).

    Attributes
    ----------
    n_jobs:
        Number of independent jobs.
    files_per_job:
        Number of input files read by every job.
    file_size:
        Input file size, in bytes (constant or distribution).
    flops_per_byte:
        Computation volume per input byte (work units per byte).
    output_size:
        Output file size in bytes.
    """

    n_jobs: int = 12
    files_per_job: int = 10
    file_size: Distribution = constant(427 * MB)
    flops_per_byte: Distribution = constant(2.0)
    output_size: Distribution = constant(20 * MB)
    shared_input_files: bool = False
    seed: int = 0

    @property
    def mean_input_bytes_per_job(self) -> float:
        return self.files_per_job * self.file_size.value

    @property
    def total_input_bytes(self) -> float:
        if self.shared_input_files:
            return self.mean_input_bytes_per_job
        return self.n_jobs * self.mean_input_bytes_per_job

    def compute_seconds_per_job(self, core_speed: float) -> float:
        """Expected per-job computation time at a given core speed."""
        return self.mean_input_bytes_per_job * self.flops_per_byte.value / core_speed


def paper_scale() -> WorkloadSpec:
    """The full-size ground-truth workload of the paper (48 jobs, 20 files
    of ~427 MB each).

    The per-byte compute volume keeps the paper's bottleneck structure:
    jobs are compute-bound on FCFN, WAN-bound at low ICD on the SN
    platforms and HDD-bound on the SC platforms.
    """
    return WorkloadSpec(
        n_jobs=48, files_per_job=20, file_size=constant(427 * MB), flops_per_byte=constant(8.0)
    )


def bench_scale() -> WorkloadSpec:
    """The scaled-down workload used by the examples (12 jobs, 10 files
    each) — same structure, ~15x fewer simulated activities.

    The per-byte compute volume is scaled with the per-node job concurrency
    (6 jobs on the largest node instead of 24) so that the ratio between
    the compute time and the per-node shared I/O times — and therefore the
    bottleneck structure of every platform — is preserved.
    """
    return WorkloadSpec(
        n_jobs=12, files_per_job=10, file_size=constant(427 * MB), flops_per_byte=constant(2.0)
    )


def calib_scale() -> WorkloadSpec:
    """The smallest workload that preserves the case-study phenomenology
    (8 jobs on a 2+2+4-core site, 10 files per job).  This is what the
    calibration benchmarks use so that hundreds of simulator invocations
    fit in a few seconds; the compute volume is again scaled with the
    per-node concurrency (see :func:`bench_scale`)."""
    return WorkloadSpec(
        n_jobs=8, files_per_job=10, file_size=constant(427 * MB), flops_per_byte=constant(0.9)
    )


def tiny_scale() -> WorkloadSpec:
    """A tiny workload for unit tests (4 jobs, 4 files each)."""
    return WorkloadSpec(
        n_jobs=4, files_per_job=4, file_size=constant(427 * MB), flops_per_byte=constant(0.7)
    )


def make_workload(spec: WorkloadSpec) -> list[JobSpec]:
    """Instantiate the workload: one :class:`JobSpec` per job.

    File sizes / compute volumes are sampled from the spec's distributions
    using a dedicated RNG seeded with ``spec.seed`` so that workload
    generation is reproducible and independent of any other random stream.
    """
    rng = np.random.default_rng(spec.seed)
    jobs: list[JobSpec] = []
    shared_files: list[DataFile] | None = None
    if spec.shared_input_files:
        shared_files = [
            DataFile(f"input_{i:04d}", spec.file_size.sample(rng))
            for i in range(spec.files_per_job)
        ]
    for j in range(spec.n_jobs):
        if shared_files is not None:
            inputs = list(shared_files)
        else:
            inputs = [
                DataFile(f"job{j:03d}_input_{i:04d}", spec.file_size.sample(rng))
                for i in range(spec.files_per_job)
            ]
        output = DataFile(f"job{j:03d}_output", spec.output_size.sample(rng))
        jobs.append(
            JobSpec(
                name=f"job{j:03d}",
                input_files=tuple(inputs),
                flops_per_byte=spec.flops_per_byte.sample(rng),
                output_file=output,
            )
        )
    return jobs


def cached_file_count(files_per_job: int, icd: float) -> int:
    """Number of a job's input files that start out in the node-local cache.

    The paper's ICD (Initially Cached Data) parameter is the fraction of
    input files initially present in the compute-node caches; we round to
    the nearest whole file, clamping to [0, files_per_job].
    """
    if not 0.0 <= icd <= 1.0:
        raise ValueError(f"ICD must be in [0, 1], got {icd}")
    return min(files_per_job, max(0, int(round(icd * files_per_job))))


def unique_input_files(jobs: Sequence[JobSpec]) -> list[DataFile]:
    """All distinct input files of a workload."""
    seen = {}
    for job in jobs:
        for file in job.input_files:
            seen[file.name] = file
    return list(seen.values())
