"""Job descriptions and results.

A :class:`JobSpec` describes one job of the case-study workload: a set of
input files, a computation volume expressed in flops per input byte, and an
output file.  A :class:`Job` is a spec plus runtime bookkeeping, and a
:class:`JobResult` records what the simulation measured for it — the
quantities from which the paper's 33 accuracy metrics (average job
execution time per node per ICD value) are derived.
"""

from __future__ import annotations

import dataclasses

from repro.wrench.files import DataFile


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """Static description of a job."""

    name: str
    input_files: tuple
    flops_per_byte: float
    output_file: DataFile | None = None
    flops_baseline: float = 0.0

    def with_name(self, name: str) -> JobSpec:
        return dataclasses.replace(self, name=name)


class Job:
    """A job instance: a spec plus runtime state."""

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.node_name: str | None = None
        self.submit_time: float | None = None
        self.start_time: float | None = None
        self.end_time: float | None = None
        self.bytes_from_cache: float = 0.0
        self.bytes_from_remote: float = 0.0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def execution_time(self) -> float:
        """Time between job start and completion (seconds)."""
        if self.start_time is None or self.end_time is None:
            raise ValueError(f"job {self.name!r} has not completed")
        return self.end_time - self.start_time

    def to_result(self) -> JobResult:
        return JobResult(
            name=self.name,
            node_name=self.node_name or "",
            submit_time=self.submit_time or 0.0,
            start_time=self.start_time or 0.0,
            end_time=self.end_time or 0.0,
            bytes_from_cache=self.bytes_from_cache,
            bytes_from_remote=self.bytes_from_remote,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Job {self.name!r} node={self.node_name!r}>"


@dataclasses.dataclass(frozen=True)
class JobResult:
    """Immutable record of one simulated (or ground-truth) job execution."""

    name: str
    node_name: str
    submit_time: float
    start_time: float
    end_time: float
    bytes_from_cache: float = 0.0
    bytes_from_remote: float = 0.0

    @property
    def execution_time(self) -> float:
        return self.end_time - self.start_time

    def to_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict[str, float]) -> JobResult:
        return JobResult(**data)


def group_by_node(results: list[JobResult]) -> dict[str, list[JobResult]]:
    """Group job results by the compute node that executed them."""
    grouped: dict[str, list[JobResult]] = {}
    for result in results:
        grouped.setdefault(result.node_name, []).append(result)
    return grouped


def average_execution_time(results: list[JobResult]) -> float:
    """Average job execution time over a list of results."""
    if not results:
        raise ValueError("cannot average an empty list of job results")
    return sum(r.execution_time for r in results) / len(results)
