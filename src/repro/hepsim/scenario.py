"""Scenarios: everything that defines one calibration case study.

A :class:`Scenario` bundles the platform configuration (Table II), the
workload, the compute-site size, the set of ICD values for which
ground-truth data exists, and the simulation granularity (the XRootD block
size ``B`` and the storage-service buffer size ``b`` of Section IV.C.4).

Three site scales are provided:

* ``paper`` — the paper's exact dimensions (48 jobs on 12+12+24 cores,
  20 files of 427 MB per job);
* ``bench`` — a scaled-down site (12 jobs on 3+3+6 cores, 10 files per
  job) with the same 1:1:2 node shape and the same bottleneck structure,
  used by the test suite and the benchmark harness so that hundreds of
  simulator invocations fit in seconds;
* ``tiny`` — a minimal site for unit tests.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.hepsim.platforms import (
    BENCH_NODES,
    CALIB_NODES,
    PAPER_NODES,
    PLATFORM_CONFIGS,
    TINY_NODES,
    NodeSpec,
    PlatformConfig,
)
from repro.hepsim.workload import (
    WorkloadSpec,
    bench_scale,
    calib_scale,
    paper_scale,
    tiny_scale,
)

__all__ = ["Scenario", "PAPER_ICD_VALUES", "REDUCED_ICD_VALUES"]

#: The paper's ground-truth ICD grid: 0 to 1 in 0.1 increments (11 values).
PAPER_ICD_VALUES: tuple[float, ...] = tuple(round(i / 10, 1) for i in range(11))

#: The 5-element ICD universe used for the Table V subset study.
REDUCED_ICD_VALUES: tuple[float, ...] = (0.0, 0.3, 0.5, 0.7, 1.0)


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A fully-specified calibration case study."""

    platform_name: str
    workload: WorkloadSpec
    nodes: tuple[NodeSpec, ...] = BENCH_NODES
    icd_values: tuple[float, ...] = PAPER_ICD_VALUES
    block_size: float = 5e8
    buffer_size: float = 1.5e8
    label: str = "bench"

    def __post_init__(self) -> None:
        if self.platform_name not in PLATFORM_CONFIGS:
            raise ValueError(
                f"unknown platform {self.platform_name!r}; expected one of "
                f"{sorted(PLATFORM_CONFIGS)}"
            )
        if self.block_size <= 0 or self.buffer_size <= 0:
            raise ValueError("block size and buffer size must be positive")
        for icd in self.icd_values:
            if not 0.0 <= icd <= 1.0:
                raise ValueError(f"ICD value {icd} outside [0, 1]")

    # ------------------------------------------------------------------ #
    # derived properties
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> PlatformConfig:
        return PLATFORM_CONFIGS[self.platform_name]

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(node.name for node in self.nodes)

    @property
    def total_cores(self) -> int:
        return sum(node.cores for node in self.nodes)

    # ------------------------------------------------------------------ #
    # derivation helpers
    # ------------------------------------------------------------------ #
    def with_icds(self, icd_values: Sequence[float]) -> Scenario:
        """Same scenario restricted to a subset of ICD values (Table V)."""
        return dataclasses.replace(self, icd_values=tuple(icd_values))

    def with_granularity(self, block_size: float, buffer_size: float) -> Scenario:
        """Same scenario at a different simulation granularity (Table VI)."""
        return dataclasses.replace(self, block_size=block_size, buffer_size=buffer_size)

    def with_platform(self, platform_name: str) -> Scenario:
        return dataclasses.replace(self, platform_name=platform_name)

    # ------------------------------------------------------------------ #
    # presets
    # ------------------------------------------------------------------ #
    @staticmethod
    def bench(platform_name: str = "FCSN", icd_values: Sequence[float] = PAPER_ICD_VALUES) -> Scenario:
        """The scaled-down scenario used by tests and benchmarks."""
        return Scenario(
            platform_name=platform_name,
            workload=bench_scale(),
            nodes=BENCH_NODES,
            icd_values=tuple(icd_values),
            label="bench",
        )

    @staticmethod
    def paper(platform_name: str = "FCSN", icd_values: Sequence[float] = PAPER_ICD_VALUES) -> Scenario:
        """The full-size scenario matching the paper's dimensions."""
        return Scenario(
            platform_name=platform_name,
            workload=paper_scale(),
            nodes=PAPER_NODES,
            icd_values=tuple(icd_values),
            block_size=1e9,
            buffer_size=2e8,
            label="paper",
        )

    @staticmethod
    def calib(
        platform_name: str = "FCSN", icd_values: Sequence[float] = PAPER_ICD_VALUES
    ) -> Scenario:
        """The smallest scenario that preserves the case-study phenomenology;
        used by the calibration benchmarks (hundreds of simulator
        invocations per experiment)."""
        return Scenario(
            platform_name=platform_name,
            workload=calib_scale(),
            nodes=CALIB_NODES,
            icd_values=tuple(icd_values),
            block_size=5e8,
            buffer_size=2.5e8,
            label="calib",
        )

    @staticmethod
    def tiny(platform_name: str = "FCSN", icd_values: Sequence[float] = (0.0, 0.5, 1.0)) -> Scenario:
        """A minimal scenario for fast unit tests."""
        return Scenario(
            platform_name=platform_name,
            workload=tiny_scale(),
            nodes=TINY_NODES,
            icd_values=tuple(icd_values),
            block_size=5e8,
            buffer_size=2.5e8,
            label="tiny",
        )

    @staticmethod
    def preset(
        scale: str, platform_name: str = "FCSN", icd_values: Sequence[float] | None = None
    ) -> Scenario:
        """The preset named ``scale`` (``"paper"``, ``"bench"``, ``"calib"``
        or ``"tiny"``), with its own ICD values unless ``icd_values`` are
        given (an empty sequence keeps them too)."""
        factory = _PRESETS.get(scale)
        if factory is None:
            raise ValueError(
                f"unknown scenario scale {scale!r}; expected one of {sorted(_PRESETS)}"
            )
        if not icd_values:
            return factory(platform_name)
        return factory(platform_name, tuple(float(icd) for icd in icd_values))

    def cache_key(self) -> str:
        """A string key identifying the scenario for ground-truth caching."""
        w = self.workload
        return (
            f"{self.platform_name}-{self.label}-j{w.n_jobs}-f{w.files_per_job}"
            f"-s{int(w.file_size.value)}-fpb{w.flops_per_byte.value:g}"
            f"-icd{len(self.icd_values)}"
        )


#: the scale names :meth:`Scenario.preset` accepts
_PRESETS = {
    "paper": Scenario.paper,
    "bench": Scenario.bench,
    "calib": Scenario.calib,
    "tiny": Scenario.tiny,
}
