"""The calibratable case-study simulator.

:class:`HEPSimulator` reproduces the behaviour of the paper's C++
WRENCH/SimGrid simulator: given a scenario (platform configuration,
workload, ICD values, block size ``B`` and buffer size ``b``) and a set of
calibration parameter values, it simulates the execution of the workload
and produces an :class:`~repro.hepsim.trace.ExecutionTrace`.

Execution model (per job, one core per job):

* the job iterates over its input files; each file is processed block by
  block (block size ``B``);
* a block is served either from the node's page cache (if the platform
  enables it and the file is initially cached), from the node-local HDD
  cache (initially cached, page cache disabled), or fetched from the
  remote storage site over LAN+WAN, streamed through the storage-service
  buffer (``b`` bytes per pipelined chunk) and ingested into the node's
  cache (RAM if the page cache is enabled, HDD otherwise);
* reading block *i+1* overlaps with computing on block *i* (two-stage
  pipeline), and the computation volume is ``flops_per_byte`` work units
  per input byte;
* at the end, the job writes its output file back to remote storage.

The number of simulated activities per job is ``O(s/B + s/b)`` for ``s``
input bytes, which is exactly the granularity/cost trade-off the paper
studies in Section IV.C.4.

The optional :class:`RealismModel` hook is used by the ground-truth
reference system (:mod:`repro.hepsim.groundtruth`) to add effects that the
calibratable simulator deliberately does not capture (HDD seeks and
contention degradation, per-job noise).
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Sequence

from repro.hepsim.platforms import BuiltPlatform, CalibrationValues, build_platform
from repro.hepsim.scenario import Scenario
from repro.hepsim.trace import ExecutionTrace
from repro.hepsim.workload import cached_file_count, make_workload
from repro.telemetry.profiling import SimulationProfile, simulation_profiling_enabled
from repro.simgrid.network import communicate
from repro.simgrid.process import AllOf
from repro.wrench.compute import BareMetalComputeService
from repro.wrench.jobs import Job, JobResult, JobSpec
from repro.wrench.scheduler import FCFSScheduler

__all__ = ["HEPSimulator", "RealismModel"]


class RealismModel:
    """Hooks that let the ground-truth reference system deviate from the
    idealised calibratable model.  The default implementation is a no-op
    (the calibratable simulator behaviour)."""

    #: per-operation HDD latencies (seek time); 0 for the calibratable model
    disk_read_latency: float = 0.0
    disk_write_latency: float = 0.0

    def begin_run(self, platform_name: str, icd: float) -> None:
        """Called before each per-ICD execution (e.g. to reseed noise)."""

    def compute_factor(self, job_name: str) -> float:
        """Multiplicative factor applied to a job's computation volume."""
        return 1.0

    def disk_read_inflation(self, concurrent_operations: int) -> float:
        """Multiplicative factor applied to HDD read volumes under load."""
        return 1.0

    def disk_write_inflation(self, concurrent_operations: int) -> float:
        """Multiplicative factor applied to HDD write volumes under load."""
        return 1.0


class _RunContext:
    """Everything a job body needs for one per-ICD execution."""

    __slots__ = (
        "built",
        "icd",
        "block_size",
        "buffer_size",
        "page_cache_enabled",
        "realism",
        "wan_route",
    )

    def __init__(
        self,
        built: BuiltPlatform,
        icd: float,
        block_size: float,
        buffer_size: float,
        page_cache_enabled: bool,
        realism: RealismModel | None,
    ) -> None:
        self.built = built
        self.icd = icd
        self.block_size = block_size
        self.buffer_size = buffer_size
        self.page_cache_enabled = page_cache_enabled
        self.realism = realism
        self.wan_route = [built.lan_link, built.wan_link]


class HEPSimulator:
    """Simulator of the case-study workload on the Figure 1 platform."""

    def __init__(self, scenario: Scenario, realism: RealismModel | None = None) -> None:
        self.scenario = scenario
        self.realism = realism
        self._jobs: list[JobSpec] = make_workload(scenario.workload)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def simulate(
        self, values: CalibrationValues, icd: float
    ) -> tuple[list[JobResult], dict[str, float]]:
        """Simulate one execution of the workload at the given ICD value.

        Returns the per-job results and a statistics dictionary with the
        simulated makespan, the number of simulated activities and the
        wall-clock time the simulation took (the quantity Table VI trades
        off against accuracy).

        When simulator profiling is enabled (see
        :func:`repro.telemetry.profiling.enable_simulation_profiling`), a
        :class:`~repro.telemetry.profiling.SimulationProfile` is attached
        to the engine and its per-phase wall-clock/event attribution is
        folded into the statistics as flat ``phase_<name>_seconds`` /
        ``phase_<name>_count`` floats — flat so the stats dict stays
        picklable through process pools unchanged.
        """
        wall_start = time.perf_counter()
        realism = self.realism
        if realism is not None:
            realism.begin_run(self.scenario.platform_name, icd)
        built = build_platform(
            self.scenario.config,
            values,
            nodes=self.scenario.nodes,
            disk_read_latency=realism.disk_read_latency if realism else 0.0,
            disk_write_latency=realism.disk_write_latency if realism else 0.0,
        )
        context = _RunContext(
            built=built,
            icd=icd,
            block_size=self.scenario.block_size,
            buffer_size=self.scenario.buffer_size,
            page_cache_enabled=self.scenario.config.page_cache_enabled,
            realism=realism,
        )

        compute_services = [
            BareMetalComputeService(f"cs_{host.name}", host) for host in built.compute_hosts
        ]
        scheduler = FCFSScheduler(compute_services)
        # Every job's body is ``_execute_job`` itself: a resumed job process
        # passes through no generator frame of ours on the way to it.
        body = functools.partial(self._execute_job, context=context)
        for spec in self._jobs:
            scheduler.submit(spec, lambda job: body)

        profile = SimulationProfile() if simulation_profiling_enabled() else None
        built.platform.engine.profile = profile
        built.platform.engine.run()

        results = [job.to_result() for service in compute_services for job in service.completed_jobs]
        results.sort(key=lambda r: (r.node_name, r.name))
        wall_time = time.perf_counter() - wall_start
        stats = {
            "wall_time": wall_time,
            "events": float(built.platform.engine.completed_activity_count),
            "sharing_updates": float(built.platform.engine.sharing_update_count),
            "simulated_makespan": max(r.end_time for r in results) if results else 0.0,
        }
        if profile is not None:
            stats.update(profile.to_dict())
        return results, stats

    def run_trace(
        self,
        values: CalibrationValues,
        icd_values: Sequence[float] | None = None,
    ) -> ExecutionTrace:
        """Simulate the workload for every ICD value and return the trace."""
        icds = list(icd_values) if icd_values is not None else list(self.scenario.icd_values)
        trace = ExecutionTrace(self.scenario.platform_name, self.scenario.node_names)
        for icd in icds:
            results, stats = self.simulate(values, icd)
            trace.add_run(icd, results, stats)
        return trace

    # ------------------------------------------------------------------ #
    # job execution model
    # ------------------------------------------------------------------ #
    def _execute_job(self, job: Job, host, context: _RunContext):
        """The job's process: read or fetch every block of every input file,
        compute on it (overlapping the next block's I/O), write the output.

        Activity names are ``str.format`` parts (see
        :data:`repro.simgrid.activity.ActivityName`), formatted only if read.
        """
        built = context.built
        realism = context.realism
        engine = built.platform.engine
        disk = built.node_disks[host.name]
        memory = built.node_memories[host.name]
        remote_disk = built.remote_disk
        wan_route = context.wan_route
        page_cache_enabled = context.page_cache_enabled
        spec = job.spec
        name = job.name
        block_size = context.block_size
        buffer_size = context.buffer_size
        cached = cached_file_count(len(spec.input_files), context.icd)
        compute_factor = realism.compute_factor(name) if realism else 1.0
        flops_per_byte = spec.flops_per_byte

        previous_compute = None
        for file_index, data_file in enumerate(spec.input_files):
            from_cache = file_index < cached
            n_blocks = max(1, int(math.ceil(data_file.size / block_size)))
            for block_index in range(n_blocks):
                block = min(block_size, data_file.size - block_index * block_size)
                if block <= 0:
                    continue
                if from_cache:
                    # The block is initially in the node-local cache.
                    if page_cache_enabled:
                        yield memory.read_async(
                            ("{}:f{}:b{}:pc-read", name, file_index, block_index), block
                        )
                    else:
                        amount = block
                        if realism is not None:
                            amount *= realism.disk_read_inflation(disk.resource.load)
                        yield disk.read_async(
                            ("{}:f{}:b{}:hdd-read", name, file_index, block_index), amount
                        )
                    job.bytes_from_cache += block
                else:
                    # Fetch it from the remote storage site, streamed through
                    # the storage-service buffer and ingested into the cache.
                    remaining = block
                    chunk_index = 0
                    while remaining > 1e-6:
                        chunk = min(buffer_size, remaining)
                        at = (name, file_index, block_index, chunk_index)
                        stages = [
                            remote_disk.read_async(("{}:f{}:b{}:c{}:remote-read", *at), chunk),
                            communicate(("{}:f{}:b{}:c{}:wan", *at), chunk, wan_route),
                        ]
                        if page_cache_enabled:
                            stages.append(
                                memory.write_async(("{}:f{}:b{}:c{}:pc-ingest", *at), chunk)
                            )
                        else:
                            amount = chunk
                            if realism is not None:
                                amount *= realism.disk_write_inflation(disk.resource.load)
                            stages.append(
                                disk.write_async(("{}:f{}:b{}:c{}:hdd-ingest", *at), amount)
                            )
                        yield AllOf(stages)
                        remaining -= chunk
                        chunk_index += 1
                    job.bytes_from_remote += block
                # Two-stage pipeline: wait for the previous block's compute
                # (if still running) before computing on this block.
                if previous_compute is not None and not previous_compute.is_terminated:
                    yield previous_compute
                flops = block * flops_per_byte * compute_factor
                previous_compute = engine.start_activity(
                    host.exec_async(("{}:f{}:b{}:compute", name, file_index, block_index), flops)
                )

        if previous_compute is not None and not previous_compute.is_terminated:
            yield previous_compute

        # Write the (small) output file back to the remote storage site.
        output = spec.output_file
        if output is not None and output.size > 0:
            yield AllOf(
                [
                    communicate(f"{name}:output", output.size, wan_route),
                    remote_disk.write_async(f"{name}:output:write", output.size),
                ]
            )
