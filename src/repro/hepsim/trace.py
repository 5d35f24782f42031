"""Execution traces and the accuracy metrics derived from them.

The paper's accuracy metric is the Mean Relative Error over 33 quantities:
the average job execution time on each of the 3 compute nodes, for each of
the 11 ICD values.  An :class:`ExecutionTrace` stores the per-job results
of one workload execution per ICD value (either simulated or ground truth)
and knows how to aggregate them into that metric vector; the generic error
computations live in :mod:`repro.core.metrics`.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence

from repro.wrench.jobs import JobResult, average_execution_time, group_by_node

__all__ = ["ExecutionTrace", "MetricKey"]

#: A metric is identified by (node name, ICD value).
MetricKey = tuple[str, float]


def _round_icd(icd: float) -> float:
    """Normalise ICD keys so that 0.30000000004 and 0.3 are the same run."""
    return round(float(icd), 6)


class ExecutionTrace:
    """Per-ICD job results of one workload execution on one platform."""

    def __init__(self, platform_name: str, node_names: Sequence[str]) -> None:
        self.platform_name = platform_name
        self.node_names: list[str] = list(node_names)
        self._runs: dict[float, list[JobResult]] = {}
        self._stats: dict[float, dict[str, float]] = {}

    # ------------------------------------------------------------------ #
    # population
    # ------------------------------------------------------------------ #
    def add_run(
        self,
        icd: float,
        results: Sequence[JobResult],
        stats: dict[str, float] | None = None,
    ) -> None:
        """Record the job results of the execution at one ICD value."""
        if not results:
            raise ValueError("cannot record an empty execution")
        self._runs[_round_icd(icd)] = list(results)
        if stats:
            self._stats[_round_icd(icd)] = dict(stats)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @property
    def icd_values(self) -> list[float]:
        return sorted(self._runs)

    def results(self, icd: float) -> list[JobResult]:
        return list(self._runs[_round_icd(icd)])

    def stats(self, icd: float) -> dict[str, float]:
        return dict(self._stats.get(_round_icd(icd), {}))

    def total_simulation_wall_time(self) -> float:
        """Sum of the recorded wall-clock simulation times (seconds)."""
        return sum(s.get("wall_time", 0.0) for s in self._stats.values())

    def total_events(self) -> int:
        """Sum of the recorded simulated-event counts: the execution's cost
        in the paper's model, O(s/B + s/b) per job."""
        return int(sum(s.get("events", 0.0) for s in self._stats.values()))

    # ------------------------------------------------------------------ #
    # aggregate metrics
    # ------------------------------------------------------------------ #
    def average_job_time(self, node: str, icd: float) -> float:
        """Average job execution time on ``node`` for the run at ``icd``."""
        grouped = group_by_node(self._runs[_round_icd(icd)])
        if node not in grouped:
            raise KeyError(f"no job ran on node {node!r} at ICD {icd}")
        return average_execution_time(grouped[node])

    def metrics(
        self,
        nodes: Iterable[str] | None = None,
        icds: Iterable[float] | None = None,
    ) -> dict[MetricKey, float]:
        """The paper's metric dictionary: (node, ICD) -> average job time.

        With the paper's 3 nodes and 11 ICD values this has 33 entries.
        """
        nodes = list(nodes) if nodes is not None else list(self.node_names)
        icds = [_round_icd(i) for i in icds] if icds is not None else self.icd_values
        metrics: dict[MetricKey, float] = {}
        for icd in icds:
            if icd not in self._runs:
                raise KeyError(f"trace has no run at ICD {icd}")
            grouped = group_by_node(self._runs[icd])
            for node in nodes:
                if node not in grouped:
                    raise KeyError(f"no job ran on node {node!r} at ICD {icd}")
                metrics[(node, icd)] = average_execution_time(grouped[node])
        return metrics

    # ------------------------------------------------------------------ #
    # (de)serialisation — used to cache ground-truth traces on disk
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "platform_name": self.platform_name,
            "node_names": self.node_names,
            "runs": {
                str(icd): [r.to_dict() for r in results] for icd, results in self._runs.items()
            },
            "stats": {str(icd): stats for icd, stats in self._stats.items()},
        }

    @staticmethod
    def from_dict(data: dict) -> ExecutionTrace:
        trace = ExecutionTrace(data["platform_name"], data["node_names"])
        for icd_str, results in data["runs"].items():
            trace._runs[_round_icd(float(icd_str))] = [JobResult.from_dict(r) for r in results]
        for icd_str, stats in data.get("stats", {}).items():
            trace._stats[_round_icd(float(icd_str))] = dict(stats)
        return trace

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(text: str) -> ExecutionTrace:
        return ExecutionTrace.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<ExecutionTrace {self.platform_name!r} icds={len(self._runs)} "
            f"nodes={self.node_names}>"
        )
