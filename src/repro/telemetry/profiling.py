"""Simulator hot-path profiling: wall-clock and event counts per phase.

The discrete-event engine's main loop has three phases, and a change to
the simulator's hot path names the one it moves (ROADMAP item 2; the
measured split is in ``docs/architecture.md``, "the measured shape of the
loop"):

* ``sharing`` — ``_update_rates``: from each dirty resource to its
  connected component (its user list when every user uses that resource
  alone, a walk otherwise), the look-up of the component among those the
  run already solved, and the max-min solve of those it has not met;
* ``advance`` — clock advancement plus completion scanning and firing,
  which runs the waiters of each completed activity: the resumed job
  processes, their next activities' creation and start;
* ``timers`` — timer-heap pops and their callbacks: process start-ups and
  activities leaving their latency phase.

A :class:`SimulationProfile` is attached to a
:class:`~repro.simgrid.engine.SimulationEngine` via its ``profile``
attribute; the loop then adds ``(seconds, count)`` per phase with plain
``perf_counter`` arithmetic, guarded by ``if profile is not None`` — no
profile attached, no cost.

:class:`~repro.hepsim.simulator.HEPSimulator` attaches a fresh profile
to every engine it builds when the module-global flag is on (see
:func:`enable_simulation_profiling`) and folds the result into its
per-run ``stats`` dict as ``phase_<name>_seconds`` / ``phase_<name>_count``
float entries.  Flat floats — rather than the profile object — keep the
stats dict picklable through process pools unchanged; note the flag
itself only propagates to pool workers under the (Linux default) fork
start method, so process-pooled runs profile on forked workers but a
spawn-based platform would need the flag set per worker.
"""

from __future__ import annotations


__all__ = [
    "SimulationProfile",
    "enable_simulation_profiling",
    "disable_simulation_profiling",
    "simulation_profiling_enabled",
]


class SimulationProfile:
    """Accumulates wall-clock seconds and event counts per engine phase.

    Single-engine, single-thread use (an engine runs on one thread), so
    no locking: ``add`` is two dict writes.
    """

    __slots__ = ("phases",)

    def __init__(self) -> None:
        self.phases: dict[str, tuple[float, int]] = {}

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Attribute ``seconds`` of wall-clock (and ``count`` events) to
        phase ``name``."""
        seconds_total, count_total = self.phases.get(name, (0.0, 0))
        self.phases[name] = (seconds_total + seconds, count_total + count)

    def seconds(self, name: str) -> float:
        return self.phases.get(name, (0.0, 0))[0]

    def count(self, name: str) -> int:
        return self.phases.get(name, (0.0, 0))[1]

    def to_dict(self) -> dict[str, float]:
        """Flatten to ``phase_<name>_seconds`` / ``phase_<name>_count``
        float entries (the shape merged into simulator stats dicts)."""
        out: dict[str, float] = {}
        for name, (seconds, count) in sorted(self.phases.items()):
            out[f"phase_{name}_seconds"] = seconds
            out[f"phase_{name}_count"] = float(count)
        return out


_PROFILING_ENABLED = False


def enable_simulation_profiling() -> None:
    """Make simulator wrappers attach a :class:`SimulationProfile` to
    every engine they build."""
    global _PROFILING_ENABLED
    _PROFILING_ENABLED = True


def disable_simulation_profiling() -> None:
    """Stop attaching profiles to newly built engines."""
    global _PROFILING_ENABLED
    _PROFILING_ENABLED = False


def simulation_profiling_enabled() -> bool:
    """Whether simulator wrappers should attach profiles."""
    return _PROFILING_ENABLED
