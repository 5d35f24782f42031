"""Data files.

The case-study workload manipulates immutable input files (~427 MB each)
and small per-job output files.
"""

from __future__ import annotations

from repro.simgrid.errors import SimulationError


class DataFile:
    """An immutable (name, size-in-bytes) pair."""

    __slots__ = ("name", "size")

    def __init__(self, name: str, size: float) -> None:
        if size < 0:
            raise SimulationError(f"file {name!r} cannot have a negative size ({size})")
        self.name = str(name)
        self.size = float(size)

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DataFile) and other.name == self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DataFile({self.name!r}, {self.size:g})"
