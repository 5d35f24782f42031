"""Calibration parameters and parameter spaces.

Following Section III.A of the paper, every parameter has a user-specified
range ``[low, high]`` and is, by default, represented logarithmically: the
search algorithms operate on ``x in [log2 low, log2 high]`` (normalised to
the unit interval) and the simulator receives ``2**x``.  This guarantees a
good diversity of orders of magnitude within wide ranges such as the
``2**20 .. 2**36`` range the case study uses for all of its parameters.
A linear representation is also available (used by the sampling-ablation
benchmark).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator, Mapping, Sequence

import numpy as np

__all__ = ["Parameter", "ParameterSpace"]


@dataclasses.dataclass(frozen=True)
class Parameter:
    """One calibration parameter.

    Attributes
    ----------
    name:
        Identifier used in the value dictionaries passed to the simulator.
    low, high:
        Inclusive range bounds (in the simulator's units).
    scale:
        ``"log2"`` (default, the paper's representation) or ``"linear"``.
    unit:
        Free-form unit string used only for reporting.
    integer:
        If true, values are rounded to the nearest integer before being
        handed to the simulator (e.g. "maximum number of connections").
    """

    name: str
    low: float
    high: float
    scale: str = "log2"
    unit: str = ""
    integer: bool = False
    #: ``log2(low)`` and ``log2(high) - log2(low)`` of a log2 parameter,
    #: derived once here rather than on every transform
    _log2_low: float = dataclasses.field(init=False, repr=False, compare=False)
    _log2_span: float = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise ValueError(f"parameter {self.name!r}: low={self.low} must be < high={self.high}")
        if self.scale not in ("log2", "linear"):
            raise ValueError(f"parameter {self.name!r}: unknown scale {self.scale!r}")
        if self.scale == "log2" and self.low <= 0:
            raise ValueError(f"parameter {self.name!r}: log2 scale requires positive bounds")
        if self.scale == "log2":
            lo = math.log2(self.low)
            object.__setattr__(self, "_log2_low", lo)
            object.__setattr__(self, "_log2_span", math.log2(self.high) - lo)

    def __getstate__(self) -> dict[str, object]:
        # The declared inputs only, so pickles are what they were before
        # the log2 bounds were derived; __setstate__ derives them again.
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.init}

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    # ------------------------------------------------------------------ #
    # unit-interval transform
    # ------------------------------------------------------------------ #
    def to_unit(self, value: float) -> float:
        """Map a parameter value to the normalised search coordinate in [0, 1]."""
        value = min(max(float(value), self.low), self.high)  # clip(), inlined: hot path
        if self.scale == "log2":
            return (math.log2(value) - self._log2_low) / self._log2_span
        return (value - self.low) / (self.high - self.low)

    def from_unit(self, x: float) -> float:
        """Map a normalised search coordinate in [0, 1] to a parameter value."""
        x = min(max(float(x), 0.0), 1.0)
        if self.scale == "log2":
            value = 2.0 ** (self._log2_low + x * self._log2_span)
        else:
            value = self.low + x * (self.high - self.low)
        if self.integer:
            value = float(round(value))
        return min(max(value, self.low), self.high)  # clip(), inlined: hot path

    def clip(self, value: float) -> float:
        """Clamp a value to the parameter range."""
        return min(max(float(value), self.low), self.high)

    def grid(self, n: int) -> list[float]:
        """``n`` evenly spaced values across the range (in the search scale)."""
        if n < 1:
            raise ValueError("grid size must be >= 1")
        if n == 1:
            return [self.from_unit(0.5)]
        return [self.from_unit(i / (n - 1)) for i in range(n)]

    def __str__(self) -> str:
        return f"{self.name} in [{self.low:g}, {self.high:g}] ({self.scale}{' ' + self.unit if self.unit else ''})"


class ParameterSpace:
    """An ordered collection of :class:`Parameter`."""

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        if not parameters:
            raise ValueError("a parameter space needs at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        self._parameters: list[Parameter] = list(parameters)
        self._by_name: dict[str, Parameter] = {p.name: p for p in parameters}

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        return len(self._parameters)

    @property
    def names(self) -> list[str]:
        return [p.name for p in self._parameters]

    @property
    def parameters(self) -> list[Parameter]:
        return list(self._parameters)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._parameters)

    def __len__(self) -> int:
        return len(self._parameters)

    def __getitem__(self, name: str) -> Parameter:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    # ------------------------------------------------------------------ #
    # conversions between value dictionaries and unit-cube arrays
    # ------------------------------------------------------------------ #
    def to_unit_array(self, values: Mapping[str, float]) -> np.ndarray:
        """Convert a name->value mapping to normalised coordinates."""
        return np.array([p.to_unit(values[p.name]) for p in self._parameters], dtype=float)

    def from_unit_array(self, x: Sequence[float]) -> dict[str, float]:
        """Convert normalised coordinates to a name->value mapping."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"expected {self.dimension} coordinates, got shape {x.shape}")
        return {p.name: p.from_unit(u) for p, u in zip(self._parameters, x.tolist(), strict=True)}

    def clip_unit(self, x: Sequence[float]) -> np.ndarray:
        """Clamp normalised coordinates to the unit cube."""
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def sample_unit(self, rng: np.random.Generator) -> np.ndarray:
        """One uniform sample in the unit cube (i.e. log-uniform values)."""
        return rng.uniform(0.0, 1.0, size=self.dimension)

    def sample(self, rng: np.random.Generator) -> dict[str, float]:
        """One uniform sample as a value dictionary."""
        return self.from_unit_array(self.sample_unit(rng))

    def describe(self) -> str:
        return "\n".join(str(p) for p in self._parameters)

    def subset(self, names: Sequence[str]) -> ParameterSpace:
        """A new space restricted to the named parameters (keeps order)."""
        missing = [n for n in names if n not in self._by_name]
        if missing:
            raise KeyError(f"unknown parameters {missing}")
        return ParameterSpace([self._by_name[n] for n in names])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<ParameterSpace {self.names}>"
