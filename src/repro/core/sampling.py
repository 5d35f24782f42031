"""Experimental-design sampling utilities.

The calibration algorithms sample the normalised (log2) unit cube in
different ways; this module collects the samplers themselves so that they
can be reused outside the algorithms — for building initial designs,
probing the objective landscape (sensitivity analysis), or generating the
candidate pools of model-based optimizers.

All samplers return arrays of shape ``(n, dimension)`` with entries in
``[0, 1]``; use :meth:`repro.core.parameters.ParameterSpace.from_unit_array`
to convert rows to parameter-value dictionaries.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from repro.core.parameters import ParameterSpace

__all__ = [
    "uniform_design",
    "latin_hypercube_design",
    "sobol_design",
    "halton_design",
    "full_factorial_design",
    "star_design",
    "SAMPLERS",
    "get_sampler",
    "design_to_values",
]


def uniform_design(dimension: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` points sampled uniformly at random in the unit cube."""
    _check(dimension, n)
    return rng.uniform(0.0, 1.0, size=(n, dimension))


def latin_hypercube_design(dimension: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` points of a random Latin hypercube (one point per stratum and
    dimension)."""
    _check(dimension, n)
    design = np.empty((n, dimension))
    for d in range(dimension):
        design[:, d] = (rng.permutation(n) + rng.uniform(0.0, 1.0, size=n)) / n
    return design


def sobol_design(dimension: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` points of a scrambled Sobol sequence.

    Sobol sequences are balanced in blocks of powers of two, so the sampler
    draws the next power-of-two block and returns its first ``n`` points
    (avoiding scipy's balance warning for odd sizes).
    """
    from scipy.stats import qmc  # 0.8 s to import: only these two designs pay it

    _check(dimension, n)
    sampler = qmc.Sobol(d=dimension, scramble=True, seed=rng)
    block = 1 << (int(n - 1).bit_length() if n > 1 else 0)
    return sampler.random(block)[:n]


def halton_design(dimension: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` points of a scrambled Halton sequence."""
    from scipy.stats import qmc

    _check(dimension, n)
    sampler = qmc.Halton(d=dimension, scramble=True, seed=rng)
    return sampler.random(n)


def full_factorial_design(dimension: int, levels: int) -> np.ndarray:
    """A full factorial grid with ``levels`` evenly spaced levels per
    dimension (``levels ** dimension`` points)."""
    if levels < 2:
        raise ValueError("a factorial design needs at least 2 levels")
    axis = np.linspace(0.0, 1.0, levels)
    mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def star_design(center: np.ndarray, delta: float) -> np.ndarray:
    """A one-at-a-time "star" around ``center``: the center plus two points
    per dimension offset by ``+/- delta`` (clipped to the box).

    This is the design behind the one-at-a-time sensitivity analysis of
    :mod:`repro.core.sensitivity`.
    """
    center = np.clip(np.asarray(center, dtype=float), 0.0, 1.0)
    if center.ndim != 1:
        raise ValueError("the center must be a 1-D point")
    if delta <= 0:
        raise ValueError("delta must be positive")
    points: list[np.ndarray] = [center]
    for i in range(center.size):
        for direction in (+1.0, -1.0):
            point = np.array(center, copy=True)
            point[i] = min(max(point[i] + direction * delta, 0.0), 1.0)
            points.append(point)
    return np.array(points)


def _check(dimension: int, n: int) -> None:
    if dimension < 1:
        raise ValueError("the dimension must be at least 1")
    if n < 1:
        raise ValueError("the number of samples must be at least 1")


#: Registry of random designs (factorial and star designs have different
#: signatures and are not included).
SAMPLERS: dict[str, Callable[[int, int, np.random.Generator], np.ndarray]] = {
    "uniform": uniform_design,
    "lhs": latin_hypercube_design,
    "sobol": sobol_design,
    "halton": halton_design,
}


def get_sampler(name: str) -> Callable[[int, int, np.random.Generator], np.ndarray]:
    """Look up a sampler by name (``uniform``, ``lhs``, ``sobol``, ``halton``)."""
    try:
        return SAMPLERS[name.lower()]
    except KeyError:
        raise KeyError(f"unknown sampler {name!r}; available: {sorted(SAMPLERS)}") from None


def design_to_values(space: ParameterSpace, design: Iterable[np.ndarray]) -> list[dict[str, float]]:
    """Convert unit-cube design rows to parameter-value dictionaries."""
    return [space.from_unit_array(np.clip(row, 0.0, 1.0)) for row in design]
