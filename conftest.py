"""Repository-level pytest configuration.

Ensures the ``src`` layout is importable even when the package has not been
installed in the current environment (e.g. running ``pytest`` straight from
a fresh checkout on an offline machine).
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest  # noqa: E402


@pytest.fixture
def scripted():
    """Factory for an algorithm proposing a fixed list of points in order.

    ``scripted(space, points)`` takes parameter-value mappings (or raw
    unit-cube arrays, which the driver clips) and proposes one per ask
    until the list runs out; every value the driver tells back lands in
    ``.told``, in ask order — a test's handle on what each candidate
    evaluated to.
    """
    import numpy as np

    from repro.core.algorithms import CalibrationAlgorithm

    class Scripted(CalibrationAlgorithm):
        name = "scripted"

        def __init__(self, space, points):
            super().__init__()
            self.units = [
                space.to_unit_array(p) if isinstance(p, dict) else np.asarray(p, float)
                for p in points
            ]
            self.told = []

        def _setup(self):
            self._next = 0

        def _generate(self, rng, n):
            if self._next == len(self.units):
                return None
            self._next += 1
            return [self.units[self._next - 1]]

        def _observe(self, candidates, values):
            self.told.extend(values)

    return Scripted
