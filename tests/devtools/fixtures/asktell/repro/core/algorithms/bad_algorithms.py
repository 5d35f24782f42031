"""Known-bad fixture for RPL401/RPL402: ask/tell conformance.

Never imported — parsed by reprolint only.
"""
from repro.core.algorithms.base import CalibrationAlgorithm


class Incomplete(CalibrationAlgorithm):
    """RPL401: missing hooks and `name`, overrides the final ask()."""

    def ask(self, rng, n=1):  # RPL401: final protocol override
        return []

    def _generate(self, rng, n):
        return []


class BadAsync(CalibrationAlgorithm):
    """RPL402: claims the async ledger but breaks its contract."""

    name = "bad-async"
    supports_async_tell = True

    def _setup(self, space):
        pass

    def _generate(self, rng, n):
        return []

    def _tell_impl(self, candidates, values):  # RPL402: ledger override
        pass


class Replayable(CalibrationAlgorithm):
    """Clean: ``_setup``/``_generate`` are the whole required surface —
    no state hooks, since a run resumes by replaying its tell log."""

    name = "replayable"
    supports_async_tell = True

    def _setup(self):
        pass

    def _generate(self, rng, n):
        return []
