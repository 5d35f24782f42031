"""Tree-structured Parzen Estimator (extension).

The sequential model-based optimizer popularised by Hyperopt/Optuna —
exactly the class of tool the paper's conclusion points to for
higher-dimensional calibration problems.  After a warm-up of random
samples, every completed evaluation is split into a "good" set (the best
``gamma`` fraction) and a "bad" set; each set is modelled with a Parzen
(kernel-density) estimator per dimension, a batch of candidates is drawn
from the good-set density, and the candidate maximising the density ratio
``l(x) / g(x)`` (equivalent to maximising expected improvement under the
TPE assumptions) is evaluated next.

The implementation is dependency-free (Gaussian kernels with bandwidths
set by neighbour distances, all in the normalised log2 cube).  The warm-up
is asked as one batch (its samples are independent); after that every ask
is a singleton, since each proposal conditions on all previous results.
"""

from __future__ import annotations


import numpy as np

from repro.core.algorithms.base import CalibrationAlgorithm, register

__all__ = ["TPESearch"]


@register("tpe")
class TPESearch(CalibrationAlgorithm):
    """Tree-structured Parzen Estimator with per-dimension Parzen windows."""

    name = "tpe"
    #: steady-state model-based sampler: every completed result refines the
    #: Parzen model immediately, whatever order results arrive in, and new
    #: proposals can be drawn while older candidates are still in flight
    supports_async_tell = True

    def __init__(
        self,
        warmup: int = 16,
        gamma: float = 0.25,
        candidates_per_step: int = 32,
        min_bandwidth: float = 1e-3,
        max_iterations: int = 10_000_000,
    ) -> None:
        super().__init__()
        if warmup < 2:
            raise ValueError("TPE needs at least 2 warm-up evaluations")
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        self.warmup = int(warmup)
        self.gamma = float(gamma)
        self.candidates_per_step = int(candidates_per_step)
        self.min_bandwidth = float(min_bandwidth)
        self.max_iterations = int(max_iterations)

    # ------------------------------------------------------------------ #
    # Parzen estimator helpers (Gaussian kernels, one row per dimension)
    # ------------------------------------------------------------------ #
    def _bandwidths(self, centers: np.ndarray) -> np.ndarray:
        """Per-kernel bandwidths from the spacing of each row's sorted
        centers; ``centers`` and the result have shape ``(d, k)``."""
        if centers.shape[1] == 1:
            return np.full(centers.shape, 0.25)
        order = np.argsort(centers, axis=1)
        sorted_centers = np.take_along_axis(centers, order, axis=1)
        gaps = np.diff(sorted_centers, axis=1)
        widths = np.empty_like(sorted_centers)
        widths[:, 0] = gaps[:, 0]
        widths[:, -1] = gaps[:, -1]
        widths[:, 1:-1] = np.maximum(gaps[:, :-1], gaps[:, 1:])
        bandwidths = np.empty_like(widths)
        np.put_along_axis(bandwidths, order, np.maximum(widths, self.min_bandwidth), axis=1)
        return bandwidths

    @staticmethod
    def _log_density(
        x: np.ndarray, centers: np.ndarray, bandwidths: np.ndarray
    ) -> np.ndarray:
        """Log density of each row's Parzen mixture at that row's points:
        ``x`` is ``(d, n)``, ``centers`` and ``bandwidths`` are ``(d, k)``,
        the result is ``(d, n)``."""
        # shape: (d, n, k)
        z = (x[:, :, None] - centers[:, None, :]) / bandwidths[:, None, :]
        log_kernels = -0.5 * z**2 - np.log(bandwidths)[:, None, :] - 0.5 * np.log(2 * np.pi)
        maxima = log_kernels.max(axis=2, keepdims=True)
        return (
            maxima.squeeze(2)
            + np.log(np.exp(log_kernels - maxima).sum(axis=2))
            - np.log(centers.shape[1])
        )

    # ------------------------------------------------------------------ #
    # ask/tell hooks
    # ------------------------------------------------------------------ #
    def _setup(self) -> None:
        self._points: list[np.ndarray] = []
        self._scores: list[float] = []
        self._iterations = 0

    def _propose(self, rng: np.random.Generator) -> np.ndarray:
        """The next model-based candidate, conditioned on all results."""
        d = self.space.dimension
        observations = np.array(self._points)
        scores = np.array(self._scores)
        n_good = max(1, int(np.ceil(self.gamma * scores.size)))
        order = np.argsort(scores)
        good = observations[order[:n_good]]
        bad = observations[order[n_good:]]
        if bad.size == 0:
            bad = observations

        # Build the candidate pool from the good-set density and score it
        # by the density ratio (the "tree" of TPE is trivial here: the
        # parameters are independent).  The rows are dimensions; the draws
        # stay per dimension, so the rng stream is the same in any shape.
        good_centers = np.ascontiguousarray(good.T)
        bad_centers = np.ascontiguousarray(bad.T)
        good_bw = self._bandwidths(good_centers)
        bad_bw = self._bandwidths(bad_centers)
        n = self.candidates_per_step
        samples = np.empty((d, n))
        for dim in range(d):
            picks = rng.integers(0, good_centers.shape[1], size=n)
            samples[dim] = rng.normal(good_centers[dim, picks], good_bw[dim, picks])
        samples = np.clip(samples, 0.0, 1.0)
        log_l = np.zeros(n)
        log_g = np.zeros(n)
        for l_row, g_row in zip(
            self._log_density(samples, good_centers, good_bw),
            self._log_density(samples, bad_centers, bad_bw),
            strict=True,
        ):
            log_l += l_row
            log_g += g_row
        return samples[:, int(np.argmax(log_l - log_g))].copy()

    def _generate(self, rng: np.random.Generator, n: int) -> list[np.ndarray] | None:
        if not self._points:
            return [self.space.sample_unit(rng) for _ in range(self.warmup)]
        if self._iterations >= self.max_iterations:
            return None
        self._iterations += 1
        return [self._propose(rng)]

    def _observe(self, candidates: list[np.ndarray], values: list[float]) -> None:
        self._points.extend(candidates)
        self._scores.extend(values)
