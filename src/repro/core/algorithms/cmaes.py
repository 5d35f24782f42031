"""A compact Covariance-Matrix-Adaptation Evolution Strategy (extension).

This is the standard (mu/mu_w, lambda)-CMA-ES of Hansen, implemented
directly from the tutorial equations with no external dependency: a
multivariate Gaussian search distribution whose mean, step size (via
cumulative step-size adaptation) and covariance matrix (rank-one plus
rank-mu updates) are adapted from the best ``mu`` samples of every
generation.

CMA-ES represents the "serious black-box optimizer" end of the design
space the paper sketches between simple searches and Bayesian
optimization; the extension benchmark compares it against both.

Each ask/tell generation is one whole lambda-sample population (the
distribution update needs all of it), so a parallel driver evaluates
entire generations concurrently while the serial driver walks the exact
trajectory of the original blocking loop.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.core.algorithms.base import CalibrationAlgorithm, register

__all__ = ["CMAES"]


@register("cmaes")
class CMAES(CalibrationAlgorithm):
    """(mu/mu_w, lambda)-CMA-ES on the normalised unit cube, with restarts."""

    name = "cmaes"

    def __init__(
        self,
        population_size: int = 0,
        initial_sigma: float = 0.3,
        max_generations_per_restart: int = 200,
        stagnation_tolerance: float = 1e-4,
        max_restarts: int = 10_000_000,
    ) -> None:
        super().__init__()
        if initial_sigma <= 0:
            raise ValueError("the initial step size must be positive")
        self.population_size = int(population_size)
        self.initial_sigma = float(initial_sigma)
        self.max_generations_per_restart = int(max_generations_per_restart)
        self.stagnation_tolerance = float(stagnation_tolerance)
        self.max_restarts = int(max_restarts)

    # ------------------------------------------------------------------ #
    # strategy constants (deterministic in the dimension)
    # ------------------------------------------------------------------ #
    def _constants(self) -> dict[str, Any]:
        if self._cst is not None and self._cst["d"] == self.space.dimension:
            return self._cst
        self._cst = self._compute_constants()
        return self._cst

    def _compute_constants(self) -> dict[str, Any]:
        d = self.space.dimension
        lam = self.population_size or (4 + int(3 * np.log(d)))
        mu = lam // 2
        raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
        weights = raw / raw.sum()
        mu_eff = 1.0 / float(np.sum(weights**2))
        c_sigma = (mu_eff + 2.0) / (d + mu_eff + 5.0)
        d_sigma = 1.0 + 2.0 * max(0.0, np.sqrt((mu_eff - 1.0) / (d + 1.0)) - 1.0) + c_sigma
        c_c = (4.0 + mu_eff / d) / (d + 4.0 + 2.0 * mu_eff / d)
        c_1 = 2.0 / ((d + 1.3) ** 2 + mu_eff)
        c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((d + 2.0) ** 2 + mu_eff))
        chi_d = np.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d**2))
        return dict(d=d, lam=lam, mu=mu, weights=weights, mu_eff=mu_eff,
                    c_sigma=c_sigma, d_sigma=d_sigma, c_c=c_c, c_1=c_1,
                    c_mu=c_mu, chi_d=chi_d)

    @staticmethod
    def _decompose(covariance: np.ndarray):
        eigenvalues, eigenvectors = np.linalg.eigh(covariance)
        eigenvalues = np.maximum(eigenvalues, 1e-20)
        sqrt_cov = eigenvectors @ np.diag(np.sqrt(eigenvalues)) @ eigenvectors.T
        inv_sqrt_cov = eigenvectors @ np.diag(1.0 / np.sqrt(eigenvalues)) @ eigenvectors.T
        return sqrt_cov, inv_sqrt_cov

    # ------------------------------------------------------------------ #
    # ask/tell hooks
    # ------------------------------------------------------------------ #
    def _setup(self) -> None:
        self._phase = "start"
        self._restarts_started = 0
        self._generation = 0
        self._mean: np.ndarray | None = None
        self._sigma = self.initial_sigma
        self._covariance: np.ndarray | None = None
        self._path_sigma: np.ndarray | None = None
        self._path_c: np.ndarray | None = None
        self._previous_best = float("inf")
        self._unclipped: np.ndarray | None = None
        self._cst: dict[str, Any] | None = None
        #: inverse square root of the covariance the pending generation was
        #: sampled from
        self._inv_sqrt_cov: np.ndarray | None = None

    def _generate(self, rng: np.random.Generator, n: int) -> list[np.ndarray] | None:
        cst = self._constants()
        d = cst["d"]
        while True:
            if self._phase == "start":
                if self._restarts_started >= self.max_restarts:
                    return None
                self._restarts_started += 1
                self._mean = self.space.sample_unit(rng)
                self._sigma = self.initial_sigma
                self._covariance = np.eye(d)
                self._path_sigma = np.zeros(d)
                self._path_c = np.zeros(d)
                self._previous_best = float("inf")
                self._generation = 0
                self._phase = "generation"
            if self._generation >= self.max_generations_per_restart:
                self._phase = "start"
                continue
            sqrt_cov, self._inv_sqrt_cov = self._decompose(self._covariance)
            normals = rng.standard_normal((cst["lam"], d))
            candidates = self._mean + self._sigma * normals @ sqrt_cov.T
            self._unclipped = candidates
            return list(np.clip(candidates, 0.0, 1.0))

    def _observe(self, candidates: list[np.ndarray], values: list[float]) -> None:
        cst = self._constants()
        d, mu, weights, mu_eff = cst["d"], cst["mu"], cst["weights"], cst["mu_eff"]
        c_sigma, d_sigma, c_c = cst["c_sigma"], cst["d_sigma"], cst["c_c"]
        c_1, c_mu, chi_d = cst["c_1"], cst["c_mu"], cst["chi_d"]
        inv_sqrt_cov = self._inv_sqrt_cov

        scores = np.array(values)
        order = np.argsort(scores)
        selected = self._unclipped[order[:mu]]
        best_value = float(scores[order[0]])

        old_mean = self._mean
        mean = weights @ selected
        self._mean = np.clip(mean, 0.0, 1.0)

        # Step-size adaptation (literal transcription of the original loop
        # body, including its use of the *updated* sigma for the rank-mu
        # artifacts — trajectories must stay byte-identical).
        shift = (self._mean - old_mean) / self._sigma
        self._path_sigma = (1.0 - c_sigma) * self._path_sigma + np.sqrt(
            c_sigma * (2.0 - c_sigma) * mu_eff
        ) * inv_sqrt_cov @ shift
        # math.exp, not np.exp: numpy's AVX-512 exp rounds differently
        # from libm on some inputs, which made the trajectory CPU-dependent.
        self._sigma *= math.exp(
            (c_sigma / d_sigma) * (np.linalg.norm(self._path_sigma) / chi_d - 1.0)
        )
        self._sigma = float(np.clip(self._sigma, 1e-8, 1.0))

        # Covariance adaptation (rank-one + rank-mu).
        h_sigma = float(
            np.linalg.norm(self._path_sigma)
            / np.sqrt(1.0 - (1.0 - c_sigma) ** (2 * (self._generation + 1)))
            < (1.4 + 2.0 / (d + 1.0)) * chi_d
        )
        self._path_c = (1.0 - c_c) * self._path_c + h_sigma * np.sqrt(
            c_c * (2.0 - c_c) * mu_eff
        ) * shift
        artifacts = (selected - old_mean) / self._sigma
        rank_mu = sum(w * np.outer(y, y) for w, y in zip(weights, artifacts, strict=True))
        covariance = (
            (1.0 - c_1 - c_mu) * self._covariance
            + c_1
            * (
                np.outer(self._path_c, self._path_c)
                + (1.0 - h_sigma) * c_c * (2.0 - c_c) * self._covariance
            )
            + c_mu * rank_mu
        )
        self._covariance = (covariance + covariance.T) / 2.0  # keep it symmetric

        self._generation += 1
        self._unclipped = None
        self._inv_sqrt_cov = None  # the covariance just changed
        if (
            abs(self._previous_best - best_value) < self.stagnation_tolerance
            and self._sigma < 1e-3
        ):
            self._phase = "start"  # converged: the next ask restarts
        else:
            self._previous_best = best_value
