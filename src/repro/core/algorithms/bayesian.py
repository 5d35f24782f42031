"""Bayesian optimization (the paper's "future work" algorithm).

Section V of the paper singles out Bayesian Optimization as "an attractive
proposition as it is highly effective for optimizing black-box functions
that are relatively expensive to evaluate, such as simulation accuracy
metrics".  This is a compact, dependency-free implementation (numpy and the
standard library only):

* surrogate: Gaussian-process regression with a squared-exponential
  (RBF) kernel on the normalised unit cube, observation noise jitter, and
  standardised targets (log-transformed, since MRE values span orders of
  magnitude);
* acquisition: Expected Improvement, maximised by evaluating a large
  random candidate set (cheap compared to a simulator invocation);
* initial design: a small Latin-hypercube batch, asked as one ask/tell
  generation; after it, every ask is a singleton conditioned on all
  completed evaluations.

The implementation keeps the fitted covariance matrix small by capping the
number of points used to condition the GP (the most recent + the best
ones), so its per-iteration cost stays bounded even for long runs.

The normal CDF in Expected Improvement is a vectorised port of Cephes
``ndtr``/``erf``/``erfc`` (Stephen L. Moshier, ``ndtr.c``, BSD-licensed; the
same code ``scipy.special.ndtr`` and so ``scipy.stats.norm.cdf`` run), and
the PDF is ``scipy.stats.norm``'s own expression, so EI is bit-identical to
the scipy form while importing scipy (0.9 s and ~60 MB) is avoided.  The
``exp(-z**2)`` factor of ``erfc`` goes through :func:`math.exp` (the C
library's ``exp``, which Cephes calls) rather than :func:`numpy.exp`, whose
SIMD kernels round differently on some inputs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.algorithms.base import CalibrationAlgorithm, register

__all__ = ["BayesianOptimization"]

# Cephes ndtr.c coefficients: erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8,
# R(x)/S(x) for x >= 8, and erf(x) = x T(x^2)/U(x^2) for |x| < 1.
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 7.07106781186547524401e-1
_SQRT_2PI = np.sqrt(2 * np.pi)


def _columns(*polys: tuple[float, ...]) -> np.ndarray:
    """Coefficient table for :func:`_horner`: one column per polynomial,
    highest power first, shorter ones padded with leading zeros."""
    width = max(map(len, polys))
    return np.array([(0.0,) * (width - len(p)) + p for p in polys]).T[:, :, None]


# p1evl's implicit leading 1 is written out: 1*x and 0*x + c are exact, so
# one Horner pass gives every polynomial bit for bit as polevl/p1evl do.
_ERF = _columns(_T, (1.0, *_U))
_ERFC = _columns(_P, (1.0, *_Q), _R, (1.0, *_S))


def _horner(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Every polynomial of ``table`` at ``x`` (finite or NaN), one row each."""
    ans = np.zeros((table.shape[1], x.size))
    for coef in table:
        ans *= x
        ans += coef
    return ans


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, bit-identical to ``scipy.special.ndtr``.

    Cephes: with ``x = a/sqrt(2)`` and ``z = |x|`` the CDF is
    ``0.5 + 0.5 erf(x)`` for ``z < 1/sqrt(2)``, else ``y = 0.5 erfc(z)``
    (``1 - y`` for ``x > 0``); ``erfc(z)`` is ``1 - erf(z)`` for ``z < 1``
    and ``exp(-z^2) P(z)/Q(z)`` (``R/S`` from 8 on) above, underflowing to
    0 once ``-z^2 < -MAXLOG``.
    """
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.zeros_like(x)  # 0.5 erfc(z)
    near = z < 1.0
    xn = x[near]
    t, u = _horner(_ERF, xn * xn)
    erf = xn * t / u
    y[near] = 0.5 * (1.0 - np.abs(erf))
    with np.errstate(over="ignore"):
        far = ~near & ~(-z * z < -_MAXLOG)  # NaN is far, and stays NaN
    zf = z[far]
    e = np.fromiter(map(math.exp, (-zf * zf).tolist()), dtype=float, count=zf.size)
    p, q, r, s = _horner(_ERFC, zf)
    tail = zf >= 8.0
    y[far] = 0.5 * (e * np.where(tail, r, p) / np.where(tail, s, q))
    out = np.where(x > 0, 1.0 - y, y)
    central = z < _SQRT1_2
    out[central] = 0.5 + 0.5 * erf[central[near]]
    return out


def _rbf_kernel(a: np.ndarray, b: np.ndarray, length_scale: float) -> np.ndarray:
    """Squared-exponential kernel matrix between two point sets."""
    sq_dists = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * a @ b.T
    return np.exp(-0.5 * np.maximum(sq_dists, 0.0) / length_scale**2)


@register("bayesian")
class BayesianOptimization(CalibrationAlgorithm):
    """GP + Expected Improvement Bayesian optimization."""

    name = "bayesian"

    def __init__(
        self,
        initial_samples: int = 12,
        candidates_per_iteration: int = 512,
        length_scale: float = 0.2,
        noise: float = 1e-6,
        max_conditioning_points: int = 128,
        exploration: float = 0.01,
        max_iterations: int = 1_000_000,
    ) -> None:
        super().__init__()
        if candidates_per_iteration < 1:
            raise ValueError("candidates_per_iteration must be >= 1")
        if max_conditioning_points < 2:
            raise ValueError("max_conditioning_points must be >= 2")
        if not (math.isfinite(length_scale) and length_scale > 0):
            raise ValueError("length_scale must be finite and > 0")
        if not noise >= 0:
            raise ValueError("noise must be >= 0")
        self.initial_samples = int(initial_samples)
        self.candidates_per_iteration = int(candidates_per_iteration)
        self.length_scale = float(length_scale)
        self.noise = float(noise)
        self.max_conditioning_points = int(max_conditioning_points)
        self.exploration = float(exploration)
        self.max_iterations = int(max_iterations)

    # ------------------------------------------------------------------ #
    # surrogate
    # ------------------------------------------------------------------ #
    def _select_conditioning(
        self, xs: list[np.ndarray], ys: list[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cap the number of GP conditioning points: keep the best half and
        the most recent half of the allowance."""
        n = len(xs)
        cap = self.max_conditioning_points
        if n <= cap:
            return np.array(xs), np.array(ys)
        order = np.argsort(ys)
        best = list(order[: cap // 2])
        recent = list(range(n - cap // 2, n))
        keep = sorted(set(best + recent))
        return np.array([xs[i] for i in keep]), np.array([ys[i] for i in keep])

    def _posterior(
        self, x_train: np.ndarray, y_train: np.ndarray, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """GP posterior mean and standard deviation at the candidate points."""
        # Standardise the (log) targets for numerical stability.
        y = np.log1p(np.maximum(y_train, 0.0))
        mean, std = float(np.mean(y)), float(np.std(y)) or 1.0
        y_norm = (y - mean) / std

        k_train = _rbf_kernel(x_train, x_train, self.length_scale)
        k_train[np.diag_indices_from(k_train)] += self.noise
        k_cross = _rbf_kernel(x_train, candidates, self.length_scale)
        try:
            chol = np.linalg.cholesky(k_train)
        except np.linalg.LinAlgError:
            k_train[np.diag_indices_from(k_train)] += 1e-4
            chol = np.linalg.cholesky(k_train)
        alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y_norm))
        mu = k_cross.T @ alpha
        v = np.linalg.solve(chol, k_cross)
        var = np.maximum(1.0 - np.sum(v**2, axis=0), 1e-12)
        return mu * std + mean, np.sqrt(var) * std

    @staticmethod
    def _expected_improvement(
        mu: np.ndarray, sigma: np.ndarray, best: float, xi: float
    ) -> np.ndarray:
        """EI for minimisation."""
        improvement = best - mu - xi
        z = improvement / sigma
        return improvement * _ndtr(z) + sigma * (np.exp(-(z**2) / 2.0) / _SQRT_2PI)

    # ------------------------------------------------------------------ #
    # ask/tell hooks
    # ------------------------------------------------------------------ #
    def _setup(self) -> None:
        self._xs: list[np.ndarray] = []
        self._ys: list[float] = []
        self._iterations = 0

    def _generate(self, rng: np.random.Generator, n: int) -> list[np.ndarray] | None:
        dimension = self.space.dimension
        if not self._xs:
            # Initial space-filling design (Latin hypercube), one batch.
            n0 = max(self.initial_samples, dimension + 1)
            design = np.empty((n0, dimension))
            for d in range(dimension):
                design[:, d] = (rng.permutation(n0) + rng.uniform(0, 1, size=n0)) / n0
            return list(design)
        if self._iterations >= self.max_iterations:
            return None
        self._iterations += 1
        x_train, y_train = self._select_conditioning(self._xs, self._ys)
        candidates = rng.uniform(0.0, 1.0, size=(self.candidates_per_iteration, dimension))
        mu, sigma = self._posterior(x_train, y_train, candidates)
        best = float(np.log1p(max(min(self._ys), 0.0)))
        ei = self._expected_improvement(mu, sigma, best, self.exploration)
        return [candidates[int(np.argmax(ei))]]

    def _observe(self, candidates: list[np.ndarray], values: list[float]) -> None:
        for candidate, value in zip(candidates, values, strict=True):
            self._xs.append(np.asarray(candidate, dtype=float))
            self._ys.append(float(value))
