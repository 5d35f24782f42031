"""Algorithm base class and registry: the batched ask/tell protocol.

Calibration algorithms are *proposal machines*: the driver owns the
evaluation loop, the algorithm only decides where to look next.  The
protocol has four verbs:

``setup(space)``
    Bind the :class:`~repro.core.parameters.ParameterSpace` and reset all
    run state (a fresh trajectory starts here).
``ask(rng, n) -> list[np.ndarray]``
    Up to ``n`` candidate points in the normalised unit cube.  ``n`` is a
    capacity hint — population algorithms generate whole generations
    internally and hand them out in chunks of ``n``, so a parallel driver
    asking ``n = workers`` drains a generation batch by batch while a
    serial driver asking ``n = 1`` walks the exact same trajectory.
``tell(candidates, values)``
    Report objective values for previously asked candidates, in ask
    order (chunked tells are fine).  Once every candidate of the current
    internal batch has been told, the algorithm updates its state.
``done() -> bool``
    Whether the algorithm has decided it is finished (drivers also stop
    when the budget runs out, whichever comes first).

An algorithm is a deterministic function of the rng it is handed and the
(candidate, value) pairs it is told, so it needs no serialisable state: a
driver resumes a run by replaying its tell log into a fresh instance (see
:meth:`repro.core.async_driver.AsyncCalibrator.run`).

Two tell orderings exist, selected by the class attribute
``supports_async_tell``:

* *ordered* (the default): tells must arrive in ask order, and a new
  internal batch cannot be generated while candidates of the current one
  are still outstanding.  Population algorithms (CMA-ES, Nelder-Mead,
  line searches) are inherently ordered — a generation is a unit.
  Immediate-update DE is ordered too, but overrides this ledger: each
  trial is its own unit, asked ahead of earlier tells whenever it reads
  no member whose trial is still outstanding (see
  :mod:`~repro.core.algorithms.differential_evolution`).
* *async-native* (``supports_async_tell = True``): the algorithm is a
  steady-state sampler whose proposals do not depend on a rigid
  generation boundary (random, Sobol, Latin hypercube, TPE).  ``ask`` may
  then run arbitrarily far ahead of the tells (speculative asks), and
  ``tell`` accepts (candidate, value) pairs in *any completion order* —
  each pair is matched against the ledger of outstanding candidates and
  handed to ``_observe`` immediately.  This is what lets
  :class:`~repro.core.async_driver.AsyncCalibrator` keep a worker pool
  saturated without waiting for stragglers.

Ordered algorithms still work under the asynchronous driver: its run
parks out-of-order completions and releases them to ``tell`` in ask
order.

The paper's original blocking loop is the serial
:class:`~repro.core.calibrator.Calibrator`: the one evaluation loop asking
``ask(rng, 1)`` → evaluate → ``tell`` with one candidate in flight, so
seeded trajectories are byte-identical to the pre-ask/tell
implementations — the parity test pins this against fixtures captured
from the seed code.

Subclasses implement the protected hooks rather than ask/tell directly:

* ``_setup()`` — reset algorithm state;
* ``_generate(rng, n)`` — produce the next natural batch of candidates
  (a full generation, a line-search probe, ``n`` random samples, ...), or
  ``None`` when the algorithm is finished;
* ``_observe(candidates, values)`` — ingest a completed batch.

The base class buffers partially dispatched and partially told batches,
so hooks never see a half generation.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.core.parameters import ParameterSpace
from repro.telemetry.metrics import registry as _metrics_registry

_REGISTRY = _metrics_registry()

__all__ = ["CalibrationAlgorithm", "ALGORITHMS", "register", "get_algorithm"]


class CalibrationAlgorithm:
    """Base class for calibration algorithms (batched ask/tell)."""

    #: registry name; subclasses must override it
    name: str = "abstract"

    #: Capability flag: steady-state samplers that can ingest results in
    #: any completion order (and keep proposing while earlier candidates
    #: are still in flight) set this to True.  Ordered algorithms leave it
    #: False and are adapted by the asynchronous driver instead.
    supports_async_tell: bool = False

    def __init__(self) -> None:
        self._space: ParameterSpace | None = None
        self._rng: np.random.Generator | None = None
        # ordered-protocol ledger: one internal batch at a time
        self._batch: list[np.ndarray] = []
        self._dispatched = 0
        self._told = 0
        self._values: list[float] = []
        # async-native ledger: generated-but-unasked surplus + asked-but-
        # untold candidates (used when supports_async_tell is True)
        self._queue: list[np.ndarray] = []
        self._outstanding: list[np.ndarray] = []
        self._finished = False

    # ------------------------------------------------------------------ #
    # protocol: lifecycle
    # ------------------------------------------------------------------ #
    @property
    def space(self) -> ParameterSpace:
        if self._space is None:
            raise RuntimeError(f"{self.name}: call setup(space) before ask/tell")
        return self._space

    def setup(self, space: ParameterSpace) -> None:
        """Bind the parameter space and reset all run state."""
        self._space = space
        self._batch = []
        self._dispatched = 0
        self._told = 0
        self._values = []
        self._queue = []
        self._outstanding = []
        self._finished = False
        self._setup()

    def done(self) -> bool:
        """Whether the algorithm has decided it is finished."""
        return self._finished

    # ------------------------------------------------------------------ #
    # protocol: ask/tell
    # ------------------------------------------------------------------ #
    def ask(self, rng: np.random.Generator, n: int = 1) -> list[np.ndarray]:
        """Return up to ``n`` candidates (unit-cube points) to evaluate.

        Ordered algorithms return fewer than ``n`` (possibly none) when
        the current internal batch runs out and the next one cannot be
        generated before the outstanding candidates are told.  An empty
        list with ``done()`` still false therefore means "tell me what you
        have first".  Async-native algorithms
        (``supports_async_tell = True``) never stall on outstanding
        candidates: they keep generating speculatively, so an empty list
        from them always means ``done()``.
        """
        if not _REGISTRY.enabled:
            return self._ask_impl(rng, n)
        started = time.perf_counter()
        out = self._ask_impl(rng, n)
        _REGISTRY.histogram(
            "repro_algorithm_ask_seconds",
            "Wall-clock spent inside ask() per call.",
            algorithm=self.name,
        ).observe(time.perf_counter() - started)
        _REGISTRY.counter(
            "repro_algorithm_asked_total",
            "Candidates handed out by ask().",
            algorithm=self.name,
        ).inc(len(out))
        return out

    def _ask_impl(self, rng: np.random.Generator, n: int) -> list[np.ndarray]:
        if n < 1:
            raise ValueError("ask() needs n >= 1")
        if self._space is None:
            raise RuntimeError(f"{self.name}: call setup(space) before ask/tell")
        self._rng = rng  # tell-side draws use the rng of the latest ask
        if self.supports_async_tell:
            return self._ask_freely(rng, n)
        out: list[np.ndarray] = []
        while len(out) < n and not self._finished:
            if self._dispatched >= len(self._batch):
                if self._batch and self._told < len(self._batch):
                    break  # awaiting tells before the next batch can exist
                batch = self._generate(rng, n - len(out))
                if not batch:
                    self._finished = True
                    break
                self._batch = [np.asarray(c, dtype=float) for c in batch]
                self._dispatched = 0
                self._told = 0
                self._values = []
            take = min(n - len(out), len(self._batch) - self._dispatched)
            out.extend(self._batch[self._dispatched:self._dispatched + take])
            self._dispatched += take
        return out

    def _ask_freely(self, rng: np.random.Generator, n: int) -> list[np.ndarray]:
        """Async-native ask: draw from the surplus queue, generating more
        whenever it runs dry, regardless of outstanding candidates."""
        out: list[np.ndarray] = []
        while len(out) < n and not self._finished:
            if not self._queue:
                batch = self._generate(rng, n - len(out))
                if not batch:
                    self._finished = True
                    break
                self._queue = [np.asarray(c, dtype=float) for c in batch]
            take = min(n - len(out), len(self._queue))
            out.extend(self._queue[:take])
            del self._queue[:take]
        self._outstanding.extend(out)
        return out

    def tell(self, candidates: Sequence[np.ndarray], values: Sequence[float]) -> None:
        """Report results for asked candidates.

        Ordered algorithms require tells in ask order (chunked tells are
        fine); async-native algorithms accept the (candidate, value) pairs
        in any completion order — each pair is matched against the
        outstanding ledger and observed immediately.
        """
        if not _REGISTRY.enabled:
            self._tell_impl(candidates, values)
            return
        started = time.perf_counter()
        self._tell_impl(candidates, values)
        _REGISTRY.histogram(
            "repro_algorithm_tell_seconds",
            "Wall-clock spent inside tell() per call.",
            algorithm=self.name,
        ).observe(time.perf_counter() - started)
        _REGISTRY.counter(
            "repro_algorithm_told_total",
            "Results reported back through tell().",
            algorithm=self.name,
        ).inc(len(values))

    def _tell_impl(self, candidates: Sequence[np.ndarray], values: Sequence[float]) -> None:
        if len(candidates) != len(values):
            raise ValueError("tell() needs one value per candidate")
        if self.supports_async_tell:
            self._tell_out_of_order(candidates, values)
            return
        if self._told + len(values) > self._dispatched:
            raise ValueError(
                f"{self.name}: told {self._told + len(values)} results but only "
                f"{self._dispatched} candidates were asked"
            )
        self._values.extend(float(v) for v in values)
        self._told += len(values)
        if self._batch and self._told == len(self._batch):
            batch, observed = self._batch, self._values
            self._batch, self._values = [], []
            self._dispatched = 0
            self._told = 0
            self._observe(batch, observed)

    def _tell_out_of_order(
        self, candidates: Sequence[np.ndarray], values: Sequence[float]
    ) -> None:
        """Match each pair against the outstanding ledger (FIFO on equal
        points, so duplicates resolve deterministically) and observe it."""
        matched: list[np.ndarray] = []
        observed: list[float] = []
        for candidate, value in zip(candidates, values, strict=True):
            arr = np.asarray(candidate, dtype=float)
            for i, pending in enumerate(self._outstanding):
                # Drivers tell back the very array they were asked: the
                # identity test spares them the comparison.
                if pending is arr or (pending.shape == arr.shape and np.array_equal(pending, arr)):
                    del self._outstanding[i]
                    break
            else:
                raise ValueError(
                    f"{self.name}: told a candidate that was never asked "
                    f"(or was already told): {arr!r}"
                )
            matched.append(arr)
            observed.append(float(value))
        self._observe(matched, observed)

    # ------------------------------------------------------------------ #
    # subclass hooks
    # ------------------------------------------------------------------ #
    def _setup(self) -> None:
        """Reset algorithm state (the space is bound as ``self.space``)."""

    def _generate(
        self, rng: np.random.Generator, n: int
    ) -> list[np.ndarray] | None:  # pragma: no cover - interface
        """Produce the next natural batch of candidates (``None`` = done).

        ``n`` is the driver's capacity hint; algorithms with no natural
        batch size (random search) should honour it, population algorithms
        return their full generation regardless.
        """
        raise NotImplementedError

    def _observe(self, candidates: list[np.ndarray], values: list[float]) -> None:
        """Ingest one completed batch (every candidate told)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} ({self.name})>"


#: name -> factory registry.  Factories accept the algorithm's constructor
#: keyword arguments and return a configured instance.
ALGORITHMS: dict[str, Callable[..., CalibrationAlgorithm]] = {}


def register(name: str) -> Callable[[type[CalibrationAlgorithm]], type[CalibrationAlgorithm]]:
    """Class decorator registering an algorithm under ``name``."""

    def decorator(cls: type[CalibrationAlgorithm]) -> type[CalibrationAlgorithm]:
        ALGORITHMS[name.lower()] = cls
        return cls

    return decorator


def get_algorithm(
    spec: str | CalibrationAlgorithm, **options: Any
) -> CalibrationAlgorithm:
    """Instantiate an algorithm from its registry name (case-insensitive).

    Keyword arguments are forwarded to the algorithm's constructor, so
    configured instances need no manual import::

        get_algorithm("cmaes", population_size=8)
        get_algorithm("de", mutation=0.5)

    A few aliases are accepted for readability of the experiment scripts:
    ``"gdfix"``/``"gddyn"`` select the fixed-/dynamic-step gradient descent.
    """
    if isinstance(spec, CalibrationAlgorithm):
        if options:
            raise ValueError(
                "constructor options cannot be applied to an already "
                f"instantiated algorithm ({spec!r})"
            )
        return spec
    key = spec.lower()
    aliases = {
        "gd": "gdfix",
        "gradient": "gdfix",
        "bo": "bayesian",
    }
    key = aliases.get(key, key)
    try:
        factory = ALGORITHMS[key]
    except KeyError:
        raise KeyError(f"unknown algorithm {spec!r}; available: {sorted(ALGORITHMS)}") from None
    return factory(**options)
