"""Poison-point quarantine, crash-safe persistence, client recovery."""

import io
import json
import logging
import urllib.error

import numpy as np
import pytest

from repro.core import (
    Calibrator,
    EvaluationBudget,
    EvaluationFailure,
    FailurePolicy,
    Parameter,
    ParameterSpace,
    RunConfig,
)
from repro.core.evaluation import Claim
from repro.service import (
    InMemoryStore,
    JsonlStore,
    SqliteStore,
    StoreBackedCache,
    StoreClaim,
    StoredFailure,
)
from repro.service.fleet.client import FleetClient, FleetClientError

FP = "scenario-fp"
POINT = {"x": 1.0, "y": 2.0}


@pytest.fixture
def propagating_logs():
    """The CLI's log handler sets ``repro``'s propagate=False (once any CLI
    test has run), which would hide records from caplog's root handler."""
    logger = logging.getLogger("repro")
    before = logger.propagate
    logger.propagate = True
    yield
    logger.propagate = before


def make_store(kind, tmp_path):
    if kind == "memory":
        return InMemoryStore()
    if kind == "jsonl":
        return JsonlStore(tmp_path / "store.jsonl")
    return SqliteStore(tmp_path / "store.db")


@pytest.mark.parametrize("kind", ["memory", "jsonl", "sqlite"])
class TestStoreQuarantine:
    def test_record_failure_roundtrip(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.record_failure(FP, POINT, "SimulatorError: boom", kind="transient", attempts=3)
        failure = store.get_failure(FP, POINT)
        assert isinstance(failure, StoredFailure)
        assert failure.error == "SimulatorError: boom"
        assert failure.kind == "transient"
        assert failure.attempts == 3
        assert failure.fingerprint == FP
        assert store.failure_count() == 1
        assert store.stats()["failures"] == 1

    def test_claim_answers_quarantined(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.record_failure(FP, POINT, "boom")
        claim = store.claim(FP, POINT, owner="job-2")
        assert claim.status == StoreClaim.QUARANTINED
        assert claim.failure is not None and claim.failure.error == "boom"

    def test_record_failure_releases_the_lease(self, kind, tmp_path):
        """A deferring driver must see the failure record at its next poll
        instead of waiting out the lease TTL."""
        store = make_store(kind, tmp_path)
        assert store.claim(FP, POINT, owner="leader").status == StoreClaim.CLAIMED
        assert store.claim(FP, POINT, owner="waiter").status == StoreClaim.LEASED
        store.record_failure(FP, POINT, "boom")
        claim = store.claim(FP, POINT, owner="waiter")
        assert claim.status == StoreClaim.QUARANTINED

    def test_put_heals_the_quarantine(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.record_failure(FP, POINT, "transient environment problem")
        store.put(FP, POINT, 4.5)
        assert store.get_failure(FP, POINT) is None
        assert store.failure_count() == 0
        claim = store.claim(FP, POINT, owner="job-2")
        assert claim.status == StoreClaim.HIT and claim.value == 4.5

    def test_clear_failure_lifts_the_quarantine(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.record_failure(FP, POINT, "boom")
        store.clear_failure(FP, POINT)
        assert store.get_failure(FP, POINT) is None
        assert store.claim(FP, POINT, owner="job-2").status == StoreClaim.CLAIMED

    def test_failures_filter_by_fingerprint(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        store.record_failure("fp-a", {"x": 1.0}, "a")
        store.record_failure("fp-a", {"x": 2.0}, "b")
        store.record_failure("fp-b", {"x": 1.0}, "c")
        assert len(store.failures()) == 3
        assert len(store.failures("fp-a")) == 2
        assert store.failures_recorded == 3


class TestJsonlPersistence:
    def test_failures_survive_reopen(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = JsonlStore(path)
        store.record_failure(FP, POINT, "boom", kind="timeout", attempts=2)
        reopened = JsonlStore(path)
        failure = reopened.get_failure(FP, POINT)
        assert failure is not None and failure.kind == "timeout"

    def test_tombstones_survive_reopen(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = JsonlStore(path)
        store.record_failure(FP, POINT, "boom")
        store.clear_failure(FP, POINT)
        reopened = JsonlStore(path)
        assert reopened.get_failure(FP, POINT) is None
        assert reopened.failure_count() == 0

    def test_published_value_beats_stale_quarantine_on_reload(self, tmp_path):
        # Writer A quarantines; writer B (separate handle, so A's in-memory
        # tombstone bookkeeping does not apply) publishes a value.  A
        # reader merging both logs must serve the value.
        path = tmp_path / "store.jsonl"
        JsonlStore(path).record_failure(FP, POINT, "boom")
        JsonlStore(path).put(FP, POINT, 7.0)
        reader = JsonlStore(path)
        assert reader.get_failure(FP, POINT) is None
        assert reader.peek(FP, POINT) == 7.0

    def test_truncated_trailing_line_is_dropped_with_warning(self, tmp_path, caplog, propagating_logs):
        """Satellite regression: a crash mid-append leaves a torn final
        line; reload keeps everything before it instead of failing."""
        path = tmp_path / "store.jsonl"
        store = JsonlStore(path)
        store.put(FP, {"x": 1.0}, 1.0)
        store.put(FP, {"x": 2.0}, 2.0)
        with path.open("a") as handle:
            handle.write('{"key": "torn-re')  # no newline, no closing brace
        with caplog.at_level(logging.WARNING, logger="repro.service.store"):
            reopened = JsonlStore(path)
        assert len(reopened) == 2
        assert reopened.peek(FP, {"x": 2.0}) == 2.0
        assert any("truncated" in r.getMessage() for r in caplog.records)

    def test_writes_after_a_torn_tail_survive_reopening(self, tmp_path):
        """Regression: the append after a dropped torn line used to land on
        the fragment's line, vanish with it at the next open, and make the
        store unopenable once one more line followed.  Both logs."""
        path = tmp_path / "store.jsonl"
        store = JsonlStore(path)
        store.put(FP, {"x": 1.0}, 1.0)
        store.record_failure(FP, POINT, "boom")
        for log in (path, store.failures_path):
            with log.open("a") as handle:
                handle.write('{"key": "abc", "fing')  # a crash mid-append
        reopened = JsonlStore(path)
        assert len(reopened) == 1 and reopened.failure_count() == 1
        reopened.put(FP, {"x": 2.0}, 2.0)
        reopened.record_failure(FP, {"x": 3.0}, "bang")

        reopened = JsonlStore(path)
        assert len(reopened) == 2 and reopened.peek(FP, {"x": 2.0}) == 2.0
        assert reopened.failure_count() == 2
        reopened.put(FP, {"x": 4.0}, 4.0)
        reopened.clear_failure(FP, POINT)

        final = JsonlStore(path)
        assert len(final) == 3 and final.peek(FP, {"x": 4.0}) == 4.0
        assert [f.values for f in final.failures()] == [{"x": 3.0}]

    def test_interior_corruption_still_raises(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = JsonlStore(path)
        store.put(FP, {"x": 1.0}, 1.0)
        store.put(FP, {"x": 2.0}, 2.0)
        lines = path.read_text().splitlines()
        lines[0] = '{"corrupt'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            JsonlStore(path)

    def test_truncated_failures_sidecar_is_tolerated(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = JsonlStore(path)
        store.record_failure(FP, POINT, "boom")
        with store.failures_path.open("a") as handle:
            handle.write('{"key": "to')
        reopened = JsonlStore(path)
        assert reopened.failure_count() == 1


class TestStoreBackedCacheQuarantine:
    def test_mark_failed_records_into_the_store(self):
        store = InMemoryStore()
        cache = StoreBackedCache(store, FP)
        cache.mark_failed((0.5,), POINT, EvaluationFailure("boom", kind="timeout", attempts=2))
        stored = store.get_failure(FP, POINT)
        assert stored is not None and stored.kind == "timeout" and stored.attempts == 2
        failure = cache.get_failure((0.5,), POINT)
        assert isinstance(failure, EvaluationFailure) and failure.error == "boom"

    def test_claim_maps_quarantine_to_the_core_claim(self):
        store = InMemoryStore()
        store.record_failure(FP, POINT, "boom")
        cache = StoreBackedCache(store, FP)
        claim = cache.claim((0.5,), POINT)
        assert claim.status == Claim.QUARANTINED
        assert claim.failure is not None and claim.failure.error == "boom"

    def test_get_reports_a_miss_not_a_lease_wait(self):
        store = InMemoryStore()
        store.record_failure(FP, POINT, "boom")
        cache = StoreBackedCache(store, FP)
        assert cache.get((0.5,), POINT) is None  # returns immediately


class TestSecondJobSkipsQuarantine:
    """The acceptance criterion: a job sharing the store must not
    re-evaluate a point a previous job already diagnosed as poison."""

    def _space(self):
        return ParameterSpace([Parameter("p0", 2.0**10, 2.0**30)])

    def test_objective_skips_a_peer_quarantined_point(self, scripted):
        space = self._space()
        store = InMemoryStore()
        point = space.from_unit_array(np.asarray([0.5]))

        def poison(values):
            raise ValueError("segfault at this parameter vector")

        first = scripted(space, [point])
        Calibrator(
            space, poison, algorithm=first, cache=StoreBackedCache(store, FP),
            config=RunConfig(failure_policy=FailurePolicy(penalty=1e6)),
        ).run()
        assert first.told == [1e6]
        assert store.failure_count() == 1

        calls = []

        def counting(values):
            calls.append(dict(values))
            return 1.0

        second = scripted(space, [point])
        job2 = Calibrator(
            space, counting, algorithm=second, cache=StoreBackedCache(store, FP),
            config=RunConfig(failure_policy=FailurePolicy(penalty=1e6)),
        )
        job2.run()
        assert second.told == [1e6]
        assert calls == []  # never re-evaluated
        assert job2.quarantine_skips == 1

    def test_second_calibration_run_shares_the_diagnosis(self):
        space = self._space()
        store = InMemoryStore()
        evaluated = []

        def poison_region(values):
            evaluated.append(values["p0"])
            if values["p0"] > 2.0**28:
                raise ValueError("poison region")
            return abs(values["p0"] - 2.0**20) / 2.0**20

        first = Calibrator(
            space, poison_region, algorithm="random", budget=EvaluationBudget(15),
            seed=4, cache=StoreBackedCache(store, FP),
            config=RunConfig(failure_policy=FailurePolicy(penalty=1e6)),
        ).run()
        poisoned = store.failure_count()
        assert poisoned > 0  # seed 4 visits the poison region
        calls_before = len(evaluated)

        second = Calibrator(
            space, poison_region, algorithm="random", budget=EvaluationBudget(15),
            seed=4, cache=StoreBackedCache(store, FP),
            config=RunConfig(replay_cache_hits=True, failure_policy=FailurePolicy(penalty=1e6)),
        ).run()
        # The replay re-evaluated nothing: hits from the store, quarantine
        # skips for the poison points.
        assert len(evaluated) == calls_before
        assert store.failure_count() == poisoned
        assert sum(1 for e in second.history if e.failed) == poisoned


class _FakeResponse:
    def __init__(self, body):
        self._body = body

    def read(self):
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


class TestFleetClientRetry:
    def _client(self, retries=2):
        return FleetClient("http://127.0.0.1:1", retries=retries, retry_backoff=0.001)

    def test_transient_urlerror_is_retried(self, monkeypatch):
        attempts = []

        def flaky_urlopen(request, timeout=None):
            attempts.append(1)
            if len(attempts) < 3:
                raise urllib.error.URLError("connection refused")
            return _FakeResponse(b'{"ok": true}')

        monkeypatch.setattr("urllib.request.urlopen", flaky_urlopen)
        assert self._client().health() == {"ok": True}
        assert len(attempts) == 3

    def test_retries_exhaust_and_surface(self, monkeypatch):
        attempts = []

        def dead_urlopen(request, timeout=None):
            attempts.append(1)
            raise urllib.error.URLError("connection refused")

        monkeypatch.setattr("urllib.request.urlopen", dead_urlopen)
        with pytest.raises(FleetClientError) as info:
            self._client(retries=2).health()
        assert len(attempts) == 3  # 1 try + 2 retries
        assert info.value.retryable

    def test_4xx_is_single_shot(self, monkeypatch):
        attempts = []

        def not_found(request, timeout=None):
            attempts.append(1)
            raise urllib.error.HTTPError(
                request.full_url, 404, "not found", {}, io.BytesIO(b"{}")
            )

        monkeypatch.setattr("urllib.request.urlopen", not_found)
        with pytest.raises(FleetClientError) as info:
            self._client().health()
        assert len(attempts) == 1
        assert not info.value.retryable

    def test_5xx_is_retried(self, monkeypatch):
        attempts = []

        def flaky_server(request, timeout=None):
            attempts.append(1)
            if len(attempts) < 2:
                raise urllib.error.HTTPError(
                    request.full_url, 503, "unavailable", {},
                    io.BytesIO(b'{"error": "restarting"}'),
                )
            return _FakeResponse(b'{"ok": true}')

        monkeypatch.setattr("urllib.request.urlopen", flaky_server)
        assert self._client().health() == {"ok": True}
        assert len(attempts) == 2

    def test_malformed_json_is_single_shot(self, monkeypatch):
        attempts = []

        def garbage(request, timeout=None):
            attempts.append(1)
            return _FakeResponse(b"<html>not json</html>")

        monkeypatch.setattr("urllib.request.urlopen", garbage)
        with pytest.raises(FleetClientError):
            self._client().health()
        assert len(attempts) == 1
