"""The store protocol as a state machine, checked against a dict model.

Hypothesis drives random sequences of ``put``/``get``/``peek``/``claim``/
``release``/``record_failure``/``clear_failure``/heal and lease expiry
against each backend and :class:`Model` — the whole claim → lease →
put | record_failure → heal protocol in about thirty lines of dicts.
After every step the store's observable state (``len``, ``entries()``,
``failures()``, ``active_leases()``, ``lease_count()``, ``stats()``)
must equal the model's, and a stored or quarantined point must hold no
lease.

Two lease owners, ``a`` and ``b``, compete for a handful of points.  For
SQLite, ``b`` works through a second handle on the same file, so the
model also checks what one process sees of another's steps.  JSONL adds
``reload()`` and a fresh reopen (leases vanish, records stay).  Time is
a fake clock patched into the store module, so expiry is a rule, not a
sleep.
"""

import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.service import store as store_module
from repro.service.store import (
    InMemoryStore,
    JsonlStore,
    SqliteStore,
    StoreClaim,
    evaluation_key,
)

POINTS = [
    ("fp-a", {"x": 0.0}),
    ("fp-a", {"x": 1.0}),
    ("fp-a", {"x": 2.0}),
    ("fp-b", {"x": 0.0}),
]
KEYS = [evaluation_key(fp, values) for fp, values in POINTS]
COUNTERS = ("hits", "misses", "puts", "lease_conflicts")

points = st.integers(0, len(POINTS) - 1)
owners = st.sampled_from("ab")
ttls = st.sampled_from([1.0, 5.0, 30.0])
values = st.floats(allow_nan=False, allow_infinity=False)
errors = st.tuples(
    st.sampled_from(["SimulatorError: boom", "timed out"]),
    st.sampled_from(["transient", "deterministic", "timeout"]),
    st.integers(1, 3),
)


class Model:
    """What the store must look like: three keyed tables and, per handle,
    the hit/miss/put/conflict counters."""

    def __init__(self, handles):
        self.entries = {}  # key -> (fingerprint, values, value)
        self.failures = {}  # key -> (fingerprint, values, (error, kind, attempts))
        self.leases = {}  # key -> (owner, expires_at)
        self.counters = {h: dict.fromkeys(COUNTERS, 0) for h in handles}

    def put(self, handle, key, row):
        self.entries[key] = row
        self.leases.pop(key, None)
        self.failures.pop(key, None)
        self.counters[handle]["puts"] += 1

    def claim(self, handle, key, owner, now, ttl):
        counters = self.counters[handle]
        if key in self.entries:
            counters["hits"] += 1
            return (StoreClaim.HIT, self.entries[key][2], None, None, None)
        if key in self.failures:
            return (StoreClaim.QUARANTINED, None, None, None, self.failures[key][2][0])
        lease = self.leases.get(key)
        if lease is not None and lease[0] != owner and lease[1] > now:
            counters["lease_conflicts"] += 1
            return (StoreClaim.LEASED, None, lease[0], lease[1], None)
        self.leases[key] = (owner, now + ttl)
        counters["misses"] += 1
        return (StoreClaim.CLAIMED, None, None, None, None)

    def release(self, key, owner):
        if self.leases.get(key, (None,))[0] == owner:
            del self.leases[key]

    def record_failure(self, key, row):
        self.failures[key] = row
        self.leases.pop(key, None)


class StoreMachine(RuleBasedStateMachine):
    backend = "memory"

    def __init__(self):
        super().__init__()
        self.now = 1000.0
        self._clock = mock.patch.object(
            store_module, "time", SimpleNamespace(time=lambda: self.now)
        )
        self._clock.start()
        self.tmp = Path(tempfile.mkdtemp(prefix="store-model-"))
        if self.backend == "sqlite":
            self.stores = {"a": self._open(), "b": self._open()}
        else:
            shared = self._open()
            self.stores = {"a": shared, "b": shared}
        self.model = Model(self._handles())

    def _open(self):
        if self.backend == "jsonl":
            return JsonlStore(self.tmp / "store.jsonl")
        if self.backend == "sqlite":
            return SqliteStore(self.tmp / "store.db")
        return InMemoryStore()

    def _handles(self):
        return sorted({id(s) for s in self.stores.values()})

    def teardown(self):
        for handle in {id(s): s for s in self.stores.values()}.values():
            handle.close()
        self._clock.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _claim(self, point, owner, ttl):
        fingerprint, values = POINTS[point]
        store = self.stores[owner]
        outcome = store.claim(fingerprint, values, owner=owner, ttl=ttl)
        expected = self.model.claim(id(store), KEYS[point], owner, self.now, ttl)
        failure = None if outcome.failure is None else outcome.failure.error
        got = (outcome.status, outcome.value, outcome.owner, outcome.expires_at, failure)
        assert got == expected
        return outcome.status

    def _record_failure(self, point, actor, error):
        fingerprint, values = POINTS[point]
        self.stores[actor].record_failure(
            fingerprint, values, error[0], kind=error[1], attempts=error[2]
        )
        self.model.record_failure(KEYS[point], (fingerprint, values, error))

    # -- rules --------------------------------------------------------- #
    @rule(point=points, actor=owners, value=values)
    def put(self, point, actor, value):
        fingerprint, values_ = POINTS[point]
        store = self.stores[actor]
        store.put(fingerprint, values_, value)
        self.model.put(id(store), KEYS[point], (fingerprint, values_, value))

    @rule(point=points, actor=owners)
    def get(self, point, actor):
        store = self.stores[actor]
        expected = self.model.entries.get(KEYS[point])
        counter = "hits" if expected is not None else "misses"
        self.model.counters[id(store)][counter] += 1
        assert store.get(*POINTS[point]) == (None if expected is None else expected[2])

    @rule(point=points, actor=owners)
    def peek(self, point, actor):
        expected = self.model.entries.get(KEYS[point])
        got = self.stores[actor].peek(*POINTS[point])
        assert got == (None if expected is None else expected[2])

    @rule(point=points, owner=owners, ttl=ttls)
    def claim(self, point, owner, ttl):
        self._claim(point, owner, ttl)

    @rule(point=points, owner=owners)
    def release(self, point, owner):
        self.stores[owner].release(*POINTS[point], owner=owner)
        self.model.release(KEYS[point], owner)

    @rule(point=points, actor=owners, error=errors)
    def record_failure(self, point, actor, error):
        # Drivers record a failure only for a point they could not get a
        # value for; a stored point is never quarantined.
        if KEYS[point] not in self.model.entries:
            self._record_failure(point, actor, error)

    @rule(point=points, actor=owners)
    def clear_failure(self, point, actor):
        self.stores[actor].clear_failure(*POINTS[point])
        self.model.failures.pop(KEYS[point], None)

    @precondition(lambda self: self.model.failures)
    @rule(data=st.data(), actor=owners, value=values)
    def heal(self, data, actor, value):
        key = data.draw(st.sampled_from(sorted(self.model.failures)))
        self.put(KEYS.index(key), actor, value)
        assert key not in self.model.failures

    @rule(seconds=st.sampled_from([0.5, 1.0, 4.0, 30.0]))
    def advance_clock(self, seconds):
        self.now += seconds

    @rule(point=points, ending=st.sampled_from(["cancel", "fail", "expire"]), ttl=ttls)
    def claimant_gives_up_while_another_waits(self, point, ending, ttl):
        """One claimant cancels, fails or expires while the other sits
        ``leased`` behind it; the waiter's next claim must see the end."""
        if self._claim(point, "a", ttl) != StoreClaim.CLAIMED:
            return
        assert self._claim(point, "b", ttl) == StoreClaim.LEASED
        if ending == "cancel":
            self.release(point, "a")
        elif ending == "fail":
            self._record_failure(point, "a", ("SimulatorError: boom", "deterministic", 1))
        else:
            self.advance_clock(ttl)
        expected = StoreClaim.QUARANTINED if ending == "fail" else StoreClaim.CLAIMED
        assert self._claim(point, "b", ttl) == expected

    @precondition(lambda self: self.backend == "jsonl")
    @rule()
    def reload(self):
        assert self.stores["a"].reload() == len(self.model.entries)

    @precondition(lambda self: self.backend in ("jsonl", "sqlite"))
    @rule(owner=owners)
    def reopen(self, owner):
        """Close one handle and open the file afresh: records stay, the
        handle's counters restart, and JSONL's in-process leases vanish."""
        old = self.stores[owner]
        old.close()
        fresh = self._open()
        self.stores = {o: (fresh if s is old else s) for o, s in self.stores.items()}
        counters = self.model.counters
        self.model.counters = {
            (id(fresh) if h == id(old) else h): c for h, c in counters.items()
        }
        self.model.counters[id(fresh)] = dict.fromkeys(COUNTERS, 0)
        if self.backend == "jsonl":
            self.model.leases.clear()

    # -- invariants ---------------------------------------------------- #
    @invariant()
    def matches_the_model(self):
        model = self.model
        for store in self.stores.values():
            assert len(store) == len(model.entries)
            assert {e.key: (e.fingerprint, e.values, e.value) for e in store.entries()} == (
                model.entries
            )
            assert {
                f.key: (f.fingerprint, f.values, (f.error, f.kind, f.attempts))
                for f in store.failures()
            } == model.failures
            assert store.failure_count() == len(model.failures)
            assert store.lease_count() == len(model.leases)
            live = sorted(
                (lease["expires_at"], lease["key"], lease["owner"])
                for lease in store.active_leases()
            )
            assert live == sorted(
                (expires_at, key, owner)
                for key, (owner, expires_at) in model.leases.items()
                if expires_at > self.now
            )
            stats = store.stats()
            assert stats["entries"] == len(model.entries)
            assert stats["failures"] == len(model.failures)
            assert {c: stats[c] for c in COUNTERS} == model.counters[id(store)]

    @invariant()
    def stored_and_quarantined_points_hold_no_lease(self):
        for store in self.stores.values():
            leased = {lease["key"] for lease in store.active_leases(now=float("-inf"))}
            stored = {e.key for e in store.entries()}
            quarantined = {f.key for f in store.failures()}
            assert not leased & stored
            assert not leased & quarantined
            assert not stored & quarantined


_SETTINGS = settings(
    max_examples=40,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class MemoryMachine(StoreMachine):
    backend = "memory"


class JsonlMachine(StoreMachine):
    backend = "jsonl"


class SqliteMachine(StoreMachine):
    backend = "sqlite"


TestInMemoryStoreModel = MemoryMachine.TestCase
TestInMemoryStoreModel.settings = _SETTINGS
TestJsonlStoreModel = JsonlMachine.TestCase
TestJsonlStoreModel.settings = _SETTINGS
TestSqliteStoreModel = SqliteMachine.TestCase
TestSqliteStoreModel.settings = _SETTINGS
