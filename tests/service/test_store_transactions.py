"""One transaction per protocol step: what the store promises about it.

* a point that is published while a claimer sits between its lock-free
  read and its write lock is a ``hit`` for that claimer, never a second
  ``claimed`` — one rule, stated against all three backends;
* the SQLite backend pays exactly one commit per mutating step and none
  for a read, in a write-ahead log, at SQLite's default ``synchronous``;
  only the lease steps commit at ``NORMAL``, without an fsync.
"""

import sqlite3

import pytest

from repro.service import InMemoryStore, JsonlStore, SqliteStore
from repro.service.store import StoreClaim

POINT = {"x": 4.0, "y": 8.0}


@pytest.fixture(params=["memory", "jsonl", "sqlite"])
def racing_stores(request, tmp_path):
    """``(a, b)``: two handles on one store.  Only SQLite shares state
    between instances; for the in-process backends the race partner is
    the same instance, re-entered from inside ``b``'s claim."""
    if request.param == "sqlite":
        with SqliteStore(tmp_path / "store.db") as a, SqliteStore(tmp_path / "store.db") as b:
            yield a, b
    else:
        store = InMemoryStore() if request.param == "memory" else JsonlStore(tmp_path / "s.jsonl")
        with store:
            yield store, store


def test_a_point_published_between_read_and_write_lock_is_a_hit(racing_stores, monkeypatch):
    a, b = racing_stores
    get = b._get
    raced = []

    def miss_then_lose_the_race(table, key):
        entry = get(table, key)
        if table == "evaluations" and entry is None and not raced:
            raced.append(key)
            assert a.claim("fp", POINT, owner="a").status == StoreClaim.CLAIMED
            a.put("fp", POINT, 42.0)
        return entry

    monkeypatch.setattr(b, "_get", miss_then_lose_the_race)
    outcome = b.claim("fp", POINT, owner="b")

    assert raced, "the fast-path read never missed"
    assert outcome.status == StoreClaim.HIT
    assert outcome.value == 42.0
    assert b.lease_count() == 0
    assert len(b) == 1


class TestSqliteCommitCount:
    @pytest.fixture
    def traced(self, tmp_path):
        """A store plus the list its connection's BEGIN/COMMIT/ROLLBACK
        statements are appended to."""
        statements = []

        def record(sql):
            if sql.split()[0].upper() in ("BEGIN", "COMMIT", "ROLLBACK"):
                statements.append(sql.upper())

        with SqliteStore(tmp_path / "store.db") as store:
            store._conn.set_trace_callback(record)
            yield store, statements

    def test_an_evaluation_is_two_transactions(self, traced):
        store, statements = traced
        assert store.claim("fp", POINT, owner="a").status == StoreClaim.CLAIMED
        assert statements == ["BEGIN IMMEDIATE", "COMMIT"]
        del statements[:]
        store.put("fp", POINT, 1.0)
        assert statements == ["BEGIN IMMEDIATE", "COMMIT"]

    def test_reads_open_no_transaction(self, traced):
        store, statements = traced
        store.put("fp", POINT, 1.0)
        del statements[:]
        assert store.claim("fp", POINT, owner="b").status == StoreClaim.HIT
        assert store.get("fp", POINT) == 1.0
        assert store.peek("fp", POINT) == 1.0
        assert store.get("fp", {"x": 0.0}) is None
        assert ("fp", POINT) in store and len(store) == 1
        assert statements == []

    def test_record_failure_and_release_are_one_commit_each(self, traced):
        store, statements = traced
        store.claim("fp", POINT, owner="a")
        del statements[:]
        store.record_failure("fp", POINT, "boom")
        assert statements == ["BEGIN IMMEDIATE", "COMMIT"]
        del statements[:]
        store.clear_failure("fp", POINT)
        store.claim("fp", POINT, owner="a")
        del statements[:]
        store.release("fp", POINT, owner="a")
        assert statements == ["BEGIN IMMEDIATE", "COMMIT"]

    def test_a_step_that_raises_is_rolled_back_whole(self, traced, monkeypatch):
        store, statements = traced
        store.claim("fp", POINT, owner="a")
        del statements[:]

        delete = store._delete

        def fail(table, key):
            if table == "leases":
                raise RuntimeError("disk on fire")
            delete(table, key)

        monkeypatch.setattr(store, "_delete", fail)
        with pytest.raises(RuntimeError):
            store.put("fp", POINT, 1.0)
        assert statements == ["BEGIN IMMEDIATE", "ROLLBACK"]
        assert len(store) == 0 and store.lease_count() == 1
        monkeypatch.undo()
        store.put("fp", POINT, 1.0)  # the connection is usable again
        assert len(store) == 1 and store.lease_count() == 0


def _default_synchronous(path):
    """What a connection that never heard of this store gets in WAL mode."""
    plain = sqlite3.connect(str(path))
    try:
        plain.execute("PRAGMA journal_mode=WAL")
        return plain.execute("PRAGMA synchronous").fetchone()[0]
    finally:
        plain.close()


def test_only_the_lease_steps_commit_without_an_fsync(tmp_path, monkeypatch):
    default = _default_synchronous(tmp_path / "plain.db")
    relax, restore = [], []
    if default > 1:  # stricter than NORMAL: a lease step relaxes, then restores
        relax, restore = ["PRAGMA SYNCHRONOUS=1"], [f"PRAGMA SYNCHRONOUS={default}"]
    durable = ["BEGIN IMMEDIATE", "COMMIT"]
    lease = [*relax, *durable, *restore]
    statements = []

    def record(sql):
        sql = sql.upper()
        if sql.split()[0] in ("BEGIN", "COMMIT", "ROLLBACK") or sql.startswith(
            "PRAGMA SYNCHRONOUS="
        ):
            statements.append(sql)

    def step(call, *args, **kwargs):
        del statements[:]
        outcome = call("fp", POINT, *args, **kwargs)
        return getattr(outcome, "status", None), list(statements)

    with SqliteStore(tmp_path / "store.db") as store:
        store._conn.set_trace_callback(record)
        assert step(store.claim, owner="a") == (StoreClaim.CLAIMED, lease)
        assert step(store.claim, owner="b") == (StoreClaim.LEASED, lease)
        assert step(store.release, owner="a") == (None, lease)
        assert step(store.claim, owner="a") == (StoreClaim.CLAIMED, lease)
        assert step(store.record_failure, "boom") == (None, durable)
        assert step(store.claim, owner="a") == (StoreClaim.QUARANTINED, lease)
        assert step(store.clear_failure) == (None, durable)
        assert step(store.put, 1.0) == (None, durable)
        assert step(store.claim, owner="a") == (StoreClaim.HIT, [])

        put = store._put

        def fail(table, record):
            if table == "leases":
                raise RuntimeError("disk on fire")
            put(table, record)

        monkeypatch.setattr(store, "_put", fail)
        del statements[:]
        with pytest.raises(RuntimeError):
            store.claim("fp", {"x": 0.0}, owner="a")
        assert statements == [*relax, "BEGIN IMMEDIATE", "ROLLBACK", *restore]
        assert store._conn.execute("PRAGMA synchronous").fetchone() == (default,)


def test_a_store_without_a_write_ahead_log_syncs_every_step(tmp_path, monkeypatch):
    # In a rollback journal NORMAL can corrupt the database file on a power
    # loss, so a store whose filesystem refused WAL relaxes nothing.
    class Refusing(sqlite3.Connection):
        def execute(self, sql, *args):
            if sql == "PRAGMA journal_mode=WAL":
                sql = "PRAGMA journal_mode=DELETE"
            return super().execute(sql, *args)

    connect = sqlite3.connect
    monkeypatch.setattr(sqlite3, "connect", lambda *a, **k: connect(*a, factory=Refusing, **k))
    statements = []
    with SqliteStore(tmp_path / "store.db") as store:
        assert store._conn.execute("PRAGMA journal_mode").fetchone() == ("delete",)

        def record(sql):
            if sql.split()[0].upper() in ("BEGIN", "COMMIT", "ROLLBACK", "PRAGMA"):
                statements.append(sql.upper())

        store._conn.set_trace_callback(record)
        assert store.claim("fp", POINT, owner="a").status == StoreClaim.CLAIMED
        assert store.claim("fp", POINT, owner="b").status == StoreClaim.LEASED
        store.release("fp", POINT, owner="a")
        assert statements == ["BEGIN IMMEDIATE", "COMMIT"] * 3


def _pragma(path, name):
    conn = sqlite3.connect(str(path))
    try:
        return conn.execute(f"PRAGMA {name}").fetchone()[0]
    finally:
        conn.close()


class TestSqliteJournal:
    def test_a_fresh_store_is_write_ahead_logged(self, tmp_path):
        with SqliteStore(tmp_path / "store.db") as store:
            assert store._conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
            store.put("fp", POINT, 1.0)
            assert (tmp_path / "store.db-wal").stat().st_size > 0
        assert _pragma(tmp_path / "store.db", "journal_mode") == "wal"

    def test_a_rollback_journal_file_is_converted_on_open(self, tmp_path):
        path = tmp_path / "store.db"
        with SqliteStore(path) as store:
            store.put("fp", POINT, 1.0)
        conn = sqlite3.connect(str(path))
        assert conn.execute("PRAGMA journal_mode=DELETE").fetchone() == ("delete",)
        conn.close()
        assert _pragma(path, "journal_mode") == "delete"

        with SqliteStore(path) as store:
            assert store._conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
            assert store.get("fp", POINT) == 1.0
        assert _pragma(path, "journal_mode") == "wal"

    def test_synchronous_is_left_at_the_sqlite_default(self, tmp_path):
        # What a connection that never heard of this store gets in WAL mode.
        plain = sqlite3.connect(str(tmp_path / "plain.db"))
        plain.execute("PRAGMA journal_mode=WAL")
        (default,) = plain.execute("PRAGMA synchronous").fetchone()
        plain.close()
        with SqliteStore(tmp_path / "store.db") as store:
            assert store._conn.execute("PRAGMA synchronous").fetchone() == (default,)
