"""The SQLite store under real processes: exactly-once, and a kill.

The store's lease protocol is the only arbiter between the processes of a
fleet, so these tests use nothing else: worker *processes* race on one
database file with a zero-cost objective (all of the wall-clock is
claim + put, which is what maximises the chance of a lost race), and a
writer is SIGKILLed between two acknowledged puts, or right after it
acknowledged a claim, whose lease was committed without an fsync.
"""

import multiprocessing
import os
import signal
import time

from repro.service import SqliteStore
from repro.service.store import StoreClaim, evaluation_key

FP = "fp"
KEYS = 200
WORKERS = 3
TIMEOUT = 30.0

# spawn, not fork: the pytest process may carry threads of earlier tests
_SPAWN = multiprocessing.get_context("spawn")


def _point(index):
    return {"x": float(index)}


def _walk_all_keys(path, name, barrier, results):
    """Worker: settle every key — compute it if ``claimed``, poll while
    it is ``leased`` — and report how many this process computed."""
    claimed = 0
    with SqliteStore(path) as store:
        barrier.wait(TIMEOUT)
        for index in range(KEYS):
            while True:
                status = store.claim(FP, _point(index), owner=name, ttl=TIMEOUT).status
                if status == StoreClaim.CLAIMED:
                    store.put(FP, _point(index), float(index))
                    claimed += 1
                if status != StoreClaim.LEASED:
                    break
                time.sleep(0.0002)
    results.put((name, claimed))


def test_three_processes_compute_every_key_exactly_once(tmp_path):
    path = tmp_path / "store.db"
    barrier = _SPAWN.Barrier(WORKERS)
    results = _SPAWN.Queue()
    workers = [
        _SPAWN.Process(target=_walk_all_keys, args=(path, f"w{i}", barrier, results))
        for i in range(WORKERS)
    ]
    for worker in workers:
        worker.start()
    try:
        claimed = dict(results.get(timeout=TIMEOUT) for _ in workers)
    finally:
        for worker in workers:
            worker.join(TIMEOUT)
            if worker.is_alive():
                worker.kill()
    assert [worker.exitcode for worker in workers] == [0] * WORKERS

    assert sum(claimed.values()) == KEYS, claimed
    with SqliteStore(path) as store:
        assert len(store) == KEYS
        assert store.lease_count() == 0
        assert {e.values["x"]: e.value for e in store.entries()} == {
            float(i): float(i) for i in range(KEYS)
        }


def _fill_and_acknowledge(path, acks):
    """Writer: claim and put without end, acknowledging each put only
    after it returned."""
    store = SqliteStore(path)  # never closed: the parent kills this process
    index = 0
    while True:
        store.claim(FP, _point(index), owner="writer")
        store.put(FP, _point(index), float(index))
        acks.send(index)
        index += 1


def test_a_killed_writer_loses_no_acknowledged_put(tmp_path):
    path = tmp_path / "store.db"
    receiver, sender = _SPAWN.Pipe(duplex=False)
    writer = _SPAWN.Process(target=_fill_and_acknowledge, args=(path, sender))
    writer.start()
    sender.close()  # the writer's copy is the only one left: its death is EOF
    acknowledged = []
    try:
        while len(acknowledged) < 50:
            assert receiver.poll(TIMEOUT), "the writer never got going"
            acknowledged.append(receiver.recv())
        os.kill(writer.pid, signal.SIGKILL)
        while True:  # what it acknowledged between our last read and the kill
            try:
                acknowledged.append(receiver.recv())
            except EOFError:
                break
    finally:
        writer.kill()
        writer.join(TIMEOUT)
    assert writer.exitcode == -signal.SIGKILL
    assert acknowledged == list(range(len(acknowledged)))

    # Nobody closed the database, so nothing was checkpointed on the way out.
    wal = tmp_path / "store.db-wal"
    assert wal.stat().st_size > 0

    with SqliteStore(path) as store:
        stored = sorted(e.values["x"] for e in store.entries())
        # A prefix of what the writer did: everything acknowledged, plus at
        # most the one put that committed but whose ack the kill swallowed.
        assert stored == [float(i) for i in range(len(stored))]
        assert len(acknowledged) <= len(stored) <= len(acknowledged) + 1
        (integrity,) = store._conn.execute("PRAGMA integrity_check").fetchone()
        assert integrity == "ok"
        (leased_and_stored,) = store._conn.execute(
            "SELECT COUNT(*) FROM leases WHERE key IN (SELECT key FROM evaluations)"
        ).fetchone()
        assert leased_and_stored == 0
        # the claim it died holding, if any, is for a point it never published
        assert store.lease_count() <= 1
    # The clean close folded the log into the database file and removed it.
    assert not wal.exists()


def _fill_then_hold_a_claim(path, puts, acks):
    """Writer: claim and put ``puts`` points, acknowledging each put, then
    claim one more, acknowledge the claim and wait to be killed."""
    store = SqliteStore(path)  # never closed: the parent kills this process
    for index in range(puts):
        store.claim(FP, _point(index), owner="writer")
        store.put(FP, _point(index), float(index))
        acks.send(("put", index))
    acks.send(("claim", puts, store.claim(FP, _point(puts), owner="writer").status))
    time.sleep(TIMEOUT)


def test_a_killed_claimer_keeps_its_lease(tmp_path):
    path = tmp_path / "store.db"
    puts = 50
    receiver, sender = _SPAWN.Pipe(duplex=False)
    writer = _SPAWN.Process(target=_fill_then_hold_a_claim, args=(path, puts, sender))
    writer.start()
    sender.close()
    acknowledged = []
    try:
        while not acknowledged or acknowledged[-1][0] != "claim":
            assert receiver.poll(TIMEOUT), "the writer stopped acknowledging"
            acknowledged.append(receiver.recv())
        os.kill(writer.pid, signal.SIGKILL)
    finally:
        writer.kill()
        writer.join(TIMEOUT)
    assert writer.exitcode == -signal.SIGKILL
    assert acknowledged == [("put", i) for i in range(puts)] + [
        ("claim", puts, StoreClaim.CLAIMED)
    ]
    assert (tmp_path / "store.db-wal").stat().st_size > 0

    with SqliteStore(path) as store:
        stored = sorted(e.values["x"] for e in store.entries())
        assert stored == [float(i) for i in range(puts)]
        (lease,) = store.active_leases()
        assert lease["key"] == evaluation_key(FP, _point(puts))
        assert lease["owner"] == "writer"
        (integrity,) = store._conn.execute("PRAGMA integrity_check").fetchone()
        assert integrity == "ok"
