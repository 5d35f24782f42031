"""The claim/lease single-flight protocol of the evaluation store.

These are the states of the evaluation lifecycle documented in
docs/architecture.md: hit / claimed / leased, lease expiry and takeover,
release on failure, and the cross-process lease table of the SQLite
backend.
"""

import time

import pytest

from repro.core.evaluation import Claim
from repro.service import InMemoryStore, SqliteStore, StoreBackedCache
from repro.service.store import StoreClaim

POINT = {"x": 4.0, "y": 8.0}
OTHER = {"x": 5.0, "y": 9.0}


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        with InMemoryStore() as s:
            yield s
    else:
        with SqliteStore(tmp_path / "store.db") as s:
            yield s


class TestStoreClaims:
    def test_fresh_point_is_claimed(self, store):
        outcome = store.claim("fp", POINT, owner="a")
        assert outcome.status == StoreClaim.CLAIMED
        assert store.lease_count() == 1

    def test_stored_point_is_a_hit_and_needs_no_lease(self, store):
        store.put("fp", POINT, 42.0)
        outcome = store.claim("fp", POINT, owner="a")
        assert outcome.status == StoreClaim.HIT
        assert outcome.value == 42.0
        assert store.lease_count() == 0

    def test_claimed_point_is_leased_to_other_owners(self, store):
        store.claim("fp", POINT, owner="a", ttl=30.0)
        outcome = store.claim("fp", POINT, owner="b")
        assert outcome.status == StoreClaim.LEASED
        assert outcome.owner == "a"
        assert outcome.expires_at > time.time()

    def test_reclaiming_ones_own_point_renews_the_lease(self, store):
        store.claim("fp", POINT, owner="a", ttl=30.0)
        outcome = store.claim("fp", POINT, owner="a")
        assert outcome.status == StoreClaim.CLAIMED
        assert store.lease_count() == 1

    def test_put_finishes_the_claim(self, store):
        store.claim("fp", POINT, owner="a")
        store.put("fp", POINT, 7.0)
        assert store.lease_count() == 0
        outcome = store.claim("fp", POINT, owner="b")
        assert outcome.status == StoreClaim.HIT and outcome.value == 7.0

    def test_release_lets_the_next_owner_take_over(self, store):
        store.claim("fp", POINT, owner="a")
        store.release("fp", POINT, owner="a")
        assert store.claim("fp", POINT, owner="b").status == StoreClaim.CLAIMED

    def test_release_by_a_non_owner_is_a_no_op(self, store):
        store.claim("fp", POINT, owner="a", ttl=30.0)
        store.release("fp", POINT, owner="b")
        assert store.claim("fp", POINT, owner="b").status == StoreClaim.LEASED

    def test_expired_lease_is_taken_over(self, store):
        store.claim("fp", POINT, owner="a", ttl=0.01)
        time.sleep(0.02)
        outcome = store.claim("fp", POINT, owner="b")
        assert outcome.status == StoreClaim.CLAIMED

    def test_leases_are_per_point(self, store):
        store.claim("fp", POINT, owner="a")
        assert store.claim("fp", OTHER, owner="b").status == StoreClaim.CLAIMED

    def test_peek_does_not_claim_or_count(self, store):
        assert store.peek("fp", POINT) is None
        before = store.stats()
        store.put("fp", POINT, 3.0)
        assert store.peek("fp", POINT) == 3.0
        after = store.stats()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]
        assert store.lease_count() == 0


class TestCrossProcessLeases:
    def test_sqlite_lease_is_visible_to_a_second_connection(self, tmp_path):
        """Two SqliteStore instances over one file model two server
        processes: a lease written by one is honoured by the other."""
        path = tmp_path / "store.db"
        with SqliteStore(path) as first, SqliteStore(path) as second:
            assert first.claim("fp", POINT, owner="a", ttl=30.0).status == StoreClaim.CLAIMED
            outcome = second.claim("fp", POINT, owner="b")
            assert outcome.status == StoreClaim.LEASED
            first.put("fp", POINT, 1.5)
            resolved = second.claim("fp", POINT, owner="b")
            assert resolved.status == StoreClaim.HIT and resolved.value == 1.5

    def test_in_memory_leases_die_with_the_store(self):
        """The in-memory backend scopes leases to one process by design."""
        a, b = InMemoryStore(), InMemoryStore()
        a.claim("fp", POINT, owner="a")
        assert b.claim("fp", POINT, owner="b").status == StoreClaim.CLAIMED

    def test_racing_connections_grant_exactly_one_claim(self, tmp_path):
        """The SQLite acquire must be atomic at the database level: two
        connections (modelling two processes — each store instance has its
        own in-process lock, so the lock protects nothing between them)
        racing on the same fresh point must elect exactly one leader."""
        import threading

        path = tmp_path / "store.db"
        with SqliteStore(path) as first, SqliteStore(path) as second:
            for round_index in range(20):
                point = {"x": float(round_index)}
                barrier = threading.Barrier(2)
                outcomes = {}

                def contend(name, store):
                    barrier.wait()
                    outcomes[name] = store.claim("fp", point, owner=name, ttl=30.0)

                threads = [
                    threading.Thread(target=contend, args=("a", first)),
                    threading.Thread(target=contend, args=("b", second)),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                statuses = sorted(o.status for o in outcomes.values())
                assert statuses == [StoreClaim.CLAIMED, StoreClaim.LEASED], outcomes

    def test_stale_release_cannot_drop_a_taken_over_lease(self, tmp_path):
        """An owner whose lease expired and was taken over must not be able
        to release the new owner's lease (atomic owner-guarded delete)."""
        path = tmp_path / "store.db"
        with SqliteStore(path) as store:
            store.claim("fp", POINT, owner="a", ttl=0.01)
            time.sleep(0.02)
            assert store.claim("fp", POINT, owner="b", ttl=30.0).status == StoreClaim.CLAIMED
            store.release("fp", POINT, owner="a")  # stale: must be a no-op
            assert store.claim("fp", POINT, owner="c").status == StoreClaim.LEASED


class TestStoreBackedCacheClaims:
    def test_cache_claim_maps_store_outcomes(self):
        store = InMemoryStore()
        leader = StoreBackedCache(store, "fp")
        follower = StoreBackedCache(store, "fp")
        assert leader.claim((), POINT).status == Claim.CLAIMED
        outcome = follower.claim((), POINT)
        assert outcome.status == Claim.LEASED
        assert follower.poll((), POINT) is None
        leader.put((), POINT, 9.0)
        assert follower.poll((), POINT) == 9.0
        assert follower.claim((), POINT) == Claim(Claim.HIT, 9.0)

    def test_cancel_releases_the_lease(self):
        store = InMemoryStore()
        leader = StoreBackedCache(store, "fp")
        follower = StoreBackedCache(store, "fp")
        leader.claim((), POINT)
        leader.cancel((), POINT)
        assert follower.claim((), POINT).status == Claim.CLAIMED

