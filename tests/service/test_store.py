"""The shared evaluation store: keys, backends, concurrency."""

import json
import threading
from pathlib import Path

import pytest

from repro.service import (
    InMemoryStore,
    JsonlStore,
    SqliteStore,
    StoredEvaluation,
    canonical_params,
    evaluation_key,
    open_store,
)


class TestCanonicalKeys:
    def test_dict_ordering_is_irrelevant(self):
        a = evaluation_key("fp", {"x": 1.0, "y": 2.0})
        b = evaluation_key("fp", {"y": 2.0, "x": 1.0})
        assert a == b

    def test_int_and_float_spellings_are_equal(self):
        assert evaluation_key("fp", {"x": 4}) == evaluation_key("fp", {"x": 4.0})

    def test_different_points_differ(self):
        assert evaluation_key("fp", {"x": 4.0}) != evaluation_key("fp", {"x": 4.0000001})

    def test_different_fingerprints_differ(self):
        assert evaluation_key("fp-a", {"x": 4.0}) != evaluation_key("fp-b", {"x": 4.0})

    def test_canonical_params_sorts_and_coerces(self):
        assert canonical_params({"b": 2, "a": 1.5}) == (("a", 1.5), ("b", 2.0))

    def test_key_is_content_addressed(self):
        # Same content, independently constructed mappings -> same address.
        assert evaluation_key("fp", dict(x=1, y=2)) == evaluation_key(
            "fp", {k: float(v) for k, v in [("y", 2), ("x", 1)]}
        )


class TestInMemoryStore:
    def test_put_get_roundtrip_and_stats(self):
        store = InMemoryStore()
        assert store.get("fp", {"x": 1.0}) is None
        store.put("fp", {"x": 1.0}, 42.0)
        assert store.get("fp", {"x": 1}) == 42.0
        assert len(store) == 1
        assert store.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "puts": 1,
            "lease_conflicts": 0, "failures": 0,
        }

    def test_cross_job_hit_with_reordered_dict(self):
        # Job 1 stores with one ordering; job 2 asks with another.
        store = InMemoryStore()
        store.put("fp", {"core_speed": 2.0**30, "disk_bandwidth": 2.0**25}, 3.5)
        assert store.get("fp", {"disk_bandwidth": 2.0**25, "core_speed": 2.0**30}) == 3.5

    def test_fingerprints_are_isolated(self):
        store = InMemoryStore()
        store.put("fp-a", {"x": 1.0}, 1.0)
        assert store.get("fp-b", {"x": 1.0}) is None
        assert ("fp-a", {"x": 1.0}) in store
        assert ("fp-b", {"x": 1.0}) not in store

    def test_entries_filter_by_fingerprint(self):
        store = InMemoryStore()
        store.put("fp-a", {"x": 1.0}, 1.0)
        store.put("fp-a", {"x": 2.0}, 2.0)
        store.put("fp-b", {"x": 1.0}, 3.0)
        assert len(store.entries()) == 3
        assert len(store.entries("fp-a")) == 2
        assert store.fingerprints() == ["fp-a", "fp-b"]


@pytest.mark.parametrize("suffix", [".jsonl", ".db"])
class TestFileBackends:
    def test_reload_from_disk(self, tmp_path, suffix):
        path = tmp_path / ("store" + suffix)
        store = open_store(path)
        store.put("fp", {"x": 4.0, "y": 8.0}, 12.5)
        store.put("fp", {"x": 2.0, "y": 2.0}, 4.0)
        store.close()

        reopened = open_store(path)
        assert reopened.get("fp", {"y": 8.0, "x": 4}) == 12.5
        assert len(reopened) == 2
        reopened.close()

    def test_concurrent_writers_are_safe(self, tmp_path, suffix):
        path = tmp_path / ("store" + suffix)
        store = open_store(path)
        n_threads, n_points = 8, 25
        errors = []

        def writer(tid):
            try:
                for i in range(n_points):
                    store.put(f"fp-{tid % 2}", {"x": float(tid), "y": float(i)}, tid * 1000.0 + i)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(store) == n_threads * n_points
        store.close()

        # Every entry survives a reload intact (no interleaved/corrupt lines).
        reopened = open_store(path)
        assert len(reopened) == n_threads * n_points
        for tid in range(n_threads):
            for i in range(n_points):
                assert reopened.get(f"fp-{tid % 2}", {"y": float(i), "x": float(tid)}) == (
                    tid * 1000.0 + i
                )
        reopened.close()


class TestJsonlStore:
    def test_lines_are_plain_json(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = JsonlStore(path)
        store.put("fp", {"x": 1.0}, 9.0)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["fingerprint"] == "fp"
        assert lines[0]["value"] == 9.0

    def test_reload_merges_external_appends(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = JsonlStore(path)
        store.put("fp", {"x": 1.0}, 9.0)
        # Another process appends a line...
        other = StoredEvaluation(
            key=evaluation_key("fp", {"x": 2.0}),
            fingerprint="fp",
            values={"x": 2.0},
            value=7.0,
            created_at=0.0,
        )
        with path.open("a") as handle:
            handle.write(json.dumps(other.to_dict()) + "\n")
        assert store.get("fp", {"x": 2.0}) is None  # not yet visible
        assert store.reload() == 2
        assert store.get("fp", {"x": 2.0}) == 7.0


@pytest.fixture
def opened(tmp_path, monkeypatch):
    """The ``(path, handle)`` of every file under ``tmp_path`` opened from
    here on, through ``open`` or ``Path.open``."""
    import builtins
    import io

    calls = []
    real_open = io.open

    def spy(file, *args, **kwargs):
        handle = real_open(file, *args, **kwargs)
        if str(file).startswith(str(tmp_path)):
            calls.append((Path(file), handle))
        return handle

    monkeypatch.setattr(builtins, "open", spy)
    monkeypatch.setattr(io, "open", spy)
    return calls


class TestJsonlHandles:
    def test_each_log_is_opened_once(self, tmp_path, opened):
        store = JsonlStore(tmp_path / "store.jsonl")
        for index in range(50):
            store.put("fp", {"x": float(index)}, float(index))
        store.record_failure("fp", {"x": 99.0}, "boom")
        store.clear_failure("fp", {"x": 99.0})
        store.close()
        paths = [path for path, _ in opened]
        assert sorted(paths) == sorted({store.path, store.failures_path})
        with JsonlStore(tmp_path / "store.jsonl") as reopened:
            assert len(reopened) == 50 and reopened.failure_count() == 0

    def test_close_closes_the_handles_and_a_later_put_reopens(self, tmp_path, opened):
        store = JsonlStore(tmp_path / "store.jsonl")
        store.put("fp", {"x": 1.0}, 1.0)
        store.record_failure("fp", {"x": 2.0}, "boom")
        store.close()
        assert len(opened) == 2 and all(handle.closed for _, handle in opened)
        store.put("fp", {"x": 3.0}, 3.0)
        store.close()
        with JsonlStore(tmp_path / "store.jsonl") as reopened:
            assert reopened.get("fp", {"x": 3.0}) == 3.0

    def test_large_records_from_two_instances_stay_whole_lines(self, tmp_path):
        path = tmp_path / "store.jsonl"
        big = {f"p{index:05d}": float(index) for index in range(6000)}
        assert len(json.dumps(big)) > 64 * 1024
        stores = [JsonlStore(path), JsonlStore(path)]

        def write(tid):
            for index in range(10):
                stores[tid].put(f"fp-{tid}", {**big, "i": float(index)}, float(index))

        threads = [threading.Thread(target=write, args=(tid,)) for tid in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for store in stores:
            store.close()
        lines = path.read_bytes().split(b"\n")
        assert lines.pop() == b"" and len(lines) == 20
        assert all(json.loads(line)["values"]["p05999"] == 5999.0 for line in lines)
        with JsonlStore(path) as reloaded:
            assert len(reloaded) == 20


    def test_a_short_write_is_not_acknowledged(self, tmp_path):
        class Full:
            """A raw handle on a full disk: it takes part of the line."""

            def write(self, data):
                return len(data) // 2

            def close(self):
                pass

        store = JsonlStore(tmp_path / "store.jsonl")
        store._handles["evaluations"] = Full()
        with pytest.raises(OSError, match="short write"):
            store.put("fp", {"x": 1.0}, 1.0)
        store.close()


class TestOpenStore:
    def test_dispatch(self, tmp_path):
        assert isinstance(open_store(None), InMemoryStore)
        assert isinstance(open_store(tmp_path / "a.jsonl"), JsonlStore)
        sqlite_store = open_store(tmp_path / "a.db")
        assert isinstance(sqlite_store, SqliteStore)
        sqlite_store.close()

    def test_memory_spelling_opens_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with open_store(":memory:") as store:
            assert isinstance(store, InMemoryStore)
            store.put("fp", {"x": 1.0}, 1.0)
        assert list(tmp_path.iterdir()) == []
