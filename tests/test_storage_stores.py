"""Tests for the object store and the etcd-like metastore."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ObjectNotFound, RevisionConflict, StorageError
from repro.storage.metastore import MetaStore
from repro.storage.object_store import FsBackend, MemoryBackend, ObjectStore


class TestObjectStore:
    def test_put_get_roundtrip(self):
        store = ObjectStore()
        store.put("a/b", b"data")
        assert store.get("a/b") == b"data"

    def test_get_missing_raises(self):
        with pytest.raises(ObjectNotFound):
            ObjectStore().get("nope")

    def test_delete_idempotent(self):
        store = ObjectStore()
        store.put("k", b"v")
        store.delete("k")
        store.delete("k")
        assert not store.exists("k")

    def test_list_prefix(self):
        store = ObjectStore()
        for key in ("a/1", "a/2", "b/1"):
            store.put(key, b"x")
        assert store.list("a/") == ["a/1", "a/2"]
        assert store.list() == ["a/1", "a/2", "b/1"]

    def test_overwrite(self):
        store = ObjectStore()
        store.put("k", b"old")
        store.put("k", b"new")
        assert store.get("k") == b"new"

    def test_stats_tracked(self):
        store = ObjectStore()
        store.put("k", b"12345")
        store.get("k")
        assert store.stats.puts == 1
        assert store.stats.gets == 1
        assert store.stats.bytes_written == 5
        assert store.stats.bytes_read == 5

    def test_cost_charging(self):
        charged = []
        store = ObjectStore(cost_per_request_ms=10.0, cost_per_mb_ms=0.0,
                            charge=charged.append)
        store.put("k", b"v")
        store.get("k")
        assert charged == [10.0, 10.0]

    def test_total_bytes(self):
        store = ObjectStore()
        store.put("p/a", b"123")
        store.put("p/b", b"4567")
        assert store.total_bytes("p/") == 7

    def test_fs_backend_roundtrip(self, tmp_path):
        store = ObjectStore(FsBackend(str(tmp_path)))
        store.put("x/y/z.bin", b"\x00\x01")
        assert store.get("x/y/z.bin") == b"\x00\x01"
        assert store.list("x/") == ["x/y/z.bin"]
        store.delete("x/y/z.bin")
        assert not store.exists("x/y/z.bin")

    def test_fs_backend_rejects_traversal(self, tmp_path):
        backend = FsBackend(str(tmp_path))
        with pytest.raises(StorageError):
            backend.put("../escape", b"x")

    def test_memory_backend_isolation(self):
        backend = MemoryBackend()
        backend.put("k", b"v")
        blob = backend.get("k")
        assert blob == b"v"


class TestMetaStore:
    def test_put_get(self):
        meta = MetaStore()
        meta.put("k", {"a": 1})
        assert meta.get("k").value == {"a": 1}
        assert meta.get_value("k") == {"a": 1}
        assert meta.get("missing") is None
        assert meta.get_value("missing", 42) == 42

    def test_values_are_copies(self):
        meta = MetaStore()
        original = {"nested": [1, 2]}
        meta.put("k", original)
        original["nested"].append(3)
        assert meta.get_value("k") == {"nested": [1, 2]}
        fetched = meta.get_value("k")
        fetched["nested"].append(9)
        assert meta.get_value("k") == {"nested": [1, 2]}

    def test_revisions_increase(self):
        meta = MetaStore()
        r1 = meta.put("a", 1)
        r2 = meta.put("b", 2)
        r3 = meta.put("a", 3)
        assert r1 < r2 < r3
        assert meta.get("a").create_revision == r1
        assert meta.get("a").mod_revision == r3

    def test_cas_success_and_conflict(self):
        meta = MetaStore()
        rev = meta.put("k", "v1", expected_revision=0)
        meta.put("k", "v2", expected_revision=rev)
        with pytest.raises(RevisionConflict):
            meta.put("k", "v3", expected_revision=rev)  # stale
        with pytest.raises(RevisionConflict):
            meta.put("other", "x", expected_revision=99)

    def test_leader_election_pattern(self):
        meta = MetaStore()
        meta.put("leader", "node-a", expected_revision=0)
        with pytest.raises(RevisionConflict):
            meta.put("leader", "node-b", expected_revision=0)

    def test_delete(self):
        meta = MetaStore()
        meta.put("k", 1)
        assert meta.delete("k") is True
        assert meta.delete("k") is False
        assert meta.get("k") is None

    def test_range_and_keys(self):
        meta = MetaStore()
        for key in ("seg/a", "seg/b", "idx/a"):
            meta.put(key, key)
        assert meta.keys("seg/") == ["seg/a", "seg/b"]
        assert [kv.value for kv in meta.range("seg/")] == ["seg/a", "seg/b"]

    def test_watch_delivers_events(self):
        meta = MetaStore()
        events = []
        meta.watch("seg/", events.append)
        meta.put("seg/a", 1)
        meta.put("other", 2)
        meta.delete("seg/a")
        assert [(e.type, e.key) for e in events] == \
            [("put", "seg/a"), ("delete", "seg/a")]

    def test_watch_cancel(self):
        meta = MetaStore()
        events = []
        handle = meta.watch("", events.append)
        meta.put("a", 1)
        handle.cancel()
        meta.put("b", 2)
        assert len(events) == 1

    def test_lease_expiry_deletes_keys(self):
        meta = MetaStore()
        lease = meta.grant_lease(ttl_ms=100, now_ms=0)
        meta.put("node/a", "alive", lease_id=lease)
        assert meta.expire_leases(now_ms=50) == []
        assert meta.get("node/a") is not None
        assert meta.expire_leases(now_ms=150) == [lease]
        assert meta.get("node/a") is None

    def test_keep_alive_extends_lease(self):
        meta = MetaStore()
        lease = meta.grant_lease(ttl_ms=100, now_ms=0)
        meta.put("k", 1, lease_id=lease)
        meta.keep_alive(lease, ttl_ms=100, now_ms=90)
        assert meta.expire_leases(now_ms=150) == []
        assert meta.get("k") is not None

    def test_unknown_lease_rejected(self):
        meta = MetaStore()
        with pytest.raises(RevisionConflict):
            meta.put("k", 1, lease_id=99)
        with pytest.raises(RevisionConflict):
            meta.keep_alive(99, 100, 0)


#: Keys that share prefixes with one another, and the prefixes read.
_KEYS = ("a", "a/b", "a/c", "ab", "ab/x", "b", "b/a", "ba", "")
_PREFIXES = ("", "a", "a/", "ab", "b", "b/", "c", "a/b")
_OPS = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(_KEYS),
              st.integers(0, 9), st.integers(-1, 3)),
    st.tuples(st.just("delete"), st.sampled_from(_KEYS)),
    st.tuples(st.just("grant"), st.integers(1, 50)),
    st.tuples(st.just("expire"), st.integers(0, 60)),
    st.tuples(st.just("revoke"), st.integers(0, 3)))


class TestMetaStoreLeases:
    def test_a_put_under_no_lease_leaves_the_old_one(self):
        """As in etcd, a key put again without its lease (or under
        another) is no longer deleted when the old lease expires."""
        meta = MetaStore()
        lease = meta.grant_lease(10.0, 0.0)
        other = meta.grant_lease(50.0, 0.0)
        meta.put("free", 1, lease_id=lease)
        meta.put("moved", 1, lease_id=lease)
        meta.put("kept", 1, lease_id=lease)
        meta.put("free", 2)
        meta.put("moved", 2, lease_id=other)
        assert meta.expire_leases(20.0) == [lease]
        assert meta.keys() == ["free", "moved"]
        assert meta.expire_leases(60.0) == [other]
        assert meta.keys() == ["free"]


class TestMetaStorePrefixReads:
    """``range`` / ``keys`` / ``field_values`` bisect a sorted key list
    kept on put and delete; they must read what a scan of every key
    reads, whatever history of puts, deletes and lease expiries built
    the store."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_OPS, max_size=60))
    def test_reads_equal_a_scan_of_every_key(self, ops):
        meta = MetaStore()
        model: dict = {}            # key -> (value, lease id)
        deadlines: dict = {}        # lease id -> deadline ms
        leases: list = []
        for op in ops:
            if op[0] == "put":
                _kind, key, value, lease_at = op
                lease = leases[lease_at] if 0 <= lease_at < len(leases) \
                    and leases[lease_at] in deadlines else None
                record = {"f": value} if value % 3 else {"g": value}
                meta.put(key, record, lease_id=lease)
                model[key] = (record, lease)
            elif op[0] == "delete":
                assert meta.delete(op[1]) == (op[1] in model)
                model.pop(op[1], None)
            elif op[0] == "grant":
                lease = meta.grant_lease(float(op[1]), 0.0)
                leases.append(lease)
                deadlines[lease] = float(op[1])
            else:
                if op[0] == "expire":
                    gone = {lease for lease, deadline in deadlines.items()
                            if deadline <= op[1]}
                    assert set(meta.expire_leases(float(op[1]))) == gone
                else:
                    lease = leases[op[1]] if op[1] < len(leases) else -1
                    gone = {lease} & set(deadlines)
                    meta.revoke_lease(lease)
                for lease in gone:
                    del deadlines[lease]
                model = {key: entry for key, entry in model.items()
                         if entry[1] not in gone}
            for prefix in _PREFIXES:
                want = sorted(key for key in model if key.startswith(prefix))
                assert meta.keys(prefix) == want
                assert [(kv.key, kv.value) for kv in meta.range(prefix)] \
                    == [(key, model[key][0]) for key in want]
                assert meta.field_values(prefix, "f") == [
                    (key, model[key][0].get("f")) for key in want]
            assert meta.keys() == sorted(model)
