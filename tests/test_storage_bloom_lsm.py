"""Tests for the bloom filter and LSM tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import lsm as lsm_module
from repro.storage.bloom import BloomFilter, key_digest
from repro.storage.lsm import LsmTree, SSTable
from repro.storage.object_store import ObjectStore


class TestBloomFilter:
    def test_no_false_negatives(self, rng):
        bloom = BloomFilter(capacity=500)
        keys = [f"key-{i}" for i in range(500)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(k) for k in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter(capacity=1000, fp_rate=0.01)
        for i in range(1000):
            bloom.add(f"in-{i}")
        fps = sum(bloom.might_contain(f"out-{i}") for i in range(2000))
        assert fps / 2000 < 0.05  # some slack over the 1% target

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter(capacity=10)
        assert not bloom.might_contain("anything")

    def test_serialization_roundtrip(self):
        bloom = BloomFilter(capacity=100)
        for i in range(100):
            bloom.add(f"k{i}")
        again = BloomFilter.from_bytes(bloom.to_bytes())
        assert all(again.might_contain(f"k{i}") for i in range(100))
        assert len(again) == 100

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BloomFilter(0)
        with pytest.raises(ValueError):
            BloomFilter(10, fp_rate=1.5)

    @given(st.sets(st.binary(min_size=1, max_size=20), min_size=1,
                   max_size=100))
    @settings(max_examples=25)
    def test_no_false_negatives_property(self, keys):
        bloom = BloomFilter(capacity=len(keys))
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)

    def test_truncated_or_inconsistent_blob_is_a_storage_error(self):
        bloom = BloomFilter(capacity=20)
        bloom.add_many([f"k{i}" for i in range(20)])
        blob = bloom.to_bytes()
        for cut in range(len(blob)):
            with pytest.raises(StorageError, match="bloom filter"):
                BloomFilter.from_bytes(blob[:cut])
        zero_bits = blob[:8] + bytes(8) + blob[16:]
        with pytest.raises(StorageError, match="offset 28"):
            BloomFilter.from_bytes(zero_bits)


class TestSSTable:
    def test_point_lookup(self):
        table = SSTable([(b"a", b"1"), (b"c", b"3")])
        assert table.get(b"a") == b"1"
        assert table.get(b"b") is None
        assert table.min_key == b"a" and table.max_key == b"c"

    def test_requires_sorted_unique(self):
        with pytest.raises(ValueError):
            SSTable([(b"b", b"1"), (b"a", b"2")])
        with pytest.raises(ValueError):
            SSTable([(b"a", b"1"), (b"a", b"2")])

    def test_serialization_roundtrip(self):
        entries = [(f"k{i:03d}".encode(), f"v{i}".encode())
                   for i in range(50)]
        table = SSTable(entries)
        again = SSTable.from_bytes(table.to_bytes())
        assert list(again.items()) == entries
        assert again.get(b"k025") == b"v25"


    def test_every_truncation_is_a_storage_error(self):
        """Never ``struct.error`` or a numpy reshape from three layers
        down: the error names the blob's kind and where it stopped."""
        entries = [(f"k{i}".encode(), b"seg-%d" % (i % 2))
                   for i in range(5)]
        blob = SSTable(entries).to_bytes()
        for cut in range(len(blob)):
            with pytest.raises(StorageError,
                               match="SSTable|bloom filter") as caught:
                SSTable.from_bytes(blob[:cut])
            assert "offset" in str(caught.value)
        assert list(SSTable.from_bytes(blob).items()) == entries

    def test_garbled_lengths_are_a_storage_error(self):
        blob = SSTable([(b"a", b"1"), (b"c", b"3")]).to_bytes()
        huge = (2**32 - 1).to_bytes(4, "little")
        for at in (4, 8, 12):   # entry count, first klen, first vlen
            with pytest.raises(StorageError, match="truncated at offset"):
                SSTable.from_bytes(blob[:at] + huge + blob[at + 4:])
        with pytest.raises(StorageError, match="bad magic"):
            SSTable.from_bytes(b"XXXX" + blob[4:])


class TestLsmTree:
    def test_put_get(self):
        tree = LsmTree(memtable_limit=4)
        tree.put("a", "1")
        assert tree.get("a") == b"1"
        assert tree.get("missing") is None

    def test_overwrite(self):
        tree = LsmTree(memtable_limit=100)
        tree.put("k", "old")
        tree.put("k", "new")
        assert tree.get("k") == b"new"

    def test_delete_tombstone(self):
        tree = LsmTree(memtable_limit=2)  # force flushes
        tree.put("a", "1")
        tree.put("b", "2")  # flush happens here
        tree.delete("a")
        tree.put("c", "3")  # another flush
        assert tree.get("a") is None
        assert "a" not in tree
        assert tree.get("b") == b"2"

    def test_flush_on_limit(self):
        tree = LsmTree(memtable_limit=3)
        for i in range(9):
            tree.put(f"k{i}", f"v{i}")
        assert tree.num_tables == 3
        assert all(tree.get(f"k{i}") == f"v{i}".encode() for i in range(9))

    def test_newest_version_wins_across_tables(self):
        tree = LsmTree(memtable_limit=2)
        tree.put("x", "v1")
        tree.put("pad1", "p")
        tree.put("x", "v2")
        tree.put("pad2", "p")
        assert tree.get("x") == b"v2"

    def test_items_merged_sorted_live(self):
        tree = LsmTree(memtable_limit=3)
        for i in range(10):
            tree.put(f"k{i}", f"v{i}")
        tree.delete("k4")
        items = list(tree.items())
        keys = [k for k, _ in items]
        assert keys == sorted(keys)
        assert b"k4" not in keys
        assert len(tree) == 9

    def test_compaction_preserves_data(self):
        tree = LsmTree(memtable_limit=2)
        for i in range(10):
            tree.put(f"k{i}", f"v{i}")
        tree.delete("k0")
        tree.compact()
        assert tree.num_tables == 1
        assert tree.get("k0") is None
        assert tree.get("k9") == b"v9"

    def test_persistence_and_recovery(self):
        store = ObjectStore()
        tree = LsmTree(memtable_limit=2, store=store, store_prefix="map")
        for i in range(7):
            tree.put(f"k{i}", f"v{i}")
        tree.flush()
        fresh = LsmTree(memtable_limit=2, store=store, store_prefix="map")
        fresh.recover()
        assert all(fresh.get(f"k{i}") == f"v{i}".encode()
                   for i in range(7))

    def test_compaction_cleans_store(self):
        store = ObjectStore()
        tree = LsmTree(memtable_limit=2, store=store, store_prefix="map")
        for i in range(8):
            tree.put(f"k{i}", f"v{i}")
        assert len(store.list("map/")) >= 4
        tree.compact()
        assert len(store.list("map/")) == 1

    def test_tombstone_value_collision_rejected(self):
        tree = LsmTree()
        with pytest.raises(ValueError):
            tree.put("k", b"\x00__tombstone__")

    @pytest.mark.parametrize("limit", [2, 100])
    def test_rejected_put_many_changes_nothing(self, limit):
        """A colliding value in the middle of a batch: none of the batch
        is applied, not the keys ahead of it either, and nothing is
        flushed."""
        store = ObjectStore()
        tree = LsmTree(memtable_limit=limit, store=store,
                       store_prefix="map")
        tree.put("before", "v")
        before = (list(tree.items()), tree.num_tables, store.list("map/"))
        with pytest.raises(ValueError, match="tombstone"):
            tree.put_many([("a", "1"), ("b", "2"),
                           ("c", b"\x00__tombstone__"), ("d", "4")])
        assert (list(tree.items()), tree.num_tables,
                store.list("map/")) == before
        assert tree.get("a") is None and tree.get("d") is None

    def test_recover_fails_typed_on_a_truncated_blob(self):
        store = ObjectStore()
        tree = LsmTree(memtable_limit=4, store=store, store_prefix="map")
        tree.put_many((f"k{i}", "v") for i in range(4))
        (key,) = store.list("map/")
        store.put(key, store.get(key)[:-9])
        with pytest.raises(StorageError, match="truncated at offset"):
            LsmTree(store=store, store_prefix="map").recover()

    def test_recovered_tree_numbers_its_flushes_after_the_blobs(self):
        store = ObjectStore()
        tree = LsmTree(memtable_limit=2, store=store, store_prefix="map")
        for i in range(6):
            tree.put(f"k{i}", "old")
        fresh = LsmTree(memtable_limit=2, store=store, store_prefix="map")
        fresh.recover()
        fresh.put("k0", "new")
        fresh.put("k1", "new")      # flushes: must not overwrite blob 0
        assert len(store.list("map/")) == 4
        again = LsmTree(store=store, store_prefix="map")
        again.recover()
        assert again.get("k0") == b"new" and again.get("k5") == b"old"

    @given(st.lists(st.tuples(st.sampled_from(["put", "delete"]),
                              st.integers(0, 30),
                              st.integers(0, 5)),
                    max_size=200))
    @settings(max_examples=50)
    def test_model_based_against_dict(self, ops):
        """The LSM tree behaves exactly like a dict under put/delete."""
        tree = LsmTree(memtable_limit=4)
        model: dict[bytes, bytes] = {}
        for op, key_n, val_n in ops:
            key = f"key-{key_n}".encode()
            if op == "put":
                value = f"val-{val_n}".encode()
                tree.put(key, value)
                model[key] = value
            else:
                tree.delete(key)
                model.pop(key, None)
        for key_n in range(31):
            key = f"key-{key_n}".encode()
            assert tree.get(key) == model.get(key)
        assert dict(tree.items()) == model


class TestLsmKeyTypes:
    """Keys and values are ``str`` or bytes-like; an int used to become
    that many zero bytes (``bytes(5)``), so ``put(5, ...)`` stored
    ``b"\\x00" * 5`` and a huge int asked for that many bytes."""

    BAD = [5, -1, ("k",), np.int64(5)]

    @pytest.mark.parametrize("bad", BAD, ids=lambda bad: type(bad).__name__)
    def test_a_key_of_another_type_is_refused(self, bad):
        tree = LsmTree(memtable_limit=2)
        name = type(bad).__name__
        for verb in (lambda: tree.put(bad, "seg"), lambda: tree.get(bad),
                     lambda: tree.delete(bad), lambda: bad in tree):
            with pytest.raises(TypeError, match=name):
                verb()
        assert tree._memtable == {} and tree.num_tables == 0

    @pytest.mark.parametrize("bad", BAD, ids=lambda bad: type(bad).__name__)
    def test_a_value_of_another_type_is_refused(self, bad):
        tree = LsmTree(memtable_limit=2)
        with pytest.raises(TypeError, match=type(bad).__name__):
            tree.put("k", bad)
        assert tree.get("k") is None

    @pytest.mark.parametrize("limit", [2, 100])
    def test_a_rejected_put_many_changes_nothing(self, limit):
        store = ObjectStore()
        tree = LsmTree(memtable_limit=limit, store=store,
                       store_prefix="map")
        tree.put("before", "v")
        before = (dict(tree._memtable), tree.num_tables, store.list("map/"))
        for write in (lambda: tree.put_many([("a", "1"), ("b", "2"),
                                             (7, "3")]),
                      lambda: tree.put_many([("a", "1"), ("b", 7),
                                             ("c", "3")]),
                      lambda: tree.delete_many(["a", "before", 7])):
            with pytest.raises(TypeError, match="int"):
                write()
            assert (tree._memtable, tree.num_tables,
                    store.list("map/")) == before

    def test_bytes_like_keys_are_their_bytes(self):
        tree = LsmTree(memtable_limit=100)
        tree.put(bytearray(b"k1"), memoryview(b"v1"))
        tree.put_many([(memoryview(b"k2"), bytearray(b"v2"))])
        assert tree.get(b"k1") == b"v1" and tree.get(bytearray(b"k2")) == b"v2"
        assert all(type(key) is bytes and type(value) is bytes
                   for key, value in tree._memtable.items())

    def test_a_dict_not_all_bytes_is_its_pairs(self):
        """Only an all-bytes dict skips encoding; any other dict is
        still read as (key, value) pairs, not as its keys."""
        tree = LsmTree(memtable_limit=100)
        tree.put_many({"ab": "cd", b"k": bytearray(b"v"), "é": b"w"})
        assert tree._memtable == {b"ab": b"cd", b"k": b"v",
                                  "é".encode(): b"w"}
        with pytest.raises(TypeError, match="int"):
            tree.put_many({"x": 7})
        assert tree.get("x") is None and tree.get("a") is None


class TestOneDigestLookup:
    """``LsmTree.get`` hashes its key once: every table's bloom filter
    tests the positions of that one digest."""

    @pytest.mark.parametrize("capacity", [1, 7, 64, 1000, 1024, 4099])
    def test_positions_of_a_digest_are_the_block_positions(self, capacity):
        bloom = BloomFilter(capacity)
        keys = [f"k-{i}-é".encode() for i in range(300)] + [b"", b"\x00"]
        block = bloom._positions(keys)
        for key, row in zip(keys, block.tolist()):
            assert bloom.positions_of(key_digest(key)) == row

    def test_no_false_negatives_across_many_tables(self):
        tree = LsmTree(memtable_limit=40)
        for i in range(1000):       # 25 tables of 40 keys, then a tail
            tree.put(f"pk-{i}", f"seg-{i % 3}")
        tree.put_many((f"pk-{i}", "seg-new") for i in range(0, 1000, 97))
        assert tree.num_tables == 25
        for i in range(1000):
            assert tree.get(f"pk-{i}") == (
                b"seg-new" if i % 97 == 0 else f"seg-{i % 3}".encode())
        assert all(tree.get(f"absent-{i}") is None for i in range(300))

    def test_a_lookup_hashes_once(self, monkeypatch):
        tree = LsmTree(memtable_limit=8)
        for i in range(24 * 8):
            tree.put(f"pk-{i}", "seg")
        assert tree.num_tables == 24
        calls = []

        def counting(key):
            calls.append(key)
            return key_digest(key)

        monkeypatch.setattr(lsm_module, "key_digest", counting)
        monkeypatch.setattr(BloomFilter, "_positions", None)
        assert tree.get("pk-0") == b"seg" and tree.get("absent") is None
        assert calls == [b"pk-0", b"absent"]
