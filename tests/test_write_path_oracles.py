"""Oracles of the streamed write path.

Every stage between ``Proxy.insert`` and a sealed binlog does its work once
per batch; what it writes may not differ by a byte from what the per-key
code wrote.  The per-key code, copied verbatim from the commit before the
batch forms replaced it, is the reference in :mod:`tests.reference.build`
— ``reference_*`` / ``Reference*`` — and everything the batch forms
produce is compared with it: bloom-filter bits, SSTable blobs, binlog
column blobs, shard routing, segment bookkeeping, and the object store of
a whole cluster run.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, \
    invariant, rule

from repro.cluster.manu import ManuCluster
from repro.config import ManuConfig, SegmentConfig, StorageConfig
from repro.core.schema import CollectionSchema, DataType, FieldSchema
from repro.core.segment import Segment
from repro.core.tso import TimestampOracle
from repro.log.binlog import BinlogManifest, _column_from_bytes, \
    _column_to_bytes
from repro.log.broker import LogBroker
from repro.log.logger_node import LoggerService, shard_of
from repro.storage.bloom import BloomFilter
from repro.storage.lsm import LsmTree, SSTable
from repro.storage.object_store import ObjectStore
from tests.reference.build import ReferenceBloom, ReferenceSegmentBook, \
    reference_column_to_bytes, reference_rows_by_shard, reference_shard_of, \
    reference_sstable_bytes

_TOMBSTONE = b"\x00__tombstone__"


# ----------------------------------------------------------------------
# key sets
# ----------------------------------------------------------------------

SIZES = (0, 1, 1023, 1024, 5000)


def _keys(kind: str, n: int) -> list:
    if kind == "int-str":       # what the logger writes for INT64 pks
        return [str(i * 7919 - 1000) for i in range(n)]
    if kind == "non-ascii":     # string pks
        return [f"clé-{i}-ключ-{i % 7}-鍵" for i in range(n)]
    if kind == "bytes":
        return [i.to_bytes(3, "big") + b"\x00\xff" * (i % 3)
                for i in range(n)]
    raise AssertionError(kind)


def _encoded(key) -> bytes:
    return key.encode() if isinstance(key, str) else key


KINDS = ("int-str", "non-ascii", "bytes")


# ----------------------------------------------------------------------
# bloom filter
# ----------------------------------------------------------------------

class TestBloomBits:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_add_many_sets_the_bits_of_add(self, kind, n):
        keys = _keys(kind, n)
        reference = ReferenceBloom(max(1, n))
        for key in keys:
            reference.add(key)
        batch = BloomFilter(max(1, n))
        batch.add_many(keys)
        one_by_one = BloomFilter(max(1, n))
        for key in keys:
            one_by_one.add(key)
        for bloom in (batch, one_by_one):
            assert np.array_equal(bloom._bits, reference._bits)
            assert len(bloom) == len(reference) == n
            assert bloom.to_bytes() == reference.reference_to_bytes()
        assert all(key in batch for key in keys[:50])

    def test_duplicates_are_counted_as_add_counts_them(self):
        keys = ["a", "b", "a", "a", b"b"]
        reference = ReferenceBloom(4)
        for key in keys:
            reference.add(key)
        bloom = BloomFilter(4)
        bloom.add_many(keys)
        assert np.array_equal(bloom._bits, reference._bits)
        assert bloom.to_bytes() == reference.reference_to_bytes()

    def test_roundtrip_keeps_every_bit(self):
        bloom = BloomFilter(300)
        bloom.add_many(_keys("non-ascii", 300))
        again = BloomFilter.from_bytes(bloom.to_bytes())
        assert np.array_equal(again._bits, bloom._bits)
        assert again.to_bytes() == bloom.to_bytes()


# ----------------------------------------------------------------------
# SSTable blobs and the memtable in front of them
# ----------------------------------------------------------------------

#: ``m/00000000.sst`` as the commit before this module wrote it, for
#: ``put_many([("7", "seg-a"), ("é-key", "seg-b"), (b"\x00raw",
#: b"seg-a")])`` then ``delete("gone")`` at ``memtable_limit=4``.
PARENT_SSTABLE_BLOB = bytes.fromhex(
    "53535442040000000400000005000000007261777365672d610100000005000000"
    "377365672d61040000000e000000676f6e65005f5f746f6d6273746f6e655f5f06"
    "00000005000000c3a92d6b65797365672d62210000000400000000000000260000"
    "00000000000700000004000000000000009abb379a5c")


class TestSSTableBlobs:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_blob_equals_reference(self, kind, n):
        entries = sorted((_encoded(key), f"seg-{i % 3:06d}".encode())
                         for i, key in enumerate(_keys(kind, n)))
        blob = SSTable(entries).to_bytes()
        assert blob == reference_sstable_bytes(entries)
        again = SSTable.from_bytes(blob)
        assert list(again.items()) == entries
        assert again.to_bytes() == blob

    def test_unsorted_and_duplicate_keys_still_rejected(self):
        for entries in ([(b"b", b"1"), (b"a", b"2")],
                        [(b"a", b"1"), (b"a", b"2")]):
            with pytest.raises(ValueError):
                SSTable(entries)
            with pytest.raises(ValueError):
                reference_sstable_bytes(entries)

    @pytest.mark.parametrize("kind", KINDS)
    def test_memtable_flush_writes_the_reference_blob(self, kind):
        """Duplicates inside one batch: the last write wins, in the blob
        as in a dict."""
        keys = _keys(kind, 700)
        items = [(key, f"seg-{i % 5}") for i, key in enumerate(keys)]
        items += [(key, "seg-again") for key in keys[::9]]
        store = ObjectStore()
        tree = LsmTree(memtable_limit=10_000, store=store,
                       store_prefix="m")
        tree.put_many(items)
        tree.delete_many(keys[::13])
        tree.flush()
        model = {_encoded(k): v.encode() for k, v in items}
        model.update(dict.fromkeys(map(_encoded, keys[::13]), _TOMBSTONE))
        assert store.get("m/00000000.sst") == \
            reference_sstable_bytes(sorted(model.items()))

    def test_flush_points_are_those_of_one_put_at_a_time(self):
        """``put_many`` checks the limit once, after the batch — and a
        batch of one is ``put``."""
        batched, single = ObjectStore(), ObjectStore()
        a = LsmTree(memtable_limit=8, store=batched, store_prefix="m")
        b = LsmTree(memtable_limit=8, store=single, store_prefix="m")
        for lo in range(0, 60, 3):
            a.put_many((str(i), "s") for i in range(lo, lo + 3))
            for i in range(lo, lo + 3):
                b._memtable[str(i).encode()] = b"s"
            if len(b._memtable) >= 8:
                b.flush()
        assert batched.list("m/") == single.list("m/")
        assert all(batched.get(key) == single.get(key)
                   for key in batched.list("m/"))

    def test_recover_reads_the_parent_commits_blob(self):
        store = ObjectStore()
        store.put("m/00000000.sst", PARENT_SSTABLE_BLOB)
        tree = LsmTree(store=store, store_prefix="m")
        tree.recover()
        assert list(tree.items()) == [(b"\x00raw", b"seg-a"),
                                      (b"7", b"seg-a"),
                                      ("é-key".encode(), b"seg-b")]
        assert tree.get("gone") is None and tree.get("7") == b"seg-a"
        # ... and today's serialiser still writes exactly that blob.
        again = ObjectStore()
        tree = LsmTree(memtable_limit=4, store=again, store_prefix="m")
        tree.put_many([("7", "seg-a"), ("é-key", "seg-b"),
                       (b"\x00raw", b"seg-a")])
        tree.delete("gone")
        assert again.get("m/00000000.sst") == PARENT_SSTABLE_BLOB


# ----------------------------------------------------------------------
# binlog column blobs
# ----------------------------------------------------------------------

def _chunked(values, pieces: int) -> list:
    bounds = np.linspace(0, len(values), pieces + 1).astype(int)
    return [values[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


class TestColumnBlobs:
    @pytest.mark.parametrize("pieces", [1, 5])
    def test_float32_matrix(self, rng, pieces):
        matrix = rng.standard_normal((333, 24)).astype(np.float32)
        assert _column_to_bytes(_chunked(matrix, pieces)) == \
            reference_column_to_bytes(matrix)

    @pytest.mark.parametrize("pieces", [1, 5])
    def test_non_contiguous_view_and_float64(self, rng, pieces):
        wide = rng.standard_normal((200, 32))
        view = wide[::2, 1::2]      # float64, strided both ways
        assert not view.flags.c_contiguous
        assert _column_to_bytes(_chunked(view, pieces)) == \
            reference_column_to_bytes(view)

    @pytest.mark.parametrize("pieces", [1, 5])
    def test_int_float_and_string_columns(self, rng, pieces):
        for column in (rng.integers(-5, 10**12, 100),
                       rng.uniform(0, 1, 100),
                       [f"étiquette-{i}" * (i % 4) for i in range(100)]):
            chunks = [np.asarray(chunk)
                      for chunk in _chunked(column, pieces)]
            assert _column_to_bytes(chunks) == \
                reference_column_to_bytes(column)

    def test_roundtrip(self, rng):
        matrix = rng.standard_normal((40, 8)).astype(np.float32)
        back = _column_from_bytes(_column_to_bytes(_chunked(matrix, 3)))
        assert back.dtype == np.float32 and np.array_equal(back, matrix)
        assert back.flags.writeable


# ----------------------------------------------------------------------
# shard routing
# ----------------------------------------------------------------------

class _OneSegmentAllocator:
    def assign_segments(self, collection, shard, num_rows):
        return [(f"{collection}-seg-{shard}", num_rows)]


def _service(num_shards: int) -> LoggerService:
    return LoggerService(TimestampOracle(lambda: 100.0), LogBroker(),
                         ObjectStore(), _OneSegmentAllocator(),
                         num_shards=num_shards)


PK_SETS = {
    "int": [int(pk) for pk in
            np.random.default_rng(3).permutation(4000)[:257] - 2000],
    "str": [f"clé-{i}-鍵" for i in range(257)],
}


class TestShardRouting:
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    @pytest.mark.parametrize("kind", sorted(PK_SETS))
    def test_rows_by_shard_equals_the_per_pk_grouping(self, kind,
                                                      num_shards):
        service = _service(num_shards)
        pks = PK_SETS[kind]
        for batch in (pks, pks[:64], pks[:2], pks[:1]):
            keys = [str(pk).encode() for pk in batch]
            assert service._rows_by_shard(keys) == \
                reference_rows_by_shard(batch, num_shards)

    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_shard_of_is_the_reference_function(self, num_shards):
        for pk in PK_SETS["int"] + PK_SETS["str"] + [2**63 - 1, -2**63]:
            assert shard_of(pk, num_shards) == \
                reference_shard_of(pk, num_shards)

    def test_a_batch_on_one_shard_is_passed_whole(self):
        pks = [pk for pk in range(200) if reference_shard_of(pk, 2) == 1]
        keys = [str(pk).encode() for pk in pks]
        assert _service(2)._rows_by_shard(keys) == [(1, None)]
        assert _service(2)._rows_by_shard([]) == []

    @pytest.mark.parametrize("kind", sorted(PK_SETS))
    def test_lookup_finds_every_key_where_routing_put_it(self, kind):
        from repro.core.entity import EntityBatch
        service = _service(7)
        service.ensure_channels("coll")
        pks = tuple(PK_SETS[kind])
        service.insert("coll", EntityBatch(
            pks=pks, columns={"v": np.ones((len(pks), 2), np.float32)}))
        for pk in pks:
            assert service.lookup_segment("coll", pk) == \
                f"coll-seg-{reference_shard_of(pk, 7)}"


# ----------------------------------------------------------------------
# LsmTree against a dict
# ----------------------------------------------------------------------

_lsm_keys = st.one_of(
    st.integers(0, 30).map(str),
    st.sampled_from(["é", "ключ", "鍵"]),
    st.binary(min_size=1, max_size=3))
_lsm_values = st.sampled_from(["seg-a", "seg-b", b"seg-c", "ségment"])


class LsmMachine(RuleBasedStateMachine):
    """Every write verb, flush, compaction and recovery, at memtable
    limits where each batch trips a flush; after every step the tree
    reads like the dict."""

    @initialize(limit=st.integers(1, 8))
    def setup(self, limit):
        self.limit = limit
        self.store = ObjectStore()
        self.tree = LsmTree(memtable_limit=limit, store=self.store,
                            store_prefix="m")
        self.model: dict[bytes, bytes] = {}
        self.durable: dict[bytes, bytes] = {}

    def _after_write(self):
        # A limit check follows every write verb: at or over the limit
        # the memtable went out, and everything written is durable.
        if not self.tree._memtable:
            self.durable = dict(self.model)

    @rule(items=st.lists(st.tuples(_lsm_keys, _lsm_values), max_size=12))
    def put_many(self, items):
        self.tree.put_many(items)
        self.model.update((_encoded(k), _encoded(v)) for k, v in items)
        self._after_write()

    @rule(keys=st.lists(_lsm_keys, max_size=6))
    def delete_many(self, keys):
        self.tree.delete_many(keys)
        for key in keys:
            self.model.pop(_encoded(key), None)
        self._after_write()

    @rule(key=_lsm_keys, value=_lsm_values)
    def put(self, key, value):
        self.tree.put(key, value)
        self.model[_encoded(key)] = _encoded(value)
        self._after_write()

    @rule(key=_lsm_keys)
    def delete(self, key):
        self.tree.delete(key)
        self.model.pop(_encoded(key), None)
        self._after_write()

    @rule(items=st.lists(st.tuples(_lsm_keys, _lsm_values), max_size=4),
          at=st.integers(0, 4))
    def rejected_put_many_changes_nothing(self, items, at):
        items = list(items)
        items.insert(min(at, len(items)), ("poison", _TOMBSTONE))
        before = (dict(self.tree._memtable), self.tree.num_tables)
        with pytest.raises(ValueError):
            self.tree.put_many(items)
        assert (self.tree._memtable, self.tree.num_tables) == before

    @rule()
    def flush(self):
        self.tree.flush()
        self.durable = dict(self.model)

    @rule()
    def compact(self):
        self.tree.compact()
        self.durable = dict(self.model)
        assert self.tree.num_tables == (1 if self.model else 0)

    @rule()
    def recover(self):
        """A restarted logger sees what reached the object store."""
        self.tree = LsmTree(memtable_limit=self.limit, store=self.store,
                            store_prefix="m")
        self.tree.recover()
        self.model = dict(self.durable)

    @invariant()
    def reads_like_the_dict(self):
        assert list(self.tree.items()) == sorted(self.model.items())
        assert len(self.tree) == len(self.model)
        for key in list(self.model)[:5]:
            assert self.tree.get(key) == self.model[key]
        assert self.tree.get("never-written") is None

    @invariant()
    def every_blob_is_the_reference_blob(self):
        for key in self.store.list("m/"):
            blob = self.store.get(key)
            entries = list(SSTable.from_bytes(blob).items())
            assert blob == reference_sstable_bytes(entries)


LsmMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestLsmMachine = LsmMachine.TestCase


# ----------------------------------------------------------------------
# Segment bookkeeping against lists
# ----------------------------------------------------------------------

_SEGMENT_SCHEMA = CollectionSchema([
    FieldSchema("pk", DataType.INT64, is_primary=True),
    FieldSchema("vector", DataType.FLOAT_VECTOR, dim=4),
    FieldSchema("price", DataType.FLOAT),
])


class SegmentBookMachine(RuleBasedStateMachine):
    """``append`` of random batch sizes (re-appended pks included) and
    ``apply_delete``; the row map, the bitmap and the columns read as the
    per-row reference's."""

    def __init__(self):
        super().__init__()
        self.segment = Segment("s", "c", _SEGMENT_SCHEMA, SegmentConfig(
            seal_entity_count=10**6, slice_size=10**6))
        self.book = ReferenceSegmentBook()
        self.vectors: list = []
        self.prices: list = []
        self.step = 0

    @rule(pks=st.lists(st.integers(0, 60), max_size=40))
    def append(self, pks):
        self.step += 1
        vectors = np.full((len(pks), 4), self.step, dtype=np.float32) \
            + np.arange(len(pks), dtype=np.float32)[:, None]
        prices = np.arange(len(pks), dtype=np.float64) + self.step
        self.segment.append(pks, {"vector": vectors, "price": prices},
                            self.step)
        self.book.append(pks)
        self.vectors.extend(vectors.tolist())
        self.prices.extend(prices.tolist())

    @rule(pks=st.lists(st.integers(0, 70), max_size=8))
    def apply_delete(self, pks):
        self.step += 1
        assert self.segment.apply_delete(pks, self.step) == \
            self.book.apply_delete(pks)

    @invariant()
    def bookkeeping_equals_the_reference(self):
        segment, book = self.segment, self.book
        assert segment.num_rows == len(book.pks)
        assert segment.pks == book.pks
        assert segment.pk_array.tolist() == book.pks
        assert segment._pk_rows == book.pk_rows
        mask = segment.deleted_mask()
        assert mask.dtype == bool and np.array_equal(mask, book.deleted)
        assert len(segment._deleted) == segment.num_rows
        assert segment.num_deleted == book.num_deleted
        assert segment.max_lsn == self.step
        for pk in range(0, 71, 7):
            assert segment.contains_pk(pk) == book.contains_pk(pk)

    @invariant()
    def columns_hold_every_appended_row(self):
        assert self.segment.column("vector").tolist() == self.vectors
        assert self.segment.column("price").tolist() == self.prices

    @invariant()
    def deleted_mask_is_a_copy(self):
        mask = self.segment.deleted_mask()
        mask[:] = True
        assert self.segment.num_deleted == self.book.num_deleted
        assert np.array_equal(self.segment.deleted_mask(),
                              self.book.deleted)


SegmentBookMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestSegmentBookMachine = SegmentBookMachine.TestCase


# ----------------------------------------------------------------------
# a whole cluster run
# ----------------------------------------------------------------------

class TestClusterObjectStore:
    def test_three_segments_write_the_reference_serialisers_bytes(self,
                                                                  rng):
        """Stream rows through a cluster until three segments are sealed
        and flushed, with deletes along the way; every mapping SSTable
        and every binlog column in the object store is, byte for byte,
        what the reference serialisers make of its content — and the
        content is what was inserted."""
        schema = CollectionSchema([
            FieldSchema("pk", DataType.INT64, is_primary=True),
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8),
            FieldSchema("price", DataType.FLOAT),
            FieldSchema("label", DataType.STRING),
        ])
        config = ManuConfig(
            segment=SegmentConfig(seal_entity_count=256, slice_size=128),
            storage=StorageConfig(lsm_memtable_limit=64))
        cluster = ManuCluster(config=config, num_query_nodes=1,
                              num_index_nodes=1, num_loggers=2)
        cluster.create_collection("c", schema)
        n = 600
        pks = rng.permutation(10_000)[:n]
        vectors = rng.standard_normal((n, 8)).astype(np.float32)
        prices = rng.uniform(0, 9, n)
        labels = [f"étiquette-{i % 11}" for i in range(n)]
        for lo in range(0, n, 48):
            hi = min(lo + 48, n)
            cluster.insert("c", {"pk": pks[lo:hi], "vector": vectors[lo:hi],
                                 "price": prices[lo:hi],
                                 "label": labels[lo:hi]})
            cluster.run_for(5.0)
            if lo % 96 == 0:
                cluster.delete("c", f"pk in [{int(pks[lo])}, "
                                    f"{int(pks[lo + 1])}]")
        cluster.flush("c")
        store = cluster.store
        row_of = {int(pk): i for i, pk in enumerate(pks)}

        segments = sorted({key.split("/")[2]
                           for key in store.list("binlog/c/")})
        assert len(segments) >= 3
        seen: set[int] = set()
        for segment_id in segments:
            prefix = f"binlog/c/{segment_id}"
            manifest = BinlogManifest.from_json(
                store.get(f"{prefix}/manifest.json"))
            rows = [row_of[pk] for pk in manifest.pks]
            seen.update(manifest.pks)
            expected = {"vector": vectors[rows], "price": prices[rows],
                        "label": [labels[r] for r in rows]}
            assert set(manifest.fields) == set(expected)
            for field, column in expected.items():
                assert store.get(f"{prefix}/{field}.col") == \
                    reference_column_to_bytes(column), (segment_id, field)
        deleted = {int(pks[lo + d]) for lo in range(0, n, 96)
                   for d in (0, 1)}
        assert seen | deleted == set(row_of) and len(seen) >= n - 2 * 7

        tables = store.list("mapping/c/")
        assert len(tables) >= 4
        mapped: dict[bytes, bytes] = {}
        for key in tables:    # per shard, oldest first: newest wins
            blob = store.get(key)
            entries = list(SSTable.from_bytes(blob).items())
            assert blob == reference_sstable_bytes(entries), key
            shard = int(key.split("/")[2].removeprefix("shard-"))
            assert all(reference_shard_of(k.decode(), 2) == shard
                       for k, _ in entries)
            mapped.update(entries)
        cluster.logger_service.flush_mappings()
        for key in store.list("mapping/c/"):
            mapped.update(SSTable.from_bytes(store.get(key)).items())
        assert {int(k) for k, v in mapped.items() if v != _TOMBSTONE} \
            == set(row_of) - deleted
        assert {int(k) for k, v in mapped.items() if v == _TOMBSTONE} \
            == deleted
