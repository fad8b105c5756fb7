"""A growing segment does work only for what is read.

An append builds no index and copies no column: a full slice's temporary
index is built by the first search that reads the slice under its
metric, a vector column is consolidated into one buffer at its first
read and written in place by the appends after it, and ``pk_array`` is
extended rather than rebuilt.  The segment as it was — Euclidean slice
indexes built by the append that fills a slice, a chunk list
re-concatenated on the first read after every append — is
:class:`~tests.reference.scan.ParentRulesSegment`, the reference a
hypothesis state machine holds the shipped segment to: hits, distances
and every ``SearchStats`` counter.
"""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, \
    precondition, rule

from repro.config import SegmentConfig
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.core.segment import Segment
from repro.errors import ManuError, SchemaError
from repro.index.base import SearchStats, create_index
from repro.index.ivf import IvfFlatIndex
from tests.reference.compare import METRICS
from tests.reference.scan import ParentRulesSegment

DIM = 8
SLICE = 32


def schema():
    return CollectionSchema([
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM),
        FieldSchema("price", DataType.FLOAT),
    ])


def config():
    return SegmentConfig(slice_size=SLICE, temp_index_nlist=4,
                         seal_entity_count=10 ** 9)


def batch(rng, n):
    return {"vector": rng.standard_normal((n, DIM)).astype(np.float32),
            "price": rng.uniform(0, 10, n)}


@pytest.fixture
def count_builds(monkeypatch):
    """Every ``IvfFlatIndex.build`` call, as its index's metric."""
    builds = []
    real = IvfFlatIndex.build

    def counting(self, data):
        builds.append(self.metric)
        return real(self, data)

    monkeypatch.setattr(IvfFlatIndex, "build", counting)
    return builds


class TestMisalignedAppends:
    @pytest.mark.parametrize("columns", [
        {"vector": np.zeros((3, DIM), np.float32), "price": np.zeros(2)},
        {"vector": np.zeros((2, DIM), np.float32), "price": np.zeros(3)},
        {"vector": np.zeros((2, DIM + 1), np.float32), "price": np.zeros(2)},
        {"vector": np.zeros(2 * DIM, np.float32), "price": np.zeros(2)},
        {"vector": np.zeros((2, DIM), np.float32), "price": np.zeros(2),
         "colour": ["red", "blue"]},
    ], ids=["vector rows", "scalar rows", "vector dim", "flat vector",
            "unknown column"])
    def test_refused_before_anything_moves(self, rng, columns):
        segment = Segment("s", "c", schema(), config())
        segment.append([10], batch(rng, 1), lsn=1)
        segment.column("vector")            # the next append writes in place
        with pytest.raises(SchemaError) as err:
            segment.append([1, 2], columns, lsn=2)
        assert isinstance(err.value, ManuError)
        assert segment.num_rows == 1 and segment.max_lsn == 1
        assert not segment.contains_pk(1)
        rows = batch(rng, 2)
        segment.append([1, 2], rows, lsn=3)
        np.testing.assert_array_equal(segment.column("vector")[1:],
                                      rows["vector"])
        assert segment.fetch_rows([2])[2]["price"] == rows["price"][1]


class TestMemoryBytes:
    def test_a_dashboard_read_leaves_the_next_search_alone(self, rng):
        outcomes = []
        for look in (False, True):
            segment = Segment("s", "c", schema(), config())
            segment.append(list(range(40)), batch(rng, 40), lsn=1)
            segment.column("vector")
            segment.append(list(range(40, 50)), batch(rng, 10), lsn=2)
            if look:
                assert segment.memory_bytes() == 50 * (4 * DIM + 8)
            stats = SearchStats()
            segment.search("vector", np.zeros(DIM, np.float32), 5,
                           MetricType.EUCLIDEAN, stats=stats)
            outcomes.append((stats.cache_hits, stats.cache_misses))
        assert outcomes[0] == outcomes[1] == (0, 1)

    def test_same_number_as_the_consolidated_columns(self, rng):
        string_schema = CollectionSchema([
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM),
            FieldSchema("price", DataType.FLOAT),
            FieldSchema("label", DataType.STRING)])
        segment = Segment("s", "c", string_schema, config())
        for n in (3, 0, 5):
            columns = batch(rng, n)
            columns["label"] = ["ab" * (i + 1) for i in range(n)]
            segment.append(list(range(segment.num_rows,
                                      segment.num_rows + n)),
                           columns, lsn=1)
            held = segment.memory_bytes()
            assert held == sum(
                value.nbytes if isinstance(value, np.ndarray)
                else sum(len(s) for s in value)
                for value in (segment.column(f) for f in
                              ("vector", "price", "label")))
            assert segment.memory_bytes() == held


class TestWhenSliceIndexesAreBuilt:
    def test_streaming_builds_nothing(self, rng, count_builds):
        segment = Segment("s", "c", schema(), config())
        for start in range(0, 5 * SLICE, 24):
            segment.append(list(range(start, start + 24)), batch(rng, 24),
                           lsn=start + 1)
        assert segment.num_temp_indexes("vector") == 5
        assert count_builds == [] and not segment._temp_indexes["vector"]

    def test_first_search_builds_its_metrics_slices(self, rng,
                                                    count_builds):
        segment = Segment("s", "c", schema(), config())
        segment.append(list(range(3 * SLICE + 5)),
                       batch(rng, 3 * SLICE + 5), lsn=1)
        query = rng.standard_normal(DIM).astype(np.float32)
        segment.search("vector", query, 5, MetricType.EUCLIDEAN)
        assert count_builds == [MetricType.EUCLIDEAN] * 3
        segment.search("vector", query, 5, MetricType.EUCLIDEAN)
        assert len(count_builds) == 3
        segment.search("vector", query, 5, MetricType.COSINE)
        assert count_builds[3:] == [MetricType.COSINE] * 3
        segment.append(list(range(200, 200 + SLICE)), batch(rng, SLICE),
                       lsn=2)
        segment.search("vector", query, 5, MetricType.COSINE)
        assert count_builds[6:] == [MetricType.COSINE]
        assert set(segment._temp_indexes["vector"]) == {
            (s, m) for s in range(3) for m in (MetricType.EUCLIDEAN,
                                                MetricType.COSINE)
        } | {(3, MetricType.COSINE)}

    def test_off_or_sealed_index_reads_no_slice_index(self, rng,
                                                      count_builds):
        off = Segment("s", "c", schema(), config())
        off.temp_index_enabled = False
        off.append(list(range(100)), batch(rng, 100), lsn=1)
        assert off.num_temp_indexes("vector") == 0
        stats = SearchStats()
        off.search("vector", np.zeros(DIM, np.float32), 3,
                   MetricType.EUCLIDEAN, stats=stats)
        assert count_builds == [] and stats.index_scans == 0
        sealed = Segment("t", "c", schema(), config())
        sealed.append(list(range(100)), batch(rng, 100), lsn=1)
        sealed.seal()
        index = create_index("FLAT", MetricType.EUCLIDEAN, DIM)
        index.build(sealed.column("vector"))
        sealed.attach_index("vector", index)
        assert sealed.num_temp_indexes("vector") == 0
        assert sealed.num_temp_indexes("price") == 0


class TestCacheCounters:
    @pytest.mark.parametrize("metric", METRICS)
    def test_a_filled_slice_counts_as_a_read(self, rng, metric):
        """An append that fills a slice counts as a read of the vector
        column (the slice's Euclidean index reads it) whenever the index
        is built; a search that builds another metric's index reads it
        then; any append makes the next scan a miss otherwise."""
        segments = (Segment("g", "c", schema(), config()),
                    ParentRulesSegment("w", "c", schema(), config()))
        query = rng.standard_normal(DIM).astype(np.float32)
        seen = {segment: [] for segment in segments}
        for step in (40, 1, "search", 30, "search", "search", 0, "search"):
            if step == "search":
                for segment in segments:
                    stats = SearchStats()
                    segment.search("vector", query, 5, metric, stats=stats)
                    seen[segment].append((stats.cache_hits,
                                          stats.cache_misses))
                continue
            rows = batch(rng, step)
            for segment in segments:
                first = segment.num_rows
                segment.append(list(range(first, first + step)),
                               dict(rows), lsn=1)
        first_scan = (0, 1) if metric is MetricType.EUCLIDEAN else (1, 0)
        assert seen[segments[0]] == seen[segments[1]] \
            == [first_scan, (1, 0), (1, 0), (0, 1)]


class TestColumnBuffer:
    def test_reads_after_the_first_concatenate_nothing(self, rng,
                                                       monkeypatch):
        segment = Segment("s", "c", schema(), config())
        appended = []

        def add(n):
            rows = batch(rng, n)
            appended.append(rows["vector"])
            first = segment.num_rows
            segment.append(list(range(first, first + n)), rows, lsn=1)

        add(7)
        add(9)
        segment.column("vector")
        calls = []
        real = np.concatenate
        monkeypatch.setattr(np, "concatenate",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        for n in (1, 40, 0, 300):
            add(n)
            assert calls == []
            column = segment.column("vector")
            assert calls == []
            np.testing.assert_array_equal(column, real(appended))
            assert segment.column("vector") is column

    def test_a_view_taken_before_an_append_keeps_its_rows(self, rng):
        segment = Segment("s", "c", schema(), config())
        segment.append(list(range(10)), batch(rng, 10), lsn=1)
        segment.append(list(range(10, 20)), batch(rng, 10), lsn=2)
        before = segment.column("vector")
        kept = before.copy()
        for start in (20, 21, 60):          # in place, then outgrown
            n = 1 if start == 20 else 39 if start == 21 else 100
            segment.append(list(range(start, start + n)), batch(rng, n),
                           lsn=3)
            np.testing.assert_array_equal(before, kept)
            np.testing.assert_array_equal(segment.column("vector")[:20],
                                          kept)
        assert before.shape == (20, DIM)

    def test_an_adopted_chunk_is_never_written_into(self, rng):
        segment = Segment("s", "c", schema(), config())
        chunk = batch(rng, 12)
        segment.append(list(range(12)), chunk, lsn=1)
        column = segment.column("vector")
        assert np.shares_memory(column, chunk["vector"])
        kept = chunk["vector"].copy()
        for start, n in ((12, 0), (12, 5), (17, 30)):
            segment.append(list(range(start, start + n)), batch(rng, n),
                           lsn=2)
            np.testing.assert_array_equal(chunk["vector"], kept)
        assert not np.shares_memory(segment.column("vector"),
                                    chunk["vector"])
        np.testing.assert_array_equal(segment.column("vector")[:12], kept)

    def test_pk_array_is_extended(self, rng):
        segment = Segment("s", "c", schema(), config())
        assert segment.pk_array.shape == (0,)
        expected = []
        for n in (0, 3, 1, 20):
            pks = [f"k{len(expected) + i:03d}" * (1 + (n == 20))
                   for i in range(n)]
            expected += pks
            segment.append(pks, batch(rng, n), lsn=1)
            got = segment.pk_array
            want = np.asarray(expected)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        ints = Segment("t", "c", schema(), config())
        for start in (0, 5):
            ints.append(list(range(start, start + 5)), batch(rng, 5), lsn=1)
            assert ints.pk_array.dtype == np.asarray([1]).dtype
        np.testing.assert_array_equal(ints.pk_array, np.arange(10))


# ----------------------------------------------------------------------
# the shipped segment against the reference, under any history
# ----------------------------------------------------------------------

class AgainstTheReference(RuleBasedStateMachine):
    """Random appends (empty ones, ones crossing slice boundaries),
    deletions, searches (metric, k, nq, mask), ``memory_bytes`` reads,
    column reads and a seal (perhaps with an index), applied to the
    shipped segment and to :class:`ParentRulesSegment` alike."""

    def __init__(self):
        super().__init__()
        self.got = Segment("g", "c", schema(), config())
        self.want = ParentRulesSegment("w", "c", schema(), config())
        self.vectors = []
        self.prices = []
        self.writes = 0

    def both(self):
        return self.got, self.want

    @precondition(lambda self: not self.got.is_sealed)
    @rule(n=st.sampled_from([0, 1, 5, 16, 31, 32, 33, 70]),
          seed=st.integers(0, 2 ** 16))
    def append(self, n, seed):
        rows = batch(np.random.default_rng(seed), n)
        first = self.got.num_rows
        self.writes += 1
        for segment in self.both():
            segment.append(list(range(first, first + n)),
                           {name: value.copy() for name, value in
                            rows.items()}, lsn=self.writes)
        self.vectors.append(rows["vector"])
        self.prices.append(rows["price"])

    @precondition(lambda self: self.got.num_rows > 0)
    @rule(seed=st.integers(0, 2 ** 16))
    def delete(self, seed):
        rng = np.random.default_rng(seed)
        doomed = rng.choice(self.got.num_rows,
                            min(self.got.num_rows, 1 + seed % 9),
                            replace=False).tolist()
        self.writes += 1
        assert self.got.apply_delete(doomed, self.writes) \
            == self.want.apply_delete(doomed, self.writes)

    @rule(metric=st.sampled_from(METRICS), k=st.sampled_from([1, 7, 40]),
          nq=st.sampled_from([1, 3]), seed=st.integers(0, 2 ** 16),
          masked=st.booleans(), brute=st.booleans())
    def search(self, metric, k, nq, seed, masked, brute):
        rng = np.random.default_rng(seed)
        queries = rng.standard_normal((nq, DIM)).astype(np.float32)
        mask = rng.random(self.got.num_rows) < 0.5 if masked else None
        outcomes = []
        for segment in self.both():
            stats = SearchStats()
            block = segment.search("vector", queries, k, metric,
                                   filter_mask=mask, stats=stats,
                                   force_brute=brute)
            outcomes.append((block, stats.as_dict()))
        (got, got_stats), (want, want_stats) = outcomes
        assert got_stats == want_stats
        np.testing.assert_array_equal(got.dists, want.dists)
        np.testing.assert_array_equal(got.pks, want.pks)

    @rule()
    def memory(self):
        assert self.got.memory_bytes() == self.want.memory_bytes()

    @rule()
    def read_columns(self):
        vectors = np.concatenate(self.vectors) if self.vectors \
            else np.empty((0, DIM), np.float32)
        for segment in self.both():
            np.testing.assert_array_equal(segment.column("vector"), vectors)
            np.testing.assert_array_equal(
                segment.column("price"),
                np.concatenate(self.prices) if self.prices else [])

    @precondition(lambda self: not self.got.is_sealed)
    @rule(index_type=st.sampled_from([None, "FLAT", "IVF_FLAT"]))
    def seal(self, index_type):
        for segment in self.both():
            segment.seal()
            if index_type is not None and segment.num_rows:
                index = create_index(index_type, MetricType.EUCLIDEAN, DIM,
                                     **({"nlist": 4, "nprobe": 2}
                                        if index_type == "IVF_FLAT" else {}))
                index.build(segment.column("vector"))
                segment.attach_index("vector", index)

    @invariant()
    def same_rows_and_plans(self):
        np.testing.assert_array_equal(self.got.pk_array,
                                      np.arange(self.got.num_rows))
        np.testing.assert_array_equal(self.got.pk_array,
                                      self.want.pk_array)
        assert self.got.num_temp_indexes("vector") \
            == self.want.num_temp_indexes("vector")
        assert self.got.num_deleted == self.want.num_deleted


AgainstTheReference.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None)
TestAgainstTheReference = AgainstTheReference.TestCase
