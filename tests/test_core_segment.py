"""Tests for segments: growing/sealed lifecycle, slices, deletes, search."""

import numpy as np
import pytest

from repro.config import SegmentConfig
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.core.segment import Segment, SegmentState
from repro.errors import ClusterStateError
from repro.index.base import SearchStats
from repro.index.distances import squared_l2
from repro.index.flat import FlatIndex
from repro.index.ivf import IvfFlatIndex


@pytest.fixture
def schema():
    return CollectionSchema([
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8),
        FieldSchema("price", DataType.FLOAT),
    ])


@pytest.fixture
def config():
    return SegmentConfig(seal_entity_count=100, seal_idle_ms=1000,
                         slice_size=20, temp_index_nlist=4)


def fill(segment, rng, n, lsn=1, start_pk=0):
    pks = list(range(start_pk, start_pk + n))
    segment.append(pks, {
        "vector": rng.standard_normal((n, 8)).astype(np.float32),
        "price": rng.uniform(0, 10, n),
    }, lsn)
    return pks


class TestLifecycle:
    def test_starts_growing(self, schema, config):
        segment = Segment("s1", "c", schema, config)
        assert segment.state is SegmentState.GROWING
        assert not segment.is_sealed

    def test_seal_blocks_appends(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        fill(segment, rng, 5)
        segment.seal()
        with pytest.raises(ClusterStateError):
            fill(segment, rng, 5, start_pk=5)

    def test_should_seal_on_size(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        fill(segment, rng, 100)
        assert segment.should_seal(now_ms=0.0)

    def test_should_seal_on_idle(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        fill(segment, rng, 5)
        assert not segment.should_seal(now_ms=500.0)
        assert segment.should_seal(now_ms=1500.0)

    def test_empty_segment_never_seals(self, schema, config):
        segment = Segment("s1", "c", schema, config)
        assert not segment.should_seal(now_ms=1e9)

    def test_max_lsn_tracks_appends(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        fill(segment, rng, 5, lsn=10)
        fill(segment, rng, 5, lsn=7, start_pk=5)  # stale lsn keeps max
        assert segment.max_lsn == 10


class TestColumns:
    def test_columns_consolidated_across_appends(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        fill(segment, rng, 5)
        fill(segment, rng, 7, start_pk=5)
        assert segment.column("vector").shape == (12, 8)
        assert len(segment.column("price")) == 12

    def test_flush_payload(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        pks = fill(segment, rng, 5, lsn=33)
        got_pks, columns, max_lsn = segment.flush_payload()
        assert got_pks == pks
        assert set(columns) == {"vector", "price"}
        assert max_lsn == 33

    def test_string_columns(self, config, rng):
        schema = CollectionSchema([
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8),
            FieldSchema("label", DataType.STRING),
        ])
        segment = Segment("s1", "c", schema, config)
        segment.append([1, 2], {
            "vector": rng.standard_normal((2, 8)).astype(np.float32),
            "label": ["a", "b"]}, 1)
        assert segment.column("label") == ["a", "b"]


class TestDeletes:
    def test_delete_marks_bitmap(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        pks = fill(segment, rng, 10)
        assert segment.apply_delete([pks[2], pks[5]], 99) == 2
        assert segment.num_deleted == 2
        assert segment.num_live_rows == 8
        assert not segment.contains_pk(pks[2])
        assert segment.contains_pk(pks[0])

    def test_delete_unknown_pk_is_noop(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        fill(segment, rng, 5)
        assert segment.apply_delete([999], 99) == 0

    def test_double_delete_counted_once(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        pks = fill(segment, rng, 5)
        assert segment.apply_delete([pks[0]], 50) == 1
        assert segment.apply_delete([pks[0]], 60) == 0
        assert segment.num_deleted == 1

    def test_delete_ratio(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        pks = fill(segment, rng, 10)
        segment.apply_delete(pks[:3], 99)
        assert segment.delete_ratio == pytest.approx(0.3)

    def test_deleted_rows_never_searched(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        pks = fill(segment, rng, 50)
        query = segment.column("vector")[7]
        results = segment.search("vector", query, 1, MetricType.EUCLIDEAN)
        assert results[0][0].pk == pks[7]
        segment.apply_delete([pks[7]], 99)
        results = segment.search("vector", query, 1, MetricType.EUCLIDEAN)
        assert results[0][0].pk != pks[7]


class TestTempIndexes:
    def test_temp_index_built_per_full_slice(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        fill(segment, rng, 19)
        assert segment.num_temp_indexes("vector") == 0
        fill(segment, rng, 1, start_pk=19)
        assert segment.num_temp_indexes("vector") == 1
        fill(segment, rng, 45, start_pk=20)
        assert segment.num_temp_indexes("vector") == 3

    def test_temp_index_disabled(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        segment.temp_index_enabled = False
        fill(segment, rng, 60)
        assert segment.num_temp_indexes("vector") == 0

    def test_growing_search_covers_indexed_and_tail(self, schema, config,
                                                    rng):
        segment = Segment("s1", "c", schema, config)
        pks = fill(segment, rng, 47)  # 2 full slices + 7-row tail
        vectors = segment.column("vector")
        for probe in (3, 25, 46):  # slice 0, slice 1, tail
            results = segment.search("vector", vectors[probe], 1,
                                     MetricType.EUCLIDEAN)
            assert results[0][0].pk == pks[probe]


class TestSealedIndex:
    def test_attach_index_and_search(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        pks = fill(segment, rng, 80)
        segment.seal()
        index = IvfFlatIndex(MetricType.EUCLIDEAN, 8, nlist=8, nprobe=8)
        index.build(segment.column("vector"))
        segment.attach_index("vector", index)
        assert segment.has_index("vector")
        assert segment.num_temp_indexes("vector") == 0
        results = segment.search("vector", segment.column("vector")[11], 1,
                                 MetricType.EUCLIDEAN)
        assert results[0][0].pk == pks[11]

    def test_attach_mismatched_index_rejected(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        fill(segment, rng, 10)
        index = FlatIndex(MetricType.EUCLIDEAN, 8)
        index.build(rng.standard_normal((5, 8)).astype(np.float32))
        with pytest.raises(ClusterStateError):
            segment.attach_index("vector", index)


class TestFilteredSearch:
    def test_filter_mask_respected(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        pks = fill(segment, rng, 40)
        mask = np.zeros(40, dtype=bool)
        mask[10:20] = True
        query = segment.column("vector")[3]  # best match is masked out
        results = segment.search("vector", query, 5, MetricType.EUCLIDEAN,
                                 filter_mask=mask)
        assert all(10 <= pk < 20 for pk in results[0].pks.tolist())

    def test_force_brute_matches_indexed(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        fill(segment, rng, 60)
        query = rng.standard_normal((1, 8)).astype(np.float32)
        brute = segment.search("vector", query, 5, MetricType.EUCLIDEAN,
                               force_brute=True)
        mixed = segment.search("vector", query, 5, MetricType.EUCLIDEAN)
        # Temp IVF probes all 4 lists (nprobe=nlist//4 >= 1)... allow top-1
        # agreement at minimum; exact agreement on brute tail data.
        assert brute[0][0].pk == mixed[0][0].pk

    def test_wrong_mask_length_raises(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        fill(segment, rng, 10)
        with pytest.raises(ValueError):
            segment.search("vector", np.zeros(8, dtype=np.float32), 1,
                           MetricType.EUCLIDEAN,
                           filter_mask=np.zeros(5, dtype=bool))

    def test_all_filtered_returns_empty(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        fill(segment, rng, 10)
        results = segment.search("vector", np.zeros(8, dtype=np.float32),
                                 3, MetricType.EUCLIDEAN,
                                 filter_mask=np.zeros(10, dtype=bool))
        assert len(results[0]) == 0

    def test_starved_postfilter_escalates_to_exact(self, schema, config,
                                                   rng):
        """Highly selective filters still return correct full results."""
        segment = Segment("s1", "c", schema, config)
        pks = fill(segment, rng, 80)
        segment.seal()
        index = IvfFlatIndex(MetricType.EUCLIDEAN, 8, nlist=8, nprobe=2)
        index.build(segment.column("vector"))
        segment.attach_index("vector", index)
        mask = np.zeros(80, dtype=bool)
        mask[[5, 40, 77]] = True
        query = rng.standard_normal(8).astype(np.float32)
        results = segment.search("vector", query, 3, MetricType.EUCLIDEAN,
                                 filter_mask=mask)
        assert sorted(results[0].pks.tolist()) == [pks[5], pks[40], pks[77]]

    def test_stats_accumulated(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        fill(segment, rng, 30)
        stats = SearchStats()
        segment.search("vector", np.zeros(8, dtype=np.float32), 3,
                       MetricType.EUCLIDEAN, stats=stats)
        assert stats.float_comparisons > 0


class TestMemory:
    def test_memory_bytes_grows(self, schema, config, rng):
        segment = Segment("s1", "c", schema, config)
        fill(segment, rng, 10)
        small = segment.memory_bytes()
        fill(segment, rng, 40, start_pk=10)
        assert segment.memory_bytes() > small


class TestKeptNorms:
    def test_exact_scan_reads_kept_norms_with_squared_l2s_bits(
            self, schema, config, rng):
        """Every vector row's squared norm is kept from the first exact
        scan that reads it (one ``einsum`` over the rows not kept yet)
        and later scans read it: after appends of every size — before and
        after the column's first read, float64 rows among them — deletes
        and a seal, every exact block is ``squared_l2`` over the same rows
        and the kept norms are its own, bit for bit."""
        segment = Segment("s1", "c", schema, config)
        queries = rng.standard_normal((3, 8)).astype(np.float32)

        def check():
            column = segment.column("vector")
            n = segment.num_rows
            allowed = segment.exclusions(None)[0]
            for hi in (n - 1, n):
                for lo in (0, 7, hi - 1):
                    rows, dists = segment.exact_block(
                        "vector", queries, MetricType.EUCLIDEAN, allowed,
                        lo, hi)
                    np.testing.assert_array_equal(
                        dists.view(np.int32),
                        squared_l2(queries, column[rows]).view(np.int32))
            np.testing.assert_array_equal(
                segment._norms["vector"][:n].view(np.int32),
                np.einsum("ij,ij->i", column, column).view(np.int32))

        fill(segment, rng, 16)
        for n in (1, 16, 5, 30):
            fill(segment, rng, n, start_pk=segment.num_rows)
            check()
        segment.append([500, 501], {
            "vector": rng.standard_normal((2, 8)),      # float64
            "price": [1.0, 2.0]}, 1)
        check()
        segment.apply_delete([0, 7, 20, 33, 501], lsn=2)
        check()
        segment.seal()
        check()

    def test_rows_change_only_through_rewrite_vectors(self, schema, config,
                                                      rng):
        """The column is handed out read-only, so no write can leave a
        kept norm stale; ``rewrite_vectors`` writes rows and drops the
        kept norms, and the next exact scan is ``squared_l2``'s again."""
        segment = Segment("s1", "c", schema, config)
        fill(segment, rng, 20)
        queries = rng.standard_normal((2, 8)).astype(np.float32)
        segment.exact_block("vector", queries, MetricType.EUCLIDEAN, None,
                            0, 20)              # keeps every row's norm
        with pytest.raises(ValueError):
            segment.column("vector")[3] = 0.0
        segment.rewrite_vectors("vector", [3, 4], np.full(8, 2.0))
        column = segment.column("vector")
        np.testing.assert_array_equal(column[3:5], np.full((2, 8), 2.0))
        _rows, dists = segment.exact_block(
            "vector", queries, MetricType.EUCLIDEAN, None, 0, 20)
        np.testing.assert_array_equal(
            dists.view(np.int32),
            squared_l2(queries, column).view(np.int32))
