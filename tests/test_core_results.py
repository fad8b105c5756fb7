"""Tests for search results and the two-phase top-k reduce."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.results import (
    HitBatch,
    HitBlock,
    ReduceStats,
    SearchHit,
    SearchResult,
    hits_from_arrays,
    merge_topk,
)
from repro.core.schema import MetricType
from tests.reference.reduce import merge_topk_reference


class TestSearchHit:
    def test_ordering_by_distance(self):
        close = SearchHit(0.5, "a")
        far = SearchHit(2.0, "b")
        assert close < far

    def test_score_for_euclidean_is_sqrt(self):
        hit = SearchHit(9.0, "a")
        assert hit.score_for(MetricType.EUCLIDEAN) == 3.0

    def test_score_for_ip_negates(self):
        hit = SearchHit(-0.8, "a")
        assert hit.score_for(MetricType.INNER_PRODUCT) == 0.8


class TestMergeTopk:
    def test_merges_sorted_lists(self):
        a = [SearchHit(1.0, "a"), SearchHit(3.0, "c")]
        b = [SearchHit(2.0, "b"), SearchHit(4.0, "d")]
        merged = merge_topk([a, b], 3)
        assert [h.pk for h in merged] == ["a", "b", "c"]

    def test_deduplicates_by_pk(self):
        a = [SearchHit(1.0, "x"), SearchHit(3.0, "y")]
        b = [SearchHit(2.0, "x"), SearchHit(2.5, "z")]
        merged = merge_topk([a, b], 10)
        assert [h.pk for h in merged] == ["x", "z", "y"]
        assert merged[0].adjusted_distance == 1.0  # best copy survives

    def test_k_zero(self):
        assert merge_topk([[SearchHit(1.0, "a")]], 0) == []

    def test_empty_lists(self):
        assert merge_topk([], 5) == []
        assert merge_topk([[], []], 5) == []

    @given(st.lists(
        st.lists(st.tuples(st.floats(0, 100), st.integers(0, 40)),
                 max_size=20),
        min_size=1, max_size=5),
        st.integers(1, 15))
    def test_equals_global_sort(self, raw_lists, k):
        """Two-phase reduce == flat sort + dedup (the core invariant)."""
        hit_lists = [sorted(SearchHit(d, pk) for d, pk in lst)
                     for lst in raw_lists]
        merged = merge_topk(hit_lists, k)

        flat = sorted(h for lst in hit_lists for h in lst)
        expected = []
        seen = set()
        for hit in flat:
            if hit.pk not in seen:
                seen.add(hit.pk)
                expected.append(hit.pk)
            if len(expected) >= k:
                break
        assert [h.pk for h in merged] == expected

    @given(st.lists(st.lists(st.tuples(st.floats(0, 100),
                                       st.integers(0, 100)), max_size=15),
                    min_size=1, max_size=4))
    def test_output_sorted_and_unique(self, raw_lists):
        hit_lists = [sorted(SearchHit(d, pk) for d, pk in lst)
                     for lst in raw_lists]
        merged = merge_topk(hit_lists, 10)
        dists = [h.adjusted_distance for h in merged]
        assert dists == sorted(dists)
        pks = [h.pk for h in merged]
        assert len(set(pks)) == len(pks)


class TestHitBatch:
    def test_from_unsorted_sorts_stably(self):
        batch = HitBatch.from_unsorted(["a", "b", "c", "d"],
                                       [2.0, 1.0, 2.0, 1.0])
        assert batch.pks.tolist() == ["b", "d", "a", "c"]
        assert batch.dists.tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_merge_tie_order_matches_streaming_merge(self):
        import heapq
        a = HitBatch(["a1", "a2"], [1.0, 2.0])
        b = HitBatch(["b1", "b2"], [1.0, 2.0])
        merged = merge_topk([a, b], None)
        streamed = list(heapq.merge(a.to_hits(), b.to_hits()))
        assert [(h.pk, h.adjusted_distance) for h in merged.to_hits()] == \
            [(h.pk, h.adjusted_distance) for h in streamed]

    def test_sequence_protocol_materializes_native_hits(self):
        batch = HitBatch(np.asarray([7, 8], dtype=np.int64),
                         np.asarray([0.25, 0.75], dtype=np.float32))
        hit = batch[0]
        assert isinstance(hit, SearchHit)
        assert hit.pk == 7 and type(hit.pk) is int
        assert isinstance(hit.adjusted_distance, float)
        assert [h.pk for h in batch] == [7, 8]
        assert all(type(h.pk) is int for h in batch.to_hits())

    def test_eq_against_hit_list(self):
        batch = HitBatch(["a"], [1.5])
        assert batch == [SearchHit(1.5, "a")]
        assert batch != [SearchHit(2.5, "a")]

    def test_from_hits_heterogeneous_pks_stay_objects(self):
        hits = [SearchHit(0.1, 1), SearchHit(0.2, "x")]
        batch = HitBatch.from_hits(hits)
        assert batch.pks.dtype.kind == "O"
        assert batch.to_hits()[0].pk == 1


def _reference(partial_lists, k):
    return [(h.pk, h.adjusted_distance)
            for h in merge_topk_reference(partial_lists, k)]


def _vectorized(partials, k):
    return [(h.pk, h.adjusted_distance)
            for h in merge_topk(partials, k).to_hits()]


class TestVectorizedEquivalence:
    """merge_topk must stay hit-for-hit identical to the object oracle."""

    CASES = {
        "duplicate_pks_across_replicas": (
            [[(1.0, "x"), (3.0, "y")], [(2.0, "x"), (2.5, "z")],
             [(0.5, "y"), (4.0, "x")]], 10),
        "distance_ties_across_partials": (
            [[(1.0, "a"), (1.0, "b")], [(1.0, "c"), (1.0, "d")]], 4),
        "tie_between_copies_of_same_pk": (
            [[(1.0, "a")], [(1.0, "a"), (1.0, "b")]], 3),
        "k_one": ([[(2.0, 10), (3.0, 11)], [(1.0, 12)]], 1),
        "k_exceeds_total": ([[(1.0, 1)], [(2.0, 2)]], 100),
        "empty_partials_mixed_in": (
            [[], [(1.0, 5)], [], [(0.5, 6)]], 5),
        "all_empty": ([[], []], 5),
        "single_partial": ([[(0.1, 0), (0.2, 1), (0.3, 2)]], 2),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matrix_case(self, name):
        raw, k = self.CASES[name]
        hit_lists = [[SearchHit(d, pk) for d, pk in lst] for lst in raw]
        assert _vectorized(hit_lists, k) == _reference(hit_lists, k)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matrix_case_via_hitbatch(self, name):
        """Same matrix with array-native partials (the hot-path shape)."""
        raw, k = self.CASES[name]
        hit_lists = [[SearchHit(d, pk) for d, pk in lst] for lst in raw]
        batches = [HitBatch.from_hits(lst) for lst in hit_lists]
        assert _vectorized(batches, k) == _reference(hit_lists, k)

    def test_k_zero_returns_empty(self):
        hits = [[SearchHit(1.0, "a")]]
        assert _vectorized(hits, 0) == _reference(hits, 0) == []

    @given(st.lists(
        st.lists(st.tuples(st.floats(0, 100), st.integers(0, 30)),
                 max_size=25),
        min_size=0, max_size=6),
        st.integers(0, 20))
    def test_property_int_pks(self, raw_lists, k):
        hit_lists = [sorted(SearchHit(d, pk) for d, pk in lst)
                     for lst in raw_lists]
        expected = _reference(hit_lists, k)
        assert _vectorized(hit_lists, k) == expected
        batches = [HitBatch.from_hits(lst) for lst in hit_lists]
        assert _vectorized(batches, k) == expected

    @given(st.lists(
        st.lists(st.tuples(st.floats(0, 10),
                           st.sampled_from(["p0", "p1", "p2", "p3"])),
                 max_size=10),
        min_size=1, max_size=4),
        st.integers(1, 8))
    def test_property_str_pks(self, raw_lists, k):
        hit_lists = [sorted(SearchHit(d, pk) for d, pk in lst)
                     for lst in raw_lists]
        batches = [HitBatch.from_hits(lst) for lst in hit_lists]
        assert _vectorized(batches, k) == _reference(hit_lists, k)

    def test_mixed_partial_kinds(self):
        """HitBatch and plain hit-list partials merge interchangeably."""
        as_list = [SearchHit(1.0, "a"), SearchHit(3.0, "c")]
        as_batch = HitBatch(["b", "a"], [2.0, 2.5])
        expected = _reference([as_list, list(as_batch)], 3)
        assert _vectorized([as_list, as_batch], 3) == expected


def _partials(pk, max_hits):
    """``partials[p][q]``: sorted (distance, pk) hits of partial ``p`` for
    query ``q``, one to five partials of one to five query rows."""
    hits = st.lists(st.tuples(st.floats(0, 100, width=32), pk),
                    max_size=max_hits).map(
        lambda row: sorted(row, key=lambda hit: hit[0]))
    return st.integers(1, 5).flatmap(lambda nq: st.lists(
        st.lists(hits, min_size=nq, max_size=nq), min_size=1, max_size=5))


def _block(rows, pk_dtype=None):
    """Rows of (distance, pk) hits as one tail-padded block."""
    return HitBlock.from_batches([
        HitBatch(np.asarray([pk for _d, pk in row], dtype=pk_dtype)
                 if pk_dtype else [pk for _d, pk in row],
                 np.asarray([d for d, _pk in row], dtype=np.float64))
        for row in rows])


class TestBlockMerge:
    """The 2-D merge — every query row of a request at once, at the node
    and at the proxy — against one streaming reference merge per row."""

    @staticmethod
    def _check(partials, k, pk_dtype=None):
        """``partials[p][q]``: the hits of partial ``p`` for query ``q``."""
        nq = len(partials[0])
        stats, ref_stats = ReduceStats(), ReduceStats()
        merged = merge_topk([_block(rows, pk_dtype) for rows in partials],
                            k, stats=stats)
        assert isinstance(merged, HitBlock) and len(merged) == nq
        for q, got in enumerate(merged):
            hit_lists = [[SearchHit(d, pk) for d, pk in rows[q]]
                         for rows in partials]
            if k is None:
                want = merge_topk_reference(hit_lists, 10 ** 9,
                                            stats=ref_stats)
            else:
                want = merge_topk_reference(hit_lists, k, stats=ref_stats)
            assert [(h.pk, h.adjusted_distance) for h in got] == \
                [(h.pk, h.adjusted_distance) for h in want]
            assert merged[q] == got
        assert stats.as_dict() == ref_stats.as_dict()
        if merged.dists.shape[1]:
            sorted_rows = np.sort(merged.dists, axis=1)
            np.testing.assert_array_equal(merged.dists, sorted_rows)
        return merged

    @given(_partials(st.integers(0, 12), 9),
           st.one_of(st.none(), st.integers(0, 12)))
    def test_property_int_pks_duplicates_across_partials(self, partials, k):
        self._check(partials, k)

    @given(_partials(st.sampled_from(["p", "q0", "q11", "long-key"]), 6),
           st.integers(1, 8))
    def test_property_unicode_pks_of_different_widths(self, partials, k):
        merged = self._check(partials, k)
        assert merged.pks.dtype.kind in "UO"

    @given(_partials(st.sampled_from([0, 1, "0", "x", None]), 6),
           st.integers(1, 8))
    def test_property_object_pks(self, partials, k):
        """Heterogeneous pks are not sortable by numpy: the set walk."""
        merged = self._check(partials, k, pk_dtype=object)
        assert merged.pks.dtype.kind == "O"

    def test_empty_rows_and_all_padding_rows(self):
        a = [[(1.0, 7), (2.0, 8)], [], [(0.5, 9)]]
        b = [[(1.5, 8)], [], []]
        merged = self._check([a, b], 5)
        assert [len(row) for row in merged] == [2, 0, 1]
        assert np.isinf(merged.dists[1]).all()
        # A block whose every row is padding, a zero-width block, no hits.
        padded = HitBlock(np.zeros((3, 4), dtype=np.int64),
                          np.full((3, 4), np.inf, dtype=np.float32))
        stats = ReduceStats()
        none = merge_topk([padded, HitBlock.empty(3)], 5, stats=stats)
        assert [len(row) for row in none] == [0, 0, 0]
        assert stats.as_dict() == {"batches_merged": 6, "candidates_in": 0,
                                   "hits_deduped": 0, "hits_out": 0}
        both = merge_topk([padded, _block(a)], 5)
        assert [row.pks.tolist() for row in both] == [[7, 8], [], [9]]

    def test_padding_between_hits_and_its_pk_is_never_a_duplicate(self):
        """A dropped candidate is +inf over its distance, wherever it
        sits, and whatever pk is left under it."""
        pks = np.array([[5, 5, 6, 5, 7]])
        dists = np.array([[np.inf, 1.0, np.inf, 3.0, 2.0]],
                         dtype=np.float32)
        stats = ReduceStats()
        merged = merge_topk([HitBlock(pks, dists)], None, stats=stats)
        assert merged[0].pks.tolist() == [5, 7]
        assert merged[0].dists.tolist() == [1.0, 2.0]
        assert (stats.candidates_in, stats.hits_deduped, stats.hits_out) \
            == (3, 1, 2)

    def test_k_cut_copies_and_k_zero(self):
        wide = _block([[(float(i), i) for i in range(50)]] * 2)
        cut = merge_topk([wide], 3)
        assert cut.pks.shape == (2, 3) and cut.pks.base is None
        assert merge_topk([wide], 0).dists.shape == (2, 0)
        assert merge_topk([wide], None).pks.shape == (2, 50)

    def test_one_query_partials_are_one_row_blocks(self):
        parts = [HitBatch([1, 2], [0.1, 0.3]), HitBatch([2, 3], [0.2, 0.4])]
        row = merge_topk(parts, 3)
        block = merge_topk([HitBlock.from_batches([p]) for p in parts], 3)
        assert isinstance(row, HitBatch) and row == block[0]
        assert row.pks.tolist() == [1, 2, 3]


class TestReduceStatsEquivalence:
    """Profile counters must agree between the vectorized reduce and the
    object oracle — the dedup count in particular, where the oracle's
    short-circuit at k would undercount duplicates that sort after the
    cutoff."""

    # Cases chosen to stress the disagreement surface: duplicates that
    # sort *after* the k-th unique hit, ties, empties, k extremes.
    CASES = {
        "dups_after_cutoff": (
            [[(1.0, "a"), (2.0, "b"), (9.0, "a"), (9.5, "b")],
             [(1.5, "c"), (8.0, "c"), (10.0, "a")]], 2),
        "dups_before_cutoff": (
            [[(1.0, "x"), (1.1, "x")], [(1.05, "x"), (2.0, "y")]], 5),
        "all_duplicates_one_pk": (
            [[(1.0, "p"), (2.0, "p")], [(3.0, "p"), (4.0, "p")]], 1),
        "ties_across_partials": (
            [[(1.0, "a"), (1.0, "b")], [(1.0, "c"), (1.0, "a")]], 3),
        "empty_partials_mixed_in": ([[], [(1.0, 5)], []], 4),
        "all_empty": ([[], [], []], 3),
        "k_exceeds_total": ([[(1.0, 1), (2.0, 2)], [(1.5, 1)]], 50),
        "k_zero": ([[(1.0, "a"), (2.0, "b")]], 0),
    }

    @staticmethod
    def _run_both(raw, k):
        hit_lists = [[SearchHit(d, pk) for d, pk in lst] for lst in raw]
        batches = [HitBatch.from_hits(lst) for lst in hit_lists]
        vec_stats, ref_stats = ReduceStats(), ReduceStats()
        vec = [(h.pk, h.adjusted_distance)
               for h in merge_topk(batches, k, stats=vec_stats).to_hits()]
        ref = [(h.pk, h.adjusted_distance)
               for h in merge_topk_reference(hit_lists, k,
                                             stats=ref_stats)]
        return vec, ref, vec_stats, ref_stats

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_counters_and_hits_agree(self, name):
        raw, k = self.CASES[name]
        vec, ref, vec_stats, ref_stats = self._run_both(raw, k)
        assert vec == ref
        assert vec_stats.as_dict() == ref_stats.as_dict()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stats_do_not_change_hits(self, name):
        """Passing stats must not perturb either path's output."""
        raw, k = self.CASES[name]
        hit_lists = [[SearchHit(d, pk) for d, pk in lst] for lst in raw]
        batches = [HitBatch.from_hits(lst) for lst in hit_lists]
        with_stats = [(h.pk, h.adjusted_distance) for h in
                      merge_topk(batches, k, stats=ReduceStats()).to_hits()]
        assert with_stats == _vectorized(batches, k)
        ref_with = [(h.pk, h.adjusted_distance) for h in
                    merge_topk_reference(hit_lists, k, stats=ReduceStats())]
        assert ref_with == _reference(hit_lists, k)

    @given(st.lists(
        st.lists(st.tuples(st.floats(0, 100), st.integers(0, 8)),
                 max_size=20),
        min_size=0, max_size=5),
        st.integers(0, 12))
    def test_property_counter_agreement(self, raw_lists, k):
        raw = [[(d, pk) for d, pk in lst] for lst in raw_lists]
        raw = [sorted(lst) for lst in raw]
        vec, ref, vec_stats, ref_stats = self._run_both(raw, k)
        assert vec == ref
        assert vec_stats.as_dict() == ref_stats.as_dict()

    def test_counter_semantics_on_known_input(self):
        # Two batches of 2, pk "a" duplicated (its dup sorts last —
        # after the k=2 cutoff), 4 candidates in, 3 unique, 2 kept.
        raw = [[(1.0, "a"), (2.0, "b")], [(1.5, "c"), (9.0, "a")]]
        vec, ref, vec_stats, ref_stats = self._run_both(raw, 2)
        for stats in (vec_stats, ref_stats):
            assert stats.batches_merged == 2
            assert stats.candidates_in == 4
            assert stats.hits_deduped == 1
            assert stats.hits_out == 2


class TestHelpers:
    def test_hits_from_arrays_sorted(self):
        hits = hits_from_arrays(["a", "b", "c"], np.array([3.0, 1.0, 2.0]))
        assert [h.pk for h in hits] == ["b", "c", "a"]

    def test_search_result_holds_a_batch_and_reads_its_arrays(self):
        """One result type: a list of hits is packed into a HitBatch, and
        pks / distances / scores are plain lists read from the arrays."""
        hits = [SearchHit(1.0, "a"), SearchHit(4.0, 7)]  # mixed pk types
        result = SearchResult(hits=hits, metric=MetricType.EUCLIDEAN)
        assert isinstance(result.hits, HitBatch)
        assert result.hits == hits and list(result) == hits
        assert result.hits[1] == hits[1] and result.hits[:1] == hits[:1]
        assert (result.pks, result.distances, result.scores) \
            == (["a", 7], [1.0, 4.0], [1.0, 2.0])
        assert all(type(x) is float for x in
                   result.distances + result.scores)
        batch = HitBatch(np.array([3, 1]), np.array([-0.5, 2.0],
                                                    dtype=np.float32))
        result = SearchResult(hits=batch, metric=MetricType.INNER_PRODUCT)
        assert result.hits is batch
        assert (result.pks, result.scores) == ([3, 1], [0.5, -2.0])
        assert type(result.pks[0]) is int
        empty = SearchResult(hits=[], metric=MetricType.COSINE)
        assert (empty.pks, empty.distances, empty.scores) == ([], [], [])
        assert not empty.pks and len(empty) == 0

    def test_merge_topk_without_k_keeps_every_unique_hit(self):
        parts = [HitBatch(np.array([1, 2, 3]), np.array([0.1, 0.4, 0.9])),
                 HitBatch(np.array([2, 4]), np.array([0.2, 0.3]))]
        stats = ReduceStats()
        merged = merge_topk(parts, None, stats=stats)
        assert merged.pks.tolist() == [1, 2, 4, 3]
        assert merged.dists.tolist() == [0.1, 0.2, 0.3, 0.9]
        assert (stats.candidates_in, stats.hits_deduped, stats.hits_out) \
            == (5, 1, 4)
        assert merged == merge_topk(parts, 5)
        assert len(merge_topk([], None)) == 0

    def test_search_result_accessors(self):
        result = SearchResult(
            hits=[SearchHit(4.0, 1), SearchHit(9.0, 2)],
            metric=MetricType.EUCLIDEAN, latency_ms=1.5)
        assert result.pks == [1, 2]
        assert result.scores == [2.0, 3.0]
        assert len(result) == 2
        assert list(result)[0].pk == 1
