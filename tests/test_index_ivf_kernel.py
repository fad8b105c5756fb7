"""The list-major IVF scan and the block post-filter against their oracles.

``IVF_FLAT`` / ``IVF_HNSW`` scan the probed lists list by list for the whole
query block (one GEMM per distinct list, one batched top-k) and
``Segment._search_with_index`` filters the ``(nq, k_amplified)`` candidate
block at once.  The loops they replaced — one probe/concatenate/scan per
query, one post-filter walk per result row — are the reference, in
:mod:`tests.reference.scan`.

The kernel ranks by ``|v|^2 / 2 - q.v`` instead of ``|q|^2 - 2 q.v + |v|^2``,
so distances are compared within a tolerance fixed beforehand from the dtype
and the data's scale, and ids within a run of equal distances as sets.  The
segment layer only rearranges what the index returned: it must match its
oracle hit for hit, bit for bit, counter for counter.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SegmentConfig
from repro.core.results import HitBlock
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.core.segment import Segment
from repro.index import ivf
from repro.index.base import STAT_FIELDS, SearchStats, create_index, \
    index_from_bytes
from repro.index.distances import adjusted_distances, topk_smallest
from repro.index.hnsw import HnswIndex
from repro.index.ivf import FlatCodec, InvertedLists, IvfFlatIndex, \
    ListArena
from repro.index.ivf_hnsw import IvfHnswIndex
from tests.reference.compare import DIM, METRICS, \
    assert_batches_equal, assert_batches_equal_up_to_ties, \
    assert_hits_within_tolerance, built_index, clustered, make_corpus, \
    tolerance
from tests.reference.scan import lists_of, loop_decode_scan, \
    oracle_allowed, oracle_flat_search, oracle_segment_search, oracle_topk


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(5)


@pytest.fixture(scope="module")
def built(corpus):
    return {metric: built_index(corpus, "IVF_FLAT", metric, nlist=16,
                                nprobe=8)
            for metric in METRICS}


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------

class TestListMajorKernel:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("nq", [1, 3, 64])
    @pytest.mark.parametrize("k", [1, 10, 700])     # 700 > any candidates
    @pytest.mark.parametrize("nprobe", [1, 8, 40])  # 40 >= nlist
    def test_matches_per_query_loop(self, corpus, built, metric, nq, k,
                                    nprobe):
        data, queries = corpus
        index = built[metric]
        want_ids, want_dists, want_compared = oracle_flat_search(
            index, data, queries[:nq], k, nprobe)
        got = index.search(queries[:nq], k, nprobe=nprobe)
        assert_hits_within_tolerance(got, (want_ids, want_dists), data,
                                     queries[:nq], metric,
                                     tolerance(data, queries, metric))
        assert index.stats.float_comparisons == want_compared
        assert index.stats.as_dict() == {
            **SearchStats().as_dict(), "float_comparisons": want_compared}

    def test_storage_is_the_lists_sorted(self, corpus, built):
        data, _ = corpus
        for metric, index in built.items():
            stored = index._lists
            assert sorted(stored.ids.tolist()) == list(range(len(data)))
            assert stored.offsets[0] == 0 and stored.offsets[-1] == len(data)
            for members in lists_of(index):
                assert (np.diff(members) > 0).all()
            np.testing.assert_array_equal(index.list_sizes(),
                                          np.diff(stored.offsets))
            rows = data[stored.ids]
            assert stored.codes.shape == data.shape
            if metric is MetricType.COSINE:
                np.testing.assert_allclose(
                    np.linalg.norm(stored.codes, axis=1), 1.0, atol=1e-6)
            else:
                np.testing.assert_array_equal(stored.codes, rows)
            if metric is MetricType.EUCLIDEAN:
                np.testing.assert_array_equal(
                    stored.norms[:len(rows)],
                    np.einsum("ij,ij->i", rows, rows))
            else:
                assert stored.norms is None

    def test_unbuilt_index_has_no_lists(self):
        index = IvfFlatIndex(MetricType.EUCLIDEAN, DIM)
        assert index.effective_nlist == 0
        assert index.list_sizes().tolist() == []

    @pytest.mark.parametrize("metric", METRICS)
    def test_empty_query_block(self, corpus, built, metric):
        index = built[metric]
        ids, dists = index.search(np.zeros((0, DIM), dtype=np.float32), 7)
        assert ids.shape == dists.shape == (0, 7)
        assert ids.dtype == np.int64 and dists.dtype == np.float32
        assert index.stats.float_comparisons == 0

    @pytest.mark.parametrize("metric", METRICS)
    def test_fewer_rows_than_lists(self, metric):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((5, DIM)).astype(np.float32)
        queries = rng.standard_normal((3, DIM)).astype(np.float32)
        index = IvfFlatIndex(metric, DIM, nlist=16, nprobe=16)
        index.build(data)
        assert index.effective_nlist == 5
        want_ids, want_dists, compared = oracle_flat_search(
            index, data, queries, 10, 16)
        ids, dists = index.search(queries, 10)
        assert_hits_within_tolerance((ids, dists), (want_ids, want_dists),
                                     data, queries, metric,
                                     tolerance(data, queries, metric))
        assert (ids[:, 5:] == -1).all() and np.isinf(dists[:, 5:]).all()
        assert index.stats.float_comparisons == compared

    @pytest.mark.parametrize("metric", METRICS)
    def test_empty_list_and_unprobed_slots(self, metric):
        """List 1 has no members; ``-1`` marks a slot that probes nothing
        (what the IVF_HNSW centroid graph returns when it finds fewer)."""
        rng = np.random.default_rng(2)
        data = rng.standard_normal((40, DIM)).astype(np.float32)
        queries = rng.standard_normal((4, DIM)).astype(np.float32)
        assignments = np.where(np.arange(40) % 3 == 0, 0, 2)
        stored = InvertedLists(data, assignments, 3, FlatCodec(metric),
                               metric)
        lists = [np.flatnonzero(assignments == c) for c in range(3)]
        assert stored.sizes.tolist() == [14, 0, 26, 0]
        probe_lists = np.array([[1, 0, 2], [1, -1, -1], [2, 1, -1],
                                [-1, -1, 0]])
        stats = SearchStats()
        want = loop_decode_scan(lists, [data[m] for m in lists],
                                FlatCodec(metric), metric, queries,
                                probe_lists, 30, stats)
        *got, compared = stored.scan((0,), queries, probe_lists[None], 30)
        assert compared[0] == stats.float_comparisons == 40 + 0 + 26 + 14
        assert_hits_within_tolerance(got[:2], want, data, queries, metric,
                                     tolerance(data, queries, metric))
        assert (got[0][1] == -1).all() and np.isinf(got[1][1]).all()
        assert (got[0][0] >= 0).all()       # 40 candidates >= k = 30

    @pytest.mark.parametrize("metric", METRICS)
    def test_duplicate_vectors(self, metric):
        """Exact ties: distances as the oracle's, ids as sets per tie."""
        rng = np.random.default_rng(3)
        base = clustered(rng, 40)
        data = np.repeat(base, 6, axis=0)           # 6 copies of each row
        queries = clustered(rng, 9)
        index = IvfFlatIndex(metric, DIM, nlist=8, nprobe=3)
        index.build(data)
        for k in (6, 12, 15):
            want_ids, want_dists, compared = oracle_flat_search(
                index, data, queries, k, 3)
            got = index.search(queries, k)
            assert_hits_within_tolerance(got, (want_ids, want_dists), data,
                                         queries, metric,
                                         tolerance(data, queries, metric))
            assert index.stats.float_comparisons == compared

    def test_zero_vectors_cosine(self):
        """Zero rows and zero queries score 0, as in ``cosine``."""
        rng = np.random.default_rng(4)
        data = rng.standard_normal((50, DIM)).astype(np.float32)
        data[::7] = 0.0
        queries = rng.standard_normal((3, DIM)).astype(np.float32)
        queries[1] = 0.0
        index = IvfFlatIndex(MetricType.COSINE, DIM, nlist=4, nprobe=4)
        index.build(data)
        want_ids, want_dists, _ = oracle_flat_search(index, data, queries,
                                                     50, 4)
        ids, dists = index.search(queries, 50)
        np.testing.assert_allclose(dists, want_dists, rtol=0, atol=1e-5)
        assert (dists[1] == 0.0).all()
        assert sorted(ids[0].tolist()) == list(range(50))

    def test_scratch_block_is_bounded(self, corpus, built, monkeypatch):
        """A block too large for the scratch cap is scanned in passes."""
        data, queries = corpus
        index = built[MetricType.EUCLIDEAN]
        one_pass = index.search(queries, 10)
        compared = index.stats.float_comparisons
        calls = []
        real = ListArena._scan_pass

        def counting(self, scope, block, *args):
            calls.append(block.shape[0])
            return real(self, scope, block, *args)

        monkeypatch.setattr(ListArena, "_scan_pass", counting)
        monkeypatch.setattr(
            ivf, "_SCAN_BLOCK_FLOATS",
            10 * index.nprobe * index._lists.max_list_size)
        passes = index.search(queries, 10)
        assert calls == [10] * 6 + [4]
        # BLAS may round a dot product differently in a GEMM of another
        # height, so across groupings distances agree to rounding only.
        assert_hits_within_tolerance(passes, one_pass, data, queries,
                                     MetricType.EUCLIDEAN,
                                     tolerance(data, queries,
                                               MetricType.EUCLIDEAN))
        assert index.stats.float_comparisons == compared

    @pytest.mark.parametrize("cls", [IvfFlatIndex, IvfHnswIndex])
    @pytest.mark.parametrize("metric", METRICS)
    def test_pickle_round_trip(self, corpus, cls, metric):
        """What the lists derive (the per-list views) is not pickled: the
        lists pickle as long before a search as after, and a clone searches
        bit for bit alike."""
        data, queries = corpus
        index = cls(metric, DIM, nlist=16, nprobe=4)
        index.build(data)
        blob = pickle.dumps(index._lists)
        ids, dists = index.search(queries, 10)
        stats = index.stats.as_dict()
        assert not set(index._lists.__getstate__()) \
            & set(InvertedLists._DERIVED)
        assert len(pickle.dumps(index._lists)) == len(blob)
        for clone in (index_from_bytes(index.to_bytes()),
                      pickle.loads(pickle.dumps(index))):
            assert isinstance(clone, cls) and clone.ntotal == len(data)
            clone_ids, clone_dists = clone.search(queries, 10)
            np.testing.assert_array_equal(clone_ids, ids)
            np.testing.assert_array_equal(clone_dists.view(np.int32),
                                          dists.view(np.int32))
            assert clone.stats.as_dict() == stats

    @pytest.mark.parametrize("metric", METRICS)
    def test_ivf_hnsw_is_ivf_flat_on_the_same_lists(self, corpus, metric):
        """Same k-means seed, so the same lists; with every list probed the
        coarse quantiser no longer matters and the results must agree."""
        data, queries = corpus
        flat = IvfFlatIndex(metric, DIM, nlist=16, nprobe=16)
        graph = IvfHnswIndex(metric, DIM, nlist=16, nprobe=16, ef_search=64)
        flat.build(data)
        graph.build(data)
        np.testing.assert_array_equal(graph._lists.ids, flat._lists.ids)
        probed, _ = graph.bucketer.graph.search(queries, 16)
        assert (np.sort(probed, axis=1) == np.arange(16)).all()
        tol = tolerance(data, queries, metric)
        for k in (1, 10):
            want = flat.search(queries, k)
            scanned = flat.stats.float_comparisons - queries.shape[0] * 16
            got = graph.search(queries, k)
            assert_hits_within_tolerance(got, want, data, queries, metric, tol)
            assert graph.stats.float_comparisons \
                == graph.bucketer.graph.stats.float_comparisons + scanned

    @pytest.mark.parametrize("metric", METRICS)
    def test_ivf_hnsw_matches_per_query_loop(self, corpus, metric):
        """Few probes: whatever lists the centroid graph picks, the scan
        over them is the oracle's."""
        data, queries = corpus
        index = IvfHnswIndex(metric, DIM, nlist=16, nprobe=3)
        index.build(data)
        probed, _ = index.bucketer.graph.search(queries, 3)
        coarse = index.bucketer.graph.stats.float_comparisons
        lists, stats = lists_of(index), SearchStats()
        want = loop_decode_scan(lists, [data[m] for m in lists],
                                FlatCodec(metric), metric, queries, probed,
                                10, stats)
        got = index.search(queries, 10)
        assert_hits_within_tolerance(got, want, data, queries, metric,
                                     tolerance(data, queries, metric))
        assert index.stats.float_comparisons \
            == coarse + stats.float_comparisons


def test_one_query_gemv_rounds_as_the_gemm_row():
    """The scan scores a list that one query probes with a 1-D GEMV,
    ``np.dot(codes, q)``, and any other list with the GEMM
    ``left @ codes.T``: a list's distances must not depend on how many
    queries probe it.  That rests on one fact about the BLAS, pinned
    here over list sizes 1-1000 and list views that start anywhere."""
    rng = np.random.default_rng(11)
    for dim in (DIM, 128):
        codes = rng.standard_normal((1100, dim)).astype(np.float32)
        left = -2.0 * rng.standard_normal((1, dim)).astype(np.float32)
        for size in range(1, 1001):
            start = int(rng.integers(0, 100))
            view = codes[start:start + size]
            gemv = np.empty(size, dtype=np.float32)
            np.dot(view, left[0], out=gemv)
            row = np.matmul(left, view.T)[0]
            assert np.array_equal(gemv.view(np.int32), row.view(np.int32)), (
                f"this BLAS rounds the 1-D GEMV of a {size} x {dim} list "
                f"differently from the one-row GEMM: the scan's one-query "
                f"list groups assume they agree bit for bit")


def test_stacked_coarse_gemv_rounds_as_each_members_own():
    """At one query, a node arena's coarse step is one GEMV over the flat
    members' centroid factors stacked in C order (``ArenaIndex._stack``),
    the rows of any run of whole members of it; a member joins the stack
    only where its nlist is a multiple of 4.  Each member's products must
    be the bits of its own ``matmul(left, factor)``.  That rests on one
    fact about the BLAS — a GEMV row's bits depend only on whether the
    row lies in the call's last ``n mod 4`` rows — pinned here over
    stacks of members with nlist in {4, 8, 16, 64, 128}, in any order and
    over any run of them."""
    rng = np.random.default_rng(12)
    for dim in (DIM, 100, 128):
        for _ in range(40):
            nlists = rng.permutation([4, 8, 16, 64, 128] * 2).tolist()
            factors = [(rng.standard_normal((nlist, dim)) * -2.0)
                       .astype(np.float32).T for nlist in nlists]
            left = rng.standard_normal((1, dim)).astype(np.float32)
            stack = np.concatenate([factor.T for factor in factors])
            bounds = np.cumsum([0, *nlists]).tolist()
            first, last = sorted(rng.choice(len(nlists) + 1, 2,
                                            replace=False).tolist())
            products = np.dot(stack[bounds[first]:bounds[last]], left[0])
            for number in range(first, last):
                own = np.matmul(left, factors[number])[0]
                got = products[bounds[number] - bounds[first]:
                               bounds[number + 1] - bounds[first]]
                assert np.array_equal(got.view(np.int32),
                                      own.view(np.int32)), (
                    f"this BLAS rounds a {nlists[number]}-row member of a "
                    f"stacked {len(products)} x {dim} GEMV differently from "
                    f"the member's own GEMM row: the arena's one-query "
                    f"coarse step assumes a row's bits depend only on "
                    f"whether it lies in the call's last n mod 4 rows")


class TestChunkGridLayout:
    """A large pass's score block in chunks of ``ivf._CHUNK_WIDTH``
    scores against the padded block it replaces: the same distances and
    counters, never more floats for the top-k."""

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("nq", [1, 3, 64])
    def test_chunking_on_and_off_agree(self, corpus, built, monkeypatch,
                                       metric, nq):
        _, queries = corpus
        index = built[metric]
        answers = []
        for rule in (0, 1 << 62):
            monkeypatch.setattr(ivf, "_CHUNK_FROM", rule)
            ids, dists = index.search(queries[:nq], 700, nprobe=8)
            answers.append((HitBlock(ids, dists), index.stats.as_dict()))
        (chunked, chunked_stats), (padded, padded_stats) = answers
        np.testing.assert_array_equal(chunked.dists.view(np.int32),
                                      padded.dists.view(np.int32))
        assert_batches_equal_up_to_ties(chunked, padded, 700)
        assert chunked_stats == padded_stats

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_grid_holds_no_more_than_the_padded_block(self, data):
        """Over list sizes around the chunk width (all of them ``W + 1``
        would double the floats: such a pass stays padded), every pass
        hands the top-k at most its padded block's floats, and answers
        as the padded block does."""
        width = ivf._CHUNK_WIDTH
        sizes = data.draw(st.lists(
            st.sampled_from([0, 1, width - 1, width, width + 1, 2 * width,
                             2 * width + 1, 5 * width + 3])
            | st.integers(0, 3 * width), min_size=1, max_size=6).filter(
                lambda sizes: sum(sizes) > 0), label="sizes")
        metric = data.draw(st.sampled_from(METRICS), label="metric")
        nq = data.draw(st.integers(1, 6), label="nq")
        probed = data.draw(st.integers(1, len(sizes) + 1), label="width")
        k = data.draw(st.integers(1, sum(sizes) + 3), label="k")
        rng = np.random.default_rng(sum(sizes))
        lists = InvertedLists(
            clustered(rng, sum(sizes)),
            np.repeat(np.arange(len(sizes)), sizes), len(sizes),
            FlatCodec(metric), metric)
        probes = rng.integers(0, len(sizes) + 1, (1, nq, probed))
        queries = clustered(rng, nq)
        handed, passes = [], []
        real_topk, real_pass = ivf.topk_smallest, ListArena._scan_pass

        def topk(values, k):
            handed.append(values.size)
            return real_topk(values, k)

        def scan_pass(self, scope, block, probes, k):
            before = len(handed)
            answer = real_pass(self, scope, block, probes, k)
            passes.append((probes.size * int(self.sizes[probes].max()),
                           handed[-1] if len(handed) > before else 0))
            return answer

        answers = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ivf, "topk_smallest", topk)
            patch.setattr(ListArena, "_scan_pass", scan_pass)
            for rule in (0, 1 << 62):
                patch.setattr(ivf, "_CHUNK_FROM", rule)
                answers.append(lists.scan((0,), queries, probes, k))
        (padded, grid), (_, unchunked) = passes
        assert grid <= padded == unchunked
        (at, dists, compared), (want_at, want_dists, want_compared) = answers
        np.testing.assert_array_equal(dists.view(np.int32),
                                      want_dists.view(np.int32))
        assert_batches_equal_up_to_ties(HitBlock(at, dists),
                                        HitBlock(want_at, want_dists), k)
        np.testing.assert_array_equal(compared, want_compared)


class TestTopkSmallest:
    @pytest.mark.parametrize("shape,k", [
        ((64,), 8), ((512,), 10), ((1, 64), 8), ((1, 512), 10),
        ((64, 1040), 10), ((7, 5), 5), ((7, 5), 9), ((3, 4, 33), 6),
        ((5, 1), 1), ((64,), 0), ((4, 9), 0), ((1, 64), 8), ((1, 5), 9),
        ((1, 1, 33), 6),
    ])
    def test_bit_identical_to_take_along_axis(self, shape, k):
        rng = np.random.default_rng(sum(shape) + k)
        values = rng.standard_normal(shape).astype(np.float32)
        values[..., ::3] = values[..., :1]          # ties
        for arr in (values, values.astype(np.float64)):
            idx, vals = topk_smallest(arr, k)
            want_idx, want_vals = oracle_topk(arr, k)
            np.testing.assert_array_equal(idx, want_idx)
            np.testing.assert_array_equal(vals, want_vals)
            assert idx.shape == want_idx.shape
            assert vals.dtype == arr.dtype and idx.dtype == want_idx.dtype

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(0)
        wide = rng.standard_normal((12, 40)).astype(np.float32)
        for view in (wide[:, ::2], wide.T, wide[::3, 5:25]):
            idx, vals = topk_smallest(view, 6)
            want_idx, want_vals = oracle_topk(view, 6)
            np.testing.assert_array_equal(idx, want_idx)
            np.testing.assert_array_equal(vals, want_vals)


class TestSearchStatsBookkeeping:
    def test_reset_and_add_cover_every_counter(self):
        names = [f.name for f in dataclasses.fields(SearchStats)]
        assert tuple(names) == STAT_FIELDS
        a = SearchStats(**{name: i + 1 for i, name in enumerate(names)})
        b = SearchStats(**{name: 100 * (i + 1)
                           for i, name in enumerate(names)})
        merged = a.merged_with(b)
        a.add(b)
        assert a.as_dict() == merged.as_dict() == {
            name: 101 * (i + 1) for i, name in enumerate(names)}
        assert b.as_dict() == {name: 100 * (i + 1)
                               for i, name in enumerate(names)}
        a.reset()
        assert a == SearchStats()

    def test_counters_are_python_ints(self, schema):
        """numpy's counts are ``np.int64``, which ``json`` refuses: a
        filtered search over deleted rows must still count in ints."""
        rng = np.random.default_rng(18)
        segment = sealed_segment(schema, rng)
        segment.apply_delete(list(range(1000, 1040)), lsn=2)
        for force_brute in (False, True):
            stats = SearchStats()
            segment.search("vector", clustered(rng, 3), 10,
                           MetricType.EUCLIDEAN, stats=stats,
                           filter_mask=segment.column("price") < 6.0,
                           force_brute=force_brute)
            assert stats.candidates_pruned > 0 or force_brute
            assert all(type(v) is int for v in stats.as_dict().values())


# ----------------------------------------------------------------------
# the segment layer
# ----------------------------------------------------------------------

@pytest.fixture
def schema():
    return CollectionSchema([
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM),
        FieldSchema("price", DataType.FLOAT),
    ])


def sealed_segment(schema, rng, n=400, nlist=16, nprobe=4,
                   metric=MetricType.EUCLIDEAN):
    segment = Segment("s", "c", schema, SegmentConfig(slice_size=10 ** 6))
    segment.append(list(range(1000, 1000 + n)),
                   {"vector": clustered(rng, n),
                    "price": rng.uniform(0, 10, n)}, lsn=1)
    segment.seal()
    index = IvfFlatIndex(metric, DIM, nlist=nlist, nprobe=nprobe)
    index.build(segment.column("vector"))
    segment.attach_index("vector", index)
    return segment


def assert_block_contract(block, segment, nq, k, filter_mask=None):
    """What ``Segment.search`` promises whoever merges its block: a row
    per query, at most ``k`` wide, hits ascending with the padding last,
    no pk twice and none that is deleted or masked out."""
    assert isinstance(block, HitBlock)
    assert block.pks.shape == block.dists.shape and len(block) == nq
    assert block.dists.shape[1] <= k
    live = block.dists < np.inf
    assert (live[:, :-1] >= live[:, 1:]).all()              # padding last
    assert not np.isnan(block.dists).any()
    with np.errstate(invalid="ignore"):                     # inf - inf
        steps = np.diff(block.dists, axis=1)
    assert (steps[live[:, 1:]] >= 0).all()
    allowed = oracle_allowed(segment, filter_mask)
    allowed_pks = set(segment.pk_array[allowed].tolist())
    for pks, n in zip(block.pks, live.sum(axis=1).tolist()):
        hits = pks[:n].tolist()
        assert len(set(hits)) == n and set(hits) <= allowed_pks


def both_searches(segment, queries, k, metric, filter_mask=None,
                  ties=False):
    want_stats, got_stats = SearchStats(), SearchStats()
    want = oracle_segment_search(segment, "vector", queries, k, metric,
                                 filter_mask, want_stats)
    got = segment.search("vector", queries, k, metric,
                         filter_mask=filter_mask, stats=got_stats)
    assert_block_contract(got, segment, len(queries), k, filter_mask)
    if ties:
        assert_batches_equal_up_to_ties(got, want, k)
    else:
        assert_batches_equal(got, want)
    assert got_stats.as_dict() == want_stats.as_dict()
    assert all(type(v) is int for v in got_stats.as_dict().values())
    return got, got_stats


def growing_segment(schema, rng):
    """175 rows appended 35 at a time: three 50-row slices with temporary
    indexes (Euclidean ones built eagerly) and a 25-row tail."""
    segment = Segment("g", "c", schema, SegmentConfig(
        slice_size=50, temp_index_nlist=8))
    for start in range(0, 175, 35):
        segment.append(list(range(start, start + 35)),
                       {"vector": clustered(rng, 35),
                        "price": rng.uniform(0, 10, 35)}, lsn=start + 1)
    return segment


class TestBlockPostFilter:
    @pytest.mark.parametrize("nq", [1, 3, 64])
    def test_nothing_excluded(self, schema, nq):
        rng = np.random.default_rng(10)
        segment = sealed_segment(schema, rng)
        got, stats = both_searches(segment, clustered(rng, nq), 10,
                                   MetricType.EUCLIDEAN)
        assert all(len(batch) == 10 for batch in got)
        assert stats.candidates_visited == nq * 10
        assert stats.candidates_pruned == 0 and stats.brute_scans == 0

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("n_deleted", [3, 10, 11, 120])
    def test_deletions(self, schema, metric, n_deleted):
        """Both k-amplification regimes (<= k and > k exclusions)."""
        rng = np.random.default_rng(11)
        segment = sealed_segment(schema, rng, metric=metric)
        queries = clustered(rng, 17)
        nearest = segment.search("vector", queries[:1], n_deleted,
                                 metric)[0].pks.tolist()
        assert segment.apply_delete(nearest, lsn=2) == n_deleted
        got, stats = both_searches(segment, queries, 10, metric)
        assert stats.delete_filter_hits == n_deleted
        assert stats.candidates_pruned > 0
        assert not set(nearest) & {pk for b in got for pk in b.pks.tolist()}

    @pytest.mark.parametrize("n_deleted", [4, 40])
    def test_deletions_far_from_the_candidates(self, schema, n_deleted):
        """Exclusions amplify k, yet no candidate is dropped: every row
        keeps its first k."""
        rng = np.random.default_rng(17)
        segment = sealed_segment(schema, rng)
        queries = clustered(rng, 5)
        dists = adjusted_distances(queries, segment.column("vector"),
                                   MetricType.EUCLIDEAN)
        farthest = np.argsort(dists.min(axis=0))[-n_deleted:]
        segment.apply_delete((1000 + farthest).tolist(), lsn=2)
        got, stats = both_searches(segment, queries, 10,
                                   MetricType.EUCLIDEAN)
        assert stats.candidates_visited > len(queries) * 10
        assert stats.candidates_pruned == 0
        assert all(len(batch) == 10 for batch in got)

    def test_filter_mask_and_deletions(self, schema):
        rng = np.random.default_rng(12)
        segment = sealed_segment(schema, rng)
        segment.apply_delete(list(range(1000, 1040)), lsn=2)
        mask = segment.column("price") < 6.0
        got, stats = both_searches(segment, clustered(rng, 33), 10,
                                   MetricType.EUCLIDEAN, mask)
        allowed_pks = set((1000 + np.flatnonzero(
            mask & ~segment.deleted_mask())).tolist())
        assert {pk for b in got for pk in b.pks.tolist()} <= allowed_pks

    def test_starved_rows_escalate_to_exact(self, schema):
        """A selective mask leaves some rows short of k with
        ``k_amplified < covered``: those rows, and only those, escalate."""
        rng = np.random.default_rng(13)
        segment = sealed_segment(schema, rng, nprobe=16)
        mask = np.zeros(segment.num_rows, dtype=bool)
        mask[rng.choice(segment.num_rows, 40, replace=False)] = True
        queries = clustered(rng, 24)
        got, stats = both_searches(segment, queries, 10,
                                   MetricType.EUCLIDEAN, mask)
        assert 0 < stats.brute_scans < len(queries)
        assert all(len(batch) == 10 for batch in got)
        exact = segment.search("vector", queries, 10, MetricType.EUCLIDEAN,
                               filter_mask=mask, force_brute=True)
        escalated = [qi for qi in range(len(queries))
                     if np.array_equal(got[qi].dists, exact[qi].dists)]
        assert len(escalated) >= stats.brute_scans

    def test_padded_candidates(self, schema):
        """One probed list holds fewer rows than ``k_amplified``: the
        index pads with -1 and the block filter must stop there."""
        rng = np.random.default_rng(14)
        segment = sealed_segment(schema, rng, n=120, nlist=24, nprobe=1)
        segment.apply_delete(list(range(1000, 1120, 9)), lsn=2)
        queries = clustered(rng, 20)
        ids, _ = segment.index_for("vector").search(queries, 24)
        assert (ids < 0).any() and (ids[:, 0] >= 0).all()
        got, stats = both_searches(segment, queries, 10,
                                   MetricType.EUCLIDEAN)
        assert stats.candidates_visited < len(queries) * 24

    @pytest.mark.parametrize("metric", METRICS)
    def test_growing_slices_and_brute_tail(self, schema, metric):
        """Three temp-indexed slices and a 25-row tail, under deletions in
        some slices only, then under a mask as well."""
        rng = np.random.default_rng(15)
        segment = growing_segment(schema, rng)
        assert segment.num_temp_indexes("vector") == 3
        queries = clustered(rng, 19)
        both_searches(segment, queries, 10, metric)
        segment.apply_delete(list(range(5, 30)) + [160, 170], lsn=999)
        got, stats = both_searches(segment, queries, 10, metric)
        assert stats.index_scans == 3 and stats.brute_scans >= 1
        mask = segment.column("price") < 3.0
        both_searches(segment, queries, 10, metric, mask)
        both_searches(segment, queries[:1], 60, metric, mask)

    def test_num_deleted_is_counted_not_summed(self, schema):
        rng = np.random.default_rng(16)
        segment = sealed_segment(schema, rng, n=60, nlist=4)
        assert segment.num_deleted == 0
        assert segment.apply_delete([1000, 1001, 1001, 7], lsn=2) == 2
        assert segment.apply_delete([1001, 1002], lsn=3) == 1
        assert segment.num_deleted == 3 == int(segment.deleted_mask().sum())
        assert segment.num_live_rows == 57
        assert segment.delete_ratio == pytest.approx(3 / 60)
        stats = SearchStats()
        segment.search("vector", clustered(rng, 2), 5, MetricType.EUCLIDEAN,
                       stats=stats)
        assert stats.delete_filter_hits == 3

    def test_starved_and_unstarved_rows_share_a_block(self, schema):
        """nq = 8 under a mask that starves some rows and not others:
        exactly the starved ones are answered by the exact scan, in
        place, and their neighbours keep the index's candidates."""
        rng = np.random.default_rng(13)
        segment = sealed_segment(schema, rng, nprobe=16)
        mask = np.zeros(segment.num_rows, dtype=bool)
        mask[rng.choice(segment.num_rows, 40, replace=False)] = True
        queries = clustered(rng, 8)
        ids, _ = segment.index_for("vector").search(queries, 20 + 360 // 4)
        starved = np.flatnonzero(mask[ids].sum(axis=1) < 10).tolist()
        assert 0 < len(starved) < 8
        got, stats = both_searches(segment, queries, 10,
                                   MetricType.EUCLIDEAN, mask)
        assert stats.brute_scans == len(starved)
        for qi in range(8):
            exact = segment.search(
                "vector", queries[qi:qi + 1], 10, MetricType.EUCLIDEAN,
                filter_mask=mask, force_brute=True)[0]
            assert np.array_equal(got[qi].pks, exact.pks)
            # The exact scan and the list-major kernel round differently.
            assert np.array_equal(got[qi].dists, exact.dists) \
                == (qi in starved)
            np.testing.assert_allclose(got[qi].dists, exact.dists,
                                       rtol=1e-5)

    @pytest.mark.parametrize("metric", METRICS)
    def test_a_slice_with_exclusions_beside_slices_without(
            self, schema, metric, monkeypatch):
        """Only the slice that holds a masked row is asked for more than
        ``k``; the others' blocks pass through untouched."""
        rng = np.random.default_rng(19)
        segment = growing_segment(schema, rng)
        segment.apply_delete(list(range(60, 90)), lsn=999)   # slice 1 only
        asked = []
        real = IvfFlatIndex.search

        def recording(self, queries, k, *args, **kwargs):
            asked.append(k)
            return real(self, queries, k, *args, **kwargs)

        monkeypatch.setattr(IvfFlatIndex, "search", recording)
        got, stats = both_searches(segment, clustered(rng, 8), 10, metric)
        # The oracle's three searches, then the segment's.
        assert asked == [10, 2 * 10 + 30 // 4, 10] * 2
        assert stats.index_scans == 3 and stats.candidates_pruned > 0
        assert all(len(batch) == 10 for batch in got)

    @pytest.mark.parametrize("kind", ["sealed", "growing", "brute"])
    def test_no_mask_and_an_all_true_mask_are_one_search(self, schema, kind):
        """Without deletions ``allowed`` is None and rows are read in
        place; an all-true filter mask takes the gather.  Same hits, same
        counters — ``bytes_materialized`` too — and the same range."""
        rng = np.random.default_rng(20)
        segment = growing_segment(schema, rng) if kind == "growing" \
            else sealed_segment(schema, rng)
        segment.column("vector")        # both runs hit the column cache
        assert segment.exclusions(None) == (None, 0)
        everything = np.ones(segment.num_rows, dtype=bool)
        queries = clustered(rng, 5)
        outcomes = []
        for mask in (None, everything):
            stats = SearchStats()
            block = segment.search(
                "vector", queries, 10, MetricType.EUCLIDEAN,
                filter_mask=mask, stats=stats, force_brute=kind == "brute")
            assert_block_contract(block, segment, 5, 10, mask)
            in_range = segment.range_search(
                "vector", queries[0], 1.001 * float(block.dists[0, -1]),
                MetricType.EUCLIDEAN, filter_mask=mask, stats=stats)
            outcomes.append((block, in_range, stats.as_dict()))
        (block, in_range, counters), (masked, masked_range, same) = outcomes
        np.testing.assert_array_equal(block.pks, masked.pks)
        np.testing.assert_array_equal(block.dists, masked.dists)
        np.testing.assert_array_equal(in_range.pks, masked_range.pks)
        np.testing.assert_array_equal(in_range.dists, masked_range.dists)
        assert counters == same
        assert counters["bytes_materialized"] > 0 and len(in_range) >= 10

    @pytest.mark.parametrize("metric", METRICS)
    def test_k_larger_than_a_slice(self, schema, metric):
        """Every 50-row slice is asked for all it has (its probed lists
        hold fewer: padded blocks side by side) and k = 80 is reselected
        across them and the 25-row tail."""
        rng = np.random.default_rng(21)
        segment = growing_segment(schema, rng)
        queries = clustered(rng, 5)
        got, stats = both_searches(segment, queries, 80, metric)
        assert got.dists.shape == (5, 80)
        assert all(25 < len(batch) <= 80 for batch in got)
        assert stats.candidates_visited < 5 * 150
        segment.apply_delete(list(range(0, 175, 2)), lsn=999)   # 87 left
        got, _ = both_searches(segment, queries, 90, metric)
        assert all(12 < len(batch) <= 87 for batch in got)

    @pytest.mark.parametrize("metric", [MetricType.INNER_PRODUCT,
                                        MetricType.COSINE])
    def test_lazily_built_slice_indexes(self, schema, metric):
        rng = np.random.default_rng(22)
        segment = growing_segment(schema, rng)
        built = segment._temp_indexes["vector"]
        assert not built
        segment.apply_delete([3, 70, 71, 170], lsn=999)
        both_searches(segment, clustered(rng, 7), 10, metric)
        assert {s for s, m in built if m is metric} == {0, 1, 2}
        both_searches(segment, clustered(rng, 7), 10, metric,
                      segment.column("price") < 5.0)

    @pytest.mark.parametrize("n_deleted", [0, 6])
    def test_an_index_that_pads_with_minus_one(self, schema, n_deleted):
        """A sparse HNSW graph (M = 2) does not reach every row: asked for
        all 40 it pads with ``-1``, with and without a mask to apply."""
        rng = np.random.default_rng(3)
        segment = Segment("s", "c", schema,
                          SegmentConfig(slice_size=10 ** 6))
        segment.append(list(range(1000, 1040)),
                       {"vector": rng.standard_normal((40, DIM)).astype(
                           np.float32),
                        "price": rng.uniform(0, 10, 40)}, lsn=1)
        segment.seal()
        index = HnswIndex(MetricType.EUCLIDEAN, DIM, M=2, ef_search=1)
        index.build(segment.column("vector"))
        segment.attach_index("vector", index)
        queries = rng.standard_normal((4, DIM)).astype(np.float32)
        ids, _ = index.search(queries, 40)
        assert (ids < 0).any()
        segment.apply_delete(list(range(1000, 1000 + n_deleted)), lsn=2)
        got, stats = both_searches(segment, queries, 50,
                                   MetricType.EUCLIDEAN)
        assert stats.candidates_visited == int((ids >= 0).sum())
        assert stats.brute_scans == 0       # all 40 asked: nothing starves
        assert any(len(batch) < 40 - n_deleted for batch in got)


# ----------------------------------------------------------------------
# the one shape, under any history
# ----------------------------------------------------------------------

_SEED = st.integers(0, 2 ** 32 - 1)
_STEP = st.one_of(st.tuples(st.just("append"), st.integers(1, 45)),
                  st.tuples(st.just("delete"), _SEED))


def delete_some(segment, seed):
    doomed = np.random.default_rng(seed).choice(
        segment.num_rows, min(segment.num_rows, 1 + seed % 12),
        replace=False)
    segment.apply_delete(doomed.tolist(), lsn=10 ** 6)


class TestSegmentAnswersInBlocks:
    @settings(max_examples=150, deadline=None)
    @given(first=st.integers(1, 45),
           steps=st.lists(_STEP, max_size=6),
           sealed_as=st.sampled_from([None, "unindexed", "FLAT", "IVF_FLAT",
                                      "HNSW"]),
           late_deletes=st.lists(_SEED, max_size=2),
           metric=st.sampled_from(METRICS), nq=st.sampled_from([1, 3, 8]),
           k=st.sampled_from([1, 7, 40]),
           mask_seed=st.one_of(st.none(), _SEED))
    def test_any_history_any_search(self, first, steps, sealed_as,
                                    late_deletes, metric, nq, k, mask_seed):
        """Appends and deletions in any order, then perhaps a seal, an
        index and deletions after it, then one search with or without a
        filter mask: the block keeps its contract and equals the
        per-query oracle hit for hit, counter for counter."""
        rng = np.random.default_rng(23)
        schema = CollectionSchema([
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM),
            FieldSchema("price", DataType.FLOAT)])
        segment = Segment("h", "c", schema, SegmentConfig(
            slice_size=32, temp_index_nlist=4))
        for step, arg in [("append", first)] + steps:
            if step == "delete":
                delete_some(segment, arg)
                continue
            n = segment.num_rows
            segment.append(list(range(n, n + arg)),
                           {"vector": clustered(rng, arg),
                            "price": rng.uniform(0, 10, arg)}, lsn=n + 1)
        if sealed_as is not None:
            segment.seal()
            if sealed_as != "unindexed":
                index = create_index(sealed_as, metric, DIM, **(
                    {"nlist": 4, "nprobe": 2} if sealed_as == "IVF_FLAT"
                    else {}))
                index.build(segment.column("vector"))
                segment.attach_index("vector", index)
            for seed in late_deletes:
                delete_some(segment, seed)
        mask = None if mask_seed is None else np.random.default_rng(
            mask_seed).random(segment.num_rows) < 0.5
        segment.column("vector")    # oracle and segment: a warm column
        got, _ = both_searches(segment, clustered(rng, nq), k, metric, mask,
                               ties=True)
        assert len(got) == nq
