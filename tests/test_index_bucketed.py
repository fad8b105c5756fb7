"""Every bucketer x codec against the per-query loop it replaced.

Each list-based index type used to carry its own copy of "coarse step ->
``for qi in range(nq)`` -> concatenate the probed lists -> decode -> exact
distances -> top-k".  They are all one scan now
(:class:`repro.index.ivf.InvertedLists` asked by
:class:`repro.index.ivf.BucketedIndex`); the copies are the references in
:mod:`tests.reference.scan`, each next to the file and line it was deleted
from.

What is compared: the hits (distances within a tolerance fixed beforehand
from the dtype and the data's scale — a list's scores now come from one
GEMM for the group of queries probing it, which BLAS may round differently
from a one-row product — and ids equal as sets within each run of
near-equal distances, see ``assert_hits_within_tolerance``), and
``SearchStats`` field by field.  The grid identities at the end need no
tolerance: a catalog name and its COMPOSITE spelling run the same code on
the same lists.
"""

import numpy as np
import pytest

from repro.index.base import SearchStats, create_index
from repro.index.distances import first_k_distinct, squared_l2
from repro.index.ivf import FlatCodec, InvertedLists
from repro.index.pq import ProductQuantizer, effective_metric
from repro.index.rq import ResidualQuantizer
from repro.index.sq import ScalarQuantizer
from tests.reference.compare import DIM, METRICS, \
    assert_hits_within_tolerance, built_index, clustered, make_corpus, \
    tolerance
from tests.reference.scan import lists_of, loop_decode_scan, \
    loop_flat_adc, loop_imi_probe, loop_ivf_pq, loop_ssd, loop_tiered

L2, IP, COS = METRICS


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(21)


def reconstruction(index):
    """The rows as the index's codec sees them, in build-matrix order, in
    the space the lists are scanned in: what a returned distance is the
    distance *to*."""
    stored = index._lists
    rows = np.asarray(index.codec.decode(stored.codes), dtype=np.float32)
    if hasattr(index.codec, "bucketer"):        # list-residual codes
        rows = rows + index.bucketer.centroids[
            np.repeat(np.arange(stored.nlist), stored.sizes[:-1])]
    out = np.empty((index.ntotal, DIM), dtype=np.float32)
    out[stored.ids] = rows
    return out


def in_list_space(index, queries):
    """Queries as the lists see them (unit rows where cosine runs as IP)."""
    if index._unit_rows:
        return queries / np.linalg.norm(queries, axis=1, keepdims=True)
    return queries


def check(index, got, want, queries, want_stats):
    metric = index.bucketer.metric
    rows = reconstruction(index)
    queries = in_list_space(index, queries)
    tol = 4 * tolerance(rows, queries, metric)
    assert_hits_within_tolerance(got, want, rows, queries, metric, tol)
    assert index.stats.as_dict() == want_stats.as_dict()


# ----------------------------------------------------------------------
# the scan, codec by codec and bucketer by bucketer
# ----------------------------------------------------------------------

COMPOSITE_GRID = [(b, c) for b in ("kmeans", "imi", "graph")
                  for c in ("none", "sq", "pq", "rq")]


class TestCompositeGrid:
    @pytest.mark.parametrize("bucketer,compressor", COMPOSITE_GRID)
    @pytest.mark.parametrize("metric", METRICS)
    def test_matches_per_query_loop(self, corpus, bucketer, compressor,
                                    metric):
        if bucketer == "imi" and metric is not L2:
            pytest.skip("imi cells are Euclidean only")
        _, queries = corpus
        index = built_index(corpus, "COMPOSITE", metric, bucketer=bucketer,
                      compressor=compressor, nlist=16, nprobe=5, ksub=6,
                      m=4, stages=3)
        lists, codes = lists_of(index), lists_of(index, "codes")
        for nq in (1, 7, 64):
            for k in (3, 400):                  # 400 > any candidate count
                block = queries[:nq]
                want_stats = SearchStats()
                seen = in_list_space(index, block)
                probes = index.bucketer.probe(seen, 5, want_stats)
                want = loop_decode_scan(lists, codes, index.codec,
                                        index.bucketer.metric, seen, probes,
                                        k, want_stats)
                got = index.search(block, k)
                check(index, got, want, block, want_stats)

    def test_imi_probe_is_the_heap_walk(self, corpus):
        """The first ``nprobe`` non-empty cells, exactly as popped."""
        _, queries = corpus
        index = built_index(corpus, "COMPOSITE", L2, bucketer="imi",
                      compressor="none", nlist=16, nprobe=5, ksub=6, m=4,
                      stages=3)
        for nprobe in (1, 5, 23, 10 ** 6):
            got = index.bucketer.probe(queries, nprobe, SearchStats())
            want = loop_imi_probe(index.bucketer, queries,
                                  lambda cells: len(cells) >= nprobe)
            np.testing.assert_array_equal(got, want)


class TestCatalogTypes:
    @pytest.mark.parametrize("metric", METRICS)
    def test_ivf_sq8(self, corpus, metric):
        _, queries = corpus
        index = built_index(corpus, "IVF_SQ8", metric, nlist=16, nprobe=8)
        lists, codes = lists_of(index), lists_of(index, "codes")
        for nq in (1, 7, 64):
            for k, nprobe in ((10, None), (700, 3), (1, 40)):
                block = queries[:nq]
                want_stats = SearchStats()
                probes = index.bucketer.probe(block, nprobe or 8,
                                              want_stats)
                want = loop_decode_scan(lists, codes, index.sq, metric,
                                        block, probes, k, want_stats)
                got = index.search(block, k, nprobe=nprobe)
                check(index, got, want, block, want_stats)

    @pytest.mark.parametrize("metric", METRICS)
    def test_ivf_pq(self, corpus, metric):
        _, queries = corpus
        index = built_index(corpus, "IVF_PQ", metric, nlist=16, nprobe=8, m=4)
        for nq in (1, 7, 64):
            for k, nprobe in ((10, 8), (700, 3), (1, 40)):
                block = queries[:nq]
                *want, want_stats = loop_ivf_pq(index, block, k, nprobe)
                got = index.search(block, k, nprobe=nprobe)
                check(index, got, tuple(want), block, want_stats)

    def test_imi_visits_cells_until_enough_candidates(self, corpus):
        _, queries = corpus
        index = built_index(corpus, "IMI", L2, ksub=6, candidate_factor=4)
        bucketer = index.bucketer
        lists, codes = lists_of(index), lists_of(index, "codes")
        sizes = index.list_sizes()
        for nq in (1, 7, 64):
            for k in (1, 10, 700):
                block = queries[:nq]
                want_count = max(k * 4, k)
                probes = loop_imi_probe(
                    bucketer, block,
                    lambda cells: sizes[cells].sum() >= want_count)
                want_stats = SearchStats(
                    float_comparisons=nq * sum(map(len, bucketer._books)))
                want = loop_decode_scan(lists, codes, index.codec, L2,
                                        block, probes, k, want_stats)
                got = index.search(block, k)
                check(index, got, want, block, want_stats)
                index.stats.reset()
                np.testing.assert_array_equal(
                    index._probe(block, k, None), probes)

    def test_imi_ties_are_visited_in_heap_order(self):
        """Duplicate rows make duplicate codewords and exact ties between
        cell sums; queries on the grid make more."""
        rng = np.random.default_rng(3)
        base = np.round(clustered(rng, 30, centers=4))
        data = np.repeat(base, 8, axis=0)
        queries = np.round(clustered(rng, 40, centers=4))
        index = create_index("IMI", L2, DIM, ksub=12, candidate_factor=3)
        index.build(data)
        d1 = squared_l2(queries[:, :8], index.bucketer._books[0])
        assert (np.diff(np.sort(d1, axis=1), axis=1) == 0).any()
        for nprobe in (1, 7, 10 ** 6):
            np.testing.assert_array_equal(
                index.bucketer.probe(queries, nprobe, SearchStats()),
                loop_imi_probe(index.bucketer, queries,
                               lambda cells: len(cells) >= nprobe))

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("replicas", [1, 3])
    def test_ssd(self, corpus, metric, replicas):
        data, queries = corpus
        index = create_index("SSD", metric, 256, nprobe=6,
                             replicas=replicas)
        rng = np.random.default_rng(9)
        wide = clustered(rng, 500, dim=256)         # 16 rows per bucket
        wide_queries = clustered(rng, 64, dim=256)
        index.build(wide)
        assert index.num_buckets > 8                # navigated by HNSW
        assert index._lists.ids.shape == (500 * replicas,)
        for nq in (1, 7, 64):
            for k, nprobe in ((10, None), (200, 3), (0, None)):
                block = wide_queries[:nq]
                want_stats = SearchStats()
                probes = index.bucketer.probe(block, nprobe or 6,
                                              want_stats)
                want = loop_ssd(index, block, probes, k, want_stats)
                got = index.search(block, k, nprobe=nprobe)
                assert index.stats.as_dict() == want_stats.as_dict()
                rows = np.empty_like(wide)
                rows[index._lists.ids] = index.sq.decode(index._lists.codes)
                assert_hits_within_tolerance(
                    got, want, rows, block, metric,
                    4 * tolerance(rows, block, metric))
                for row in got[0]:
                    found = row[row >= 0]
                    assert len(set(found.tolist())) == len(found)

    def test_ssd_handful_of_centroids_is_scanned_flat(self):
        rng = np.random.default_rng(2)
        data = clustered(rng, 60, dim=512)          # 8 rows per bucket
        index = create_index("SSD", L2, 512, nprobe=3, replicas=1)
        index.build(data[:40])
        assert index.num_buckets <= 8
        assert not index.bucketer.graph.is_built
        index.search(data[40:], 5)
        assert index.stats.graph_hops == 0
        assert index.stats.float_comparisons == 20 * index.num_buckets
        assert index.stats.ssd_blocks_read == 20 * 3

    @pytest.mark.parametrize("metric", METRICS)
    def test_tiered(self, corpus, metric):
        data, queries = corpus
        index = create_index("TIERED", metric, DIM, hot_fraction=0.2,
                             nprobe=4, replicas=2)
        index.build(data)
        for nq in (1, 7, 64):
            for k in (10, 400, 0):
                block = queries[:nq]
                before = index._access.copy()
                got = index.search(block, k)
                stats = index.stats.as_dict()
                cold = index._cold.search(block, k)
                want = loop_tiered(index, block, k, *cold)
                np.testing.assert_array_equal(got[0] < 0, want[0] < 0)
                np.testing.assert_allclose(got[1], want[1], rtol=0,
                                           atol=tolerance(data, block,
                                                          metric))
                mismatched = got[0] != want[0]      # only inside ties
                assert np.allclose(got[1][mismatched], want[1][mismatched],
                                   rtol=0, atol=2 * tolerance(data, block,
                                                              metric))
                for row in got[0]:
                    found = row[row >= 0]
                    assert len(set(found.tolist())) == len(found)
                want_stats = SearchStats()
                want_stats.add(index._cold.stats)
                want_stats.float_comparisons += nq * index.hot_size
                assert stats == want_stats.as_dict()
                # every returned hit counts as one access
                assert (index._access - before).sum() == (got[0] >= 0).sum()
                np.testing.assert_array_equal(
                    np.flatnonzero(index._access - before),
                    np.unique(got[0][got[0] >= 0]))

    @pytest.mark.parametrize("name", ["PQ", "OPQ"])
    @pytest.mark.parametrize("metric", METRICS)
    def test_flat_adc(self, corpus, name, metric):
        data, queries = corpus
        index = built_index(corpus, name, metric, m=4,
                      **({"train_iters": 2} if name == "OPQ" else {}))
        for nq in (1, 7, 64):
            for k in (10, 700):
                block = queries[:nq]
                want = loop_flat_adc(index, block, k)
                got = index.search(block, k)
                assert got[0].dtype == np.int64
                assert got[1].dtype == np.float32
                np.testing.assert_allclose(
                    got[1], want[1], rtol=0,
                    atol=4 * tolerance(data, block, L2))
                mismatched = got[0] != want[0]      # only inside ties
                np.testing.assert_allclose(
                    got[1][mismatched], want[1][mismatched], rtol=0,
                    atol=4 * tolerance(data, block, L2))
                assert index.stats.as_dict() == SearchStats(
                    quantized_comparisons=nq * len(data)).as_dict()

    def test_long_list_is_scored_a_few_queries_at_a_time(self, corpus,
                                                         monkeypatch):
        from repro.index import pq as pq_module
        _, queries = corpus
        index = built_index(corpus, "PQ", L2, m=4)
        whole = index.search(queries, 10)
        monkeypatch.setattr(pq_module, "_ADC_BLOCK_FLOATS",
                            5 * index._lists.codes.size)
        np.testing.assert_array_equal(index.search(queries, 10)[0],
                                      whole[0])
        np.testing.assert_array_equal(index.search(queries, 10)[1],
                                      whole[1])


class TestEmptyListsAndUnprobedSlots:
    """List 1 has no members; ``-1`` marks a slot that probes nothing."""

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("codec_name", ["none", "sq", "pq", "rq"])
    def test_every_codec(self, metric, codec_name):
        rng = np.random.default_rng(4)
        data = clustered(rng, 40)
        queries = clustered(rng, 4)
        if codec_name == "pq":
            if metric is COS:       # the ADC codecs see unit rows and IP
                data /= np.linalg.norm(data, axis=1, keepdims=True)
                queries /= np.linalg.norm(queries, axis=1, keepdims=True)
            metric = effective_metric(metric)
        codec = {"none": FlatCodec(metric), "sq": ScalarQuantizer(DIM),
                 "pq": ProductQuantizer(DIM, m=4, nbits=4),
                 "rq": ResidualQuantizer(DIM, stages=2, nbits=4)}[codec_name]
        codec.train(data)
        assignments = np.where(np.arange(40) % 3 == 0, 0, 2)
        stored = InvertedLists(data, assignments, 3, codec, metric)
        assert stored.sizes.tolist() == [14, 0, 26, 0]
        lists = [np.flatnonzero(assignments == c) for c in range(3)]
        codes = [stored.codes[stored.offsets[c]:stored.offsets[c + 1]]
                 for c in range(3)]
        probes = np.array([[1, 0, 2], [1, -1, -1], [2, 1, -1], [-1, -1, 0]])
        stats = SearchStats()
        want = loop_decode_scan(lists, codes, codec, metric, queries,
                                probes, 30, stats)
        ids, dists, scored = stored.scan(queries, probes, 30)
        assert scored == 40 + 0 + 26 + 14 == (stats.float_comparisons
                                              + stats.quantized_comparisons)
        rows = np.empty_like(data)
        rows[stored.ids] = codec.decode(stored.codes)
        if codec_name == "none":
            rows = data
        assert_hits_within_tolerance((ids, dists), want, rows, queries, metric,
                                     4 * tolerance(rows, queries, metric))
        assert (ids[1] == -1).all() and np.isinf(dists[1]).all()


class TestFirstKDistinct:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_a_seen_set_per_row(self, seed):
        rng = np.random.default_rng(seed)
        ids = rng.integers(-1, 12, (9, 20))
        ids = np.where(ids < 0, -1, ids)
        dists = np.sort(rng.standard_normal((9, 20)).astype(np.float32),
                        axis=1)
        for k in (0, 1, 5, 20, 30):
            got_ids, got_dists = first_k_distinct(ids, dists, k)
            assert got_ids.shape == got_dists.shape == (9, min(k, 20))
            assert got_dists.dtype == np.float32
            for row in range(9):
                seen, want = set(), []
                for col in range(20):
                    if ids[row, col] >= 0 and ids[row, col] not in seen:
                        seen.add(ids[row, col])
                        want.append((ids[row, col], dists[row, col]))
                want = want[:k]
                n = len(want)
                assert got_ids[row, :n].tolist() == [w[0] for w in want]
                assert got_dists[row, :n].tolist() == [w[1] for w in want]
                assert (got_ids[row, n:] == -1).all()
                assert np.isinf(got_dists[row, n:]).all()


# ----------------------------------------------------------------------
# catalog names are points of the grid
# ----------------------------------------------------------------------

class TestGridIdentities:
    """"Named catalog indexes are points in this grid" — with equal
    parameters and seed a catalog name and its COMPOSITE spelling return
    identical ids, distances and counters."""

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("name,own,bucketer,compressor", [
        ("IVF_FLAT", {}, "kmeans", "none"),
        ("IVF_SQ8", {}, "kmeans", "sq"),
        # COMPOSITE's graph bucketer keeps the HNSW defaults M=8, ef=48.
        ("IVF_HNSW", {"M": 8, "ef_search": 48}, "graph", "none"),
    ])
    def test_catalog_name_is_its_composite_spelling(
            self, corpus, metric, name, own, bucketer, compressor):
        _, queries = corpus
        named = built_index(corpus, name, metric, nlist=16, nprobe=5, seed=3,
                      **own)
        spelled = built_index(corpus, "COMPOSITE", metric, bucketer=bucketer,
                        compressor=compressor, nlist=16, nprobe=5, seed=3)
        assert type(named.bucketer) is type(spelled.bucketer)
        assert type(named.codec) is type(spelled.codec)
        for nq in (1, 7, 64):
            for k, nprobe in ((10, None), (700, 2)):
                a = named.search(queries[:nq], k, nprobe=nprobe)
                a_stats = named.stats.as_dict()
                b = spelled.search(queries[:nq], k, nprobe=nprobe)
                np.testing.assert_array_equal(a[0], b[0])
                np.testing.assert_array_equal(a[1], b[1])
                assert a_stats == spelled.stats.as_dict()
                assert named.memory_bytes_estimate() \
                    == spelled.memory_bytes_estimate()

    def test_imi_is_imi_x_none_with_its_own_stopping_rule(self, corpus):
        """Probe the COMPOSITE spelling as wide as IMI's rule probes and
        the two agree."""
        _, queries = corpus
        named = built_index(corpus, "IMI", L2, ksub=6, candidate_factor=4)
        spelled = built_index(corpus, "COMPOSITE", L2, bucketer="imi",
                        compressor="none", ksub=6)
        for qi in range(8):
            query = queries[qi:qi + 1]
            named.stats.reset()
            width = named._probe(query, 10, None).shape[1]
            a = named.search(query, 10)
            b = spelled.search(query, 10, nprobe=width)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])
            assert named.stats.as_dict() == spelled.stats.as_dict()
