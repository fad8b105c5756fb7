"""Tests for the modularized bucketer x compressor framework."""

import itertools

import numpy as np
import pytest

from repro.core.schema import MetricType
from repro.errors import IndexBuildError
from repro.index.base import SearchStats
from repro.index.composite import (
    CompositeIndex,
    GraphBucketer,
    ImiBucketer,
    KMeansBucketer,
)
from repro.index.flat import FlatIndex
from repro.index.ivf import FlatCodec
from repro.index.pq import ProductQuantizer
from repro.index.rq import ResidualQuantizer
from repro.index.sq import ScalarQuantizer

DIM = 32


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(8)
    centers = rng.standard_normal((12, DIM)).astype(np.float32) * 5
    assign = rng.integers(0, 12, 1200)
    vectors = centers[assign] + rng.standard_normal(
        (1200, DIM)).astype(np.float32)
    queries = vectors[rng.choice(1200, 15, replace=False)]
    return vectors, queries


@pytest.fixture(scope="module")
def truth(data):
    vectors, queries = data
    flat = FlatIndex(MetricType.EUCLIDEAN, DIM)
    flat.build(vectors)
    ids, _ = flat.search(queries, 10)
    return ids


ALL_COMBOS = list(itertools.product(("kmeans", "imi", "graph"),
                                    ("none", "sq", "pq", "rq")))


@pytest.mark.parametrize("bucketer,compressor", ALL_COMBOS)
class TestAllCombinations:
    def test_recall_reasonable(self, bucketer, compressor, data, truth):
        vectors, queries = data
        index = CompositeIndex(MetricType.EUCLIDEAN, DIM,
                               bucketer=bucketer, compressor=compressor,
                               nlist=24, nprobe=8, ksub=8, m=8, stages=4)
        index.build(vectors)
        ids, _ = index.search(queries, 10)
        hits = sum(len(set(map(int, r)) & set(map(int, t)))
                   for r, t in zip(ids, truth))
        recall = hits / truth.size
        floor = 0.7 if compressor in ("none", "sq") else 0.35
        assert recall >= floor, \
            f"{bucketer} x {compressor}: recall {recall}"

    def test_stats_counted_on_right_path(self, bucketer, compressor, data):
        vectors, queries = data
        index = CompositeIndex(MetricType.EUCLIDEAN, DIM,
                               bucketer=bucketer, compressor=compressor,
                               nlist=24, nprobe=4, ksub=8)
        index.build(vectors)
        index.search(queries[:2], 5)
        stats = index.stats
        if compressor == "none":
            assert stats.quantized_comparisons == 0
            assert stats.float_comparisons > 0
        else:
            assert stats.quantized_comparisons > 0


class TestCompression:
    def test_compression_shrinks_memory(self, data):
        vectors, _ = data
        sizes = {}
        for compressor in ("none", "sq", "pq"):
            index = CompositeIndex(MetricType.EUCLIDEAN, DIM,
                                   compressor=compressor, m=8)
            index.build(vectors)
            sizes[compressor] = index.memory_bytes_estimate()
        assert sizes["sq"] * 4 == sizes["none"]
        assert sizes["pq"] < sizes["sq"]

    def test_describe(self):
        index = CompositeIndex(MetricType.EUCLIDEAN, DIM,
                               bucketer="graph", compressor="rq")
        assert index.describe() == "graph x rq"


class TestValidation:
    def test_unknown_bucketer(self):
        with pytest.raises(IndexBuildError):
            CompositeIndex(MetricType.EUCLIDEAN, DIM, bucketer="magic")

    def test_unknown_compressor(self):
        with pytest.raises(IndexBuildError):
            CompositeIndex(MetricType.EUCLIDEAN, DIM, compressor="magic")

    def test_imi_requires_euclidean(self):
        with pytest.raises(IndexBuildError):
            CompositeIndex(MetricType.INNER_PRODUCT, DIM, bucketer="imi")

    def test_imi_requires_even_dim(self, data):
        with pytest.raises(IndexBuildError):
            CompositeIndex(MetricType.EUCLIDEAN, 33, bucketer="imi")


class TestBucketers:
    """A bucketer maps a query *block* to an ``(nq, nprobe)`` matrix."""

    def test_kmeans_probe_order(self, data):
        vectors, queries = data
        bucketer = KMeansBucketer(MetricType.EUCLIDEAN, nlist=16)
        assignments = bucketer.fit(vectors)
        assert assignments.shape == (len(vectors),)
        stats = SearchStats()
        probes = bucketer.probe(queries, 4, stats)
        assert probes.shape == (len(queries), 4)
        assert all(len(set(row.tolist())) == 4 for row in probes)
        assert stats.float_comparisons == len(queries) * bucketer.num_buckets
        # The query's own bucket (it is a database vector) is probed first.
        own = assignments[np.flatnonzero(
            (vectors == queries[0]).all(axis=1))[0]]
        assert probes[0, 0] == own
        # More probes than buckets: every bucket, once.
        assert bucketer.probe(queries, 99, SearchStats()).shape \
            == (len(queries), bucketer.num_buckets)

    def test_imi_cells_cover_everything(self, data):
        vectors, queries = data
        bucketer = ImiBucketer(MetricType.EUCLIDEAN, DIM, ksub=8)
        assignments = bucketer.fit(vectors)
        assert (assignments >= 0).all()
        assert assignments.max() + 1 == bucketer.num_buckets
        probes = bucketer.probe(queries, bucketer.num_buckets,
                                SearchStats())
        assert (np.sort(probes, axis=1)
                == np.arange(bucketer.num_buckets)).all()

    def test_graph_probe_returns_valid_buckets(self, data):
        vectors, queries = data
        bucketer = GraphBucketer(MetricType.EUCLIDEAN, DIM, nlist=32)
        bucketer.fit(vectors)
        stats = SearchStats()
        probes = bucketer.probe(queries, 6, stats)
        assert probes.shape == (len(queries), 6)
        assert ((probes >= -1) & (probes < bucketer.num_buckets)).all()
        assert stats.graph_hops > 0 and stats.float_comparisons > 0


class TestCompressors:
    """The quantizers are the codecs: no adapter in between."""

    @pytest.mark.parametrize("cls,kwargs", [
        (FlatCodec, {"metric": MetricType.EUCLIDEAN}),
        (ScalarQuantizer, {"dim": DIM}),
        (ProductQuantizer, {"dim": DIM, "m": 8}),
        (ResidualQuantizer, {"dim": DIM, "stages": 4}),
    ])
    def test_roundtrip_shape(self, cls, kwargs, data):
        vectors, _ = data
        compressor = cls(**kwargs)
        compressor.train(vectors)
        decoded = compressor.decode(compressor.encode(vectors[:20]))
        assert decoded.shape == (20, DIM)
        # Reconstruction stays in the data's ballpark.
        err = np.mean((decoded - vectors[:20]) ** 2)
        scale = np.mean(vectors[:20] ** 2)
        assert err <= scale
        assert compressor.quantized == (cls is not FlatCodec)
