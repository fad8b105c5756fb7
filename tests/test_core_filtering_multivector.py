"""Tests for attribute-filter strategies and multi-vector search."""

import numpy as np
import pytest

from repro.config import SegmentConfig
from repro.core.expr import FilterExpression
from repro.core.filtering import (
    FilterStrategy,
    choose_strategy,
    filtered_search,
)
from repro.core.multivector import (
    MultiVectorQuery,
    search_segment,
)
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.core.segment import Segment
from repro.index.ivf import IvfFlatIndex


@pytest.fixture
def filter_segment(rng):
    schema = CollectionSchema([
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8),
        FieldSchema("price", DataType.FLOAT),
    ])
    segment = Segment("s", "c", schema,
                      SegmentConfig(slice_size=64, temp_index_nlist=4))
    n = 256
    segment.append(list(range(n)), {
        "vector": rng.standard_normal((n, 8)).astype(np.float32),
        "price": np.arange(n, dtype=np.float64),
    }, 1)
    segment.seal()
    index = IvfFlatIndex(MetricType.EUCLIDEAN, 8, nlist=16, nprobe=4)
    index.build(segment.column("vector"))
    segment.attach_index("vector", index)
    return segment


class TestStrategyChoice:
    def test_selective_filter_prefers_pre(self, filter_segment):
        expr = FilterExpression("price < 3")  # ~1% pass
        plan = choose_strategy(filter_segment, "vector", 10, expr)
        assert plan.strategy is FilterStrategy.PRE_FILTER
        assert plan.selectivity == pytest.approx(3 / 256)

    def test_permissive_filter_prefers_index(self, filter_segment):
        expr = FilterExpression("price >= 0")  # everything passes
        plan = choose_strategy(filter_segment, "vector", 10, expr)
        assert plan.strategy in (FilterStrategy.POST_FILTER,
                                 FilterStrategy.SCAN_FILTER)
        assert plan.selectivity == 1.0

    def test_no_index_forces_pre(self, rng):
        schema = CollectionSchema([
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8),
            FieldSchema("price", DataType.FLOAT),
        ])
        segment = Segment("s", "c", schema, SegmentConfig(slice_size=10**6))
        segment.append([1, 2, 3], {
            "vector": rng.standard_normal((3, 8)).astype(np.float32),
            "price": [1.0, 2.0, 3.0]}, 1)
        plan = choose_strategy(segment, "vector", 2,
                               FilterExpression("price > 0"))
        assert plan.strategy is FilterStrategy.PRE_FILTER

    def test_empty_selectivity(self, filter_segment):
        plan = choose_strategy(filter_segment, "vector", 10,
                               FilterExpression("price < 0"))
        assert plan.selectivity == 0.0


class TestFilteredSearch:
    def test_all_strategies_agree(self, filter_segment, rng):
        """Every strategy returns the same correct top-k."""
        expr = FilterExpression("price >= 100 and price < 200")
        query = rng.standard_normal((1, 8)).astype(np.float32)
        results = {}
        for strategy in FilterStrategy:
            out, _plan = filtered_search(filter_segment, "vector", query,
                                         5, MetricType.EUCLIDEAN, expr,
                                         forced=strategy)
            results[strategy] = out[0]
        assert results[FilterStrategy.PRE_FILTER] == \
            results[FilterStrategy.POST_FILTER] == \
            results[FilterStrategy.SCAN_FILTER]
        assert all(100 <= hit.pk < 200
                   for hit in results[FilterStrategy.PRE_FILTER])

    def test_no_expr_plain_search(self, filter_segment, rng):
        query = rng.standard_normal((1, 8)).astype(np.float32)
        out, plan = filtered_search(filter_segment, "vector", query, 5,
                                    MetricType.EUCLIDEAN, None)
        assert plan is None
        assert len(out[0]) == 5

    def test_plan_exposed(self, filter_segment, rng):
        query = rng.standard_normal((1, 8)).astype(np.float32)
        _out, plan = filtered_search(filter_segment, "vector", query, 5,
                                     MetricType.EUCLIDEAN,
                                     FilterExpression("price < 50"))
        assert plan is not None
        assert 0.0 <= plan.selectivity <= 1.0
        assert plan.mask.sum() == 50


@pytest.fixture
def mv_segment(rng):
    schema = CollectionSchema([
        FieldSchema("image", DataType.FLOAT_VECTOR, dim=8),
        FieldSchema("text", DataType.FLOAT_VECTOR, dim=4),
    ])
    segment = Segment("s", "c", schema, SegmentConfig(slice_size=10**6))
    n = 200
    segment.append(list(range(n)), {
        "image": rng.standard_normal((n, 8)).astype(np.float32),
        "text": rng.standard_normal((n, 4)).astype(np.float32),
    }, 1)
    return segment


def make_query(rng, metric=MetricType.INNER_PRODUCT, w_img=1.0, w_txt=0.5):
    return MultiVectorQuery(
        fields=("image", "text"),
        queries={"image": rng.standard_normal(8).astype(np.float32),
                 "text": rng.standard_normal(4).astype(np.float32)},
        weights={"image": w_img, "text": w_txt},
        metric=metric)


class TestMultiVector:
    def test_matches_exhaustive_combined_score(self, mv_segment, rng):
        query = make_query(rng)
        batch = search_segment(mv_segment, query, 5, amplification=40)
        image = mv_segment.column("image")
        text = mv_segment.column("text")
        combined = (-1.0 * (image @ query.queries["image"])
                    - 0.5 * (text @ query.queries["text"]))
        expected = np.argsort(combined, kind="stable")[:5]
        assert batch.pks.tolist() == [int(i) for i in expected]
        assert np.allclose(batch.dists, combined[expected], atol=1e-4)

    def test_weights_matter(self, mv_segment, rng):
        only_image = MultiVectorQuery(
            fields=("image", "text"),
            queries={"image": rng.standard_normal(8).astype(np.float32),
                     "text": rng.standard_normal(4).astype(np.float32)},
            weights={"image": 1.0, "text": 0.0},
            metric=MetricType.INNER_PRODUCT)
        batch = search_segment(mv_segment, only_image, 3,
                               amplification=40)
        image = mv_segment.column("image")
        expected = np.argsort(-(image @ only_image.queries["image"]),
                              kind="stable")[:3]
        assert batch.pks.tolist() == [int(i) for i in expected]

    def test_euclidean_rerank(self, mv_segment, rng):
        query = make_query(rng, MetricType.EUCLIDEAN)
        batch = search_segment(mv_segment, query, 5, amplification=40)
        assert len(batch) == 5
        assert (np.diff(batch.dists) >= -1e-5).all()

    def test_missing_weight_rejected(self, rng):
        with pytest.raises(ValueError):
            MultiVectorQuery(fields=("image", "text"),
                             queries={"image": np.zeros(8)},
                             weights={"image": 1.0},
                             metric=MetricType.INNER_PRODUCT)

    def test_negative_weight_rejected(self, rng):
        with pytest.raises(ValueError):
            MultiVectorQuery(
                fields=("image",),
                queries={"image": np.zeros(8)},
                weights={"image": -1.0},
                metric=MetricType.INNER_PRODUCT)

    def test_deletes_respected(self, mv_segment, rng):
        query = make_query(rng)
        batch = search_segment(mv_segment, query, 3, amplification=40)
        top = batch[0].pk
        mv_segment.apply_delete([top], 99)
        after = search_segment(mv_segment, query, 3, amplification=40)
        assert top not in after.pks.tolist()
