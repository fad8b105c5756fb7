"""Tests for the operation cost model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.index.base import STAT_FIELDS, SearchStats
from repro.sim.costmodel import CostModel
from tests.reference.accounting import scan_cost as former_scan_cost


@pytest.fixture
def cost() -> CostModel:
    return CostModel()


class TestDistanceCost:
    def test_linear_in_comparisons(self, cost):
        assert cost.distance_cost(2000, 64) == \
            pytest.approx(2 * cost.distance_cost(1000, 64))

    def test_linear_in_dim(self, cost):
        assert cost.distance_cost(1000, 128) == \
            pytest.approx(2 * cost.distance_cost(1000, 64))

    def test_quantized_faster(self, cost):
        slow = cost.distance_cost(1000, 64)
        fast = cost.distance_cost(1000, 64, quantized=True)
        assert fast == pytest.approx(slow / cost.quantized_speedup)

    def test_zero_work_free(self, cost):
        assert cost.distance_cost(0, 128) == 0.0


class TestStorageCosts:
    def test_object_read_has_floor_latency(self, cost):
        assert cost.object_read(0) == cost.object_store_latency_ms

    def test_object_read_scales_with_size(self, cost):
        small = cost.object_read(1024)
        large = cost.object_read(100 * 1024 * 1024)
        assert large > small
        expected = (cost.object_store_latency_ms
                    + 100.0 / cost.object_store_mb_per_ms)
        assert large == pytest.approx(expected)

    def test_ssd_cheaper_than_disk(self, cost):
        assert cost.ssd_read(100) < cost.disk_read(100)

    def test_write_mirrors_read(self, cost):
        assert cost.object_write(5000) == cost.object_read(5000)


class TestBuildCosts:
    def test_kmeans_linear_in_n(self, cost):
        assert cost.kmeans_build(2000, 64, 128) == \
            pytest.approx(2 * cost.kmeans_build(1000, 64, 128))

    def test_graph_build_superlinear(self, cost):
        # n log n growth: doubling n more than doubles cost.
        assert cost.graph_build(2000, 64) > 2 * cost.graph_build(1000, 64)

    def test_rpc_hop_positive(self, cost):
        assert cost.rpc_hop() > 0

    def test_merge_cost_grows_with_lists(self, cost):
        assert cost.topk_merge_cost(16, 50) > cost.topk_merge_cost(2, 50)


class TestCalibration:
    def test_calibrated_returns_positive_rate(self):
        model = CostModel.calibrated(sample_n=512, dim=32)
        assert model.mac_per_ms > 0
        # Other constants are preserved.
        assert model.rpc_latency_ms == CostModel().rpc_latency_ms


class TestScanCost:
    """``scan_cost`` charges a node scan's counter array in one call: the
    cost of the work up to and including every segment, each equal, float
    for float, to the former formula over the ``SearchStats`` summed so
    far (``tests/reference/accounting.py``), which the service time and
    every ``segment.scan`` window were made of."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 12), st.integers(1, 11),
           st.sampled_from([CostModel(),
                            CostModel(mac_per_ms=3.3e5, quantized_speedup=3.7,
                                      ssd_block_read_ms=0.0713)]),
           st.integers(0, 2**32 - 1))
    def test_cumulative_costs_equal_the_former_formula(
            self, fields, segments, digits, cost, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 10 ** digits,
                              (fields, segments, len(STAT_FIELDS)))
        dims = rng.integers(1, 1024, fields).tolist()
        so_far = [SearchStats() for _ in range(fields)]
        want = []
        for i in range(segments):
            for field, stats in enumerate(so_far):
                stats.add(SearchStats.from_row(counts[field, i].tolist()))
            want.append(former_scan_cost(cost, so_far, dims))
        got = cost.scan_cost(counts, dims)
        assert got == want
        assert all(type(ms) is float for ms in got)
