"""Operation cost model: maps work to virtual milliseconds.

The timing experiments of the paper (Figures 6, 8-13) depend on how long
operations take relative to one another: a brute-force scan of ``n`` vectors
must cost ~``n * dim`` distance computations, an object-store read must pay a
fixed latency plus size over bandwidth, and so on.  The :class:`CostModel`
encodes those relationships with explicit per-unit constants.

Defaults are calibrated to a mid-range 2020s x86 core running numpy kernels
(~1e9 multiply-accumulate per second effective for batched float32 work) so
the absolute virtual numbers land in the same order of magnitude as the
paper's EC2 ``m5.4xlarge`` measurements.  ``CostModel.calibrated()`` measures
the host's real numpy throughput instead, for users who want virtual time to
track their machine.

All methods return durations in virtual milliseconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.index.base import SSD_BLOCKS_READ


@dataclass(frozen=True)
class CostModel:
    """Per-unit cost constants (all milliseconds unless noted)."""

    mac_per_ms: float = 1.0e6
    """Multiply-accumulate operations per virtual millisecond (distance
    kernels); one float32 distance over ``dim`` dimensions costs ``dim``
    MACs."""

    quantized_speedup: float = 4.0
    """How much faster table-lookup (PQ/SQ) comparisons are than float32."""

    rpc_latency_ms: float = 0.2
    """One network hop between components (proxy -> query node, etc.)."""

    request_overhead_ms: float = 0.1
    """Fixed per-message parsing/dispatch cost at each component; batched
    requests pay it once per batch (Section 3.6 request batching)."""

    batch_row_overhead_ms: float = 0.01
    """Marginal per-row serialization cost inside a batched message."""

    object_store_latency_ms: float = 20.0
    """First-byte latency of an object-store request (S3-like)."""

    object_store_mb_per_ms: float = 0.4
    """Object-store streaming bandwidth (400 MB/s)."""

    ssd_block_read_ms: float = 0.08
    """One 4 KB-aligned SSD block read (~100 us NVMe random read)."""

    disk_block_read_ms: float = 0.8
    """One block read on an HDD-class disk (ES-like baseline, 10x slower)."""

    kmeans_iter_factor: float = 3.0
    """k-means builds cost ``iters * n * k * dim`` MACs times this factor."""

    graph_build_factor: float = 6.0
    """Graph (HNSW/NSG) builds cost ``n * ef * dim`` MACs times this factor."""

    # ------------------------------------------------------------------
    # search-side costs
    # ------------------------------------------------------------------

    def distance_cost(self, n_comparisons: int, dim: int,
                      quantized: bool = False) -> float:
        """Cost of computing ``n_comparisons`` distances in ``dim`` dims."""
        macs = float(n_comparisons) * float(dim)
        rate = self.mac_per_ms * (self.quantized_speedup if quantized else 1.0)
        return macs / rate

    def scan_cost(self, counts: np.ndarray, dims) -> list[float]:
        """Cost of a scan's measured work up to and including each of its
        rows, in one call: ``counts`` is a counter array ``(fields, rows,
        STAT_FIELDS)`` (``repro.index.base``) of one row per segment
        scanned, in scan order, each field's counters charged at its own
        dimension in ``dims``.  The last cost is the whole scan's, and
        each is, float for float, what ``distance_cost`` and ``ssd_read``
        of the counters summed so far add to, fields summed in order."""
        mac, ssd = self.mac_per_ms, self.ssd_block_read_ms
        rate = mac * self.quantized_speedup
        ms = None
        for rows, dim in zip(
                counts[..., :SSD_BLOCKS_READ + 1].tolist(), dims):
            dim = float(dim)
            costs = []
            floats = quantized = blocks = 0     # ints: exact sums
            for more_floats, more_quantized, more_blocks in rows:
                floats += more_floats
                quantized += more_quantized
                blocks += more_blocks
                costs.append(floats * dim / mac + quantized * dim / rate
                             + blocks * ssd)
            ms = costs if ms is None else [
                so_far + cost for so_far, cost in zip(ms, costs)]
        return ms if ms is not None else []

    def topk_merge_cost(self, n_lists: int, k: int) -> float:
        """Cost of merging ``n_lists`` sorted top-k lists."""
        # Heap merge is n_lists * k * log(n_lists); tiny, but non-zero so
        # aggregation layers (Vearch baseline) show up in the model.  Up
        # to two lists the log factor is 1.0 exactly.
        ops = float(n_lists) * float(k)
        if n_lists > 2:
            ops *= max(1.0, np.log2(n_lists))
        return ops / self.mac_per_ms

    def rpc_hop(self) -> float:
        """One inter-component message (latency + fixed overhead)."""
        return self.rpc_latency_ms + self.request_overhead_ms

    # ------------------------------------------------------------------
    # storage-side costs
    # ------------------------------------------------------------------

    def object_read(self, nbytes: int) -> float:
        """Read ``nbytes`` from the object store."""
        mb = nbytes / (1024.0 * 1024.0)
        return self.object_store_latency_ms + mb / self.object_store_mb_per_ms

    def object_write(self, nbytes: int) -> float:
        """Write ``nbytes`` to the object store (same model as reads)."""
        return self.object_read(nbytes)

    def ssd_read(self, n_blocks: int) -> float:
        """Read ``n_blocks`` 4 KB-aligned blocks from local SSD."""
        return float(n_blocks) * self.ssd_block_read_ms

    def disk_read(self, n_blocks: int) -> float:
        """Read ``n_blocks`` blocks from HDD-class storage."""
        return float(n_blocks) * self.disk_block_read_ms

    # ------------------------------------------------------------------
    # build-side costs
    # ------------------------------------------------------------------

    def kmeans_build(self, n: int, k: int, dim: int, iters: int = 10) -> float:
        """Cost of training k-means (the core of IVF/PQ builds)."""
        macs = float(iters) * float(n) * float(k) * float(dim)
        return macs * self.kmeans_iter_factor / self.mac_per_ms

    def graph_build(self, n: int, dim: int, ef: int = 64) -> float:
        """Cost of building a proximity graph over ``n`` vectors."""
        macs = float(n) * float(ef) * float(dim) * max(
            1.0, np.log2(max(n, 2)))
        return macs * self.graph_build_factor / self.mac_per_ms

    # ------------------------------------------------------------------
    # calibration
    # ------------------------------------------------------------------

    @classmethod
    def calibrated(cls, sample_n: int = 4096, dim: int = 128) -> "CostModel":
        """Measure the host's numpy MAC rate and return a matching model.

        Used when virtual timings should track the actual machine; the
        default constants are preferred for reproducible experiment output.
        """
        rng = np.random.default_rng(0)
        base = cls()
        data = rng.standard_normal((sample_n, dim), dtype=np.float32)
        query = rng.standard_normal((dim,), dtype=np.float32)
        # Warm up once, then time a handful of full scans.  Calibration
        # deliberately reads the host's real clock: its whole point is to
        # measure the actual machine, and it never runs inside a simulation.
        _ = data @ query
        start = time.perf_counter()  # manu-lint: disable=determinism -- host calibration measures real hardware by design
        reps = 10
        for _ in range(reps):
            diff = data @ query
            _ = float(diff.sum())
        elapsed_ms = (time.perf_counter() - start) * 1000.0  # manu-lint: disable=determinism -- host calibration measures real hardware by design
        macs = float(reps) * sample_n * dim
        measured = macs / max(elapsed_ms, 1e-6)
        return replace(base, mac_per_ms=measured)


DEFAULT_COST_MODEL = CostModel()
