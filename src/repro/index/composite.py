"""Modularized vector search (the paper's future-work direction, §7).

"We think vector search algorithms can be distilled into independent
components, e.g., compression ..., indexing ..., and bucketing ... We will
provide a unified framework for vector search such that users can flexibly
combine different techniques."

That framework is the bucketed index of :mod:`repro.index.ivf`, the one
structure every list-based catalog type is built from; this module only
lets users name its parts.  :class:`CompositeIndex` (``"COMPOSITE"``) is
any **bucketer** — ``kmeans``, ``imi``, ``graph`` — x any **compressor**
(codec) — ``none``, ``sq``, ``pq``, ``rq``.  Catalog names are points of
this grid with equal parameters (IVF_FLAT = kmeans x none, IVF_SQ8 =
kmeans x sq, IVF_HNSW = graph x none, IMI = imi x none plus its stopping
rule); the combinations the catalog does not ship come for free.
"""

from __future__ import annotations

from repro.core.schema import MetricType
from repro.errors import IndexBuildError
from repro.index.base import register_index
from repro.index.imi import ImiBucketer
from repro.index.ivf import BucketedIndex, FlatCodec, GraphBucketer, \
    KMeansBucketer
from repro.index.pq import ProductQuantizer, effective_metric
from repro.index.rq import ResidualQuantizer
from repro.index.sq import ScalarQuantizer

_COMPRESSORS = ("none", "sq", "pq", "rq")
_BUCKETERS = ("kmeans", "imi", "graph")


@register_index("COMPOSITE")
class CompositeIndex(BucketedIndex):
    """Any bucketer x compressor combination as one index."""

    def __init__(self, metric: MetricType, dim: int,
                 bucketer: str = "kmeans", compressor: str = "none",
                 nlist: int = 64, nprobe: int = 8, m: int = 8,
                 stages: int = 4, ksub: int = 16, seed: int = 0) -> None:
        if bucketer not in _BUCKETERS:
            raise IndexBuildError(
                f"unknown bucketer {bucketer!r}; pick from {_BUCKETERS}")
        if compressor not in _COMPRESSORS:
            raise IndexBuildError(
                f"unknown compressor {compressor!r}; "
                f"pick from {_COMPRESSORS}")
        self.bucketer_name = bucketer
        self.compressor_name = compressor
        if compressor == "none":
            codec = FlatCodec(metric)
        elif compressor == "sq":
            codec = ScalarQuantizer(dim)
        elif compressor == "pq":
            codec = ProductQuantizer(dim, m=m, seed=seed)
        else:
            codec = ResidualQuantizer(dim, stages=stages, seed=seed)
        # ADC tables do not compose cosine: pq lists hold unit rows and are
        # scanned as inner product (``BucketedIndex._unit_rows``).
        scanned_as = effective_metric(metric) if compressor == "pq" \
            else metric
        if bucketer == "kmeans":
            buckets = KMeansBucketer(scanned_as, nlist, seed)
        elif bucketer == "imi":
            buckets = ImiBucketer(scanned_as, dim, ksub, seed)
        else:
            buckets = GraphBucketer(scanned_as, dim, nlist, seed=seed)
        super().__init__(metric, dim, buckets, codec, nprobe)

    def describe(self) -> str:
        return f"{self.bucketer_name} x {self.compressor_name}"
