"""Core data model and query semantics of the Manu reproduction.

This package holds the paper's primary contribution pieces that are not tied
to a particular worker node: the hybrid-logical-clock TSO, collection
schemas, segments with slices and deletion bitmaps, the delta-consistency
gate, boolean filter expressions, two-phase top-k reduction, time-travel
checkpoints, and the compaction policy.
"""

from repro.core.tso import TimestampOracle, Timestamp
from repro.core.schema import (
    DataType,
    FieldSchema,
    CollectionSchema,
    MetricType,
)
from repro.core.consistency import ConsistencyLevel, ConsistencyGate
from repro.core.results import (
    HitBatch,
    SearchHit,
    SearchResult,
    merge_topk,
)
from repro.core.segment import Segment, SegmentState

__all__ = [
    "TimestampOracle",
    "Timestamp",
    "DataType",
    "FieldSchema",
    "CollectionSchema",
    "MetricType",
    "ConsistencyLevel",
    "ConsistencyGate",
    "HitBatch",
    "SearchHit",
    "SearchResult",
    "merge_topk",
    "Segment",
    "SegmentState",
]
