"""The Milvus (pre-cloud-native) baseline for Figure 6.

Section 5: "Milvus has multiple read nodes, but only one write node, to
ensure eventual consistency.  The write node [is] responsible for data
insertion and index construction, and thus write tasks and index building
tasks contend for resource.  As a result, the index building latency is
long and brute force search is used for a large amount of data."

:class:`MilvusLikeCluster` reuses the full pipeline but reshapes it into
that architecture:

* exactly **one** index node, which is also charged the ingestion work —
  every insert batch pushes its write-processing time onto the node's
  ``busy_until_ms``, so index builds queue behind ingestion (the paper's
  resource contention);
* **no temporary slice indexes** — un-indexed data is scanned brute force;
* **eventual consistency** only (searches never wait on the log).

Everything else (loggers, WAL, query nodes, binlogs) is identical, so the
Figure 6 gap isolates exactly the architectural difference the paper
credits.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.cluster.manu import ManuCluster
from repro.config import DEFAULT_CONFIG, ManuConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.results import SearchResult
from repro.core.schema import MetricType
from repro.sim.costmodel import CostModel

from dataclasses import replace


class MilvusLikeCluster(ManuCluster):
    """ManuCluster reshaped into the Milvus 1.x architecture."""

    def __init__(self, config: Optional[ManuConfig] = None,
                 cost_model: Optional[CostModel] = None,
                 num_query_nodes: int = 2,
                 ingest_ms_per_row: float = 0.4,
                 **kwargs) -> None:
        base = config if config is not None else DEFAULT_CONFIG
        segment = replace(base.segment, enable_temp_index=False)
        config = base.with_overrides(segment=segment)
        kwargs.pop("num_index_nodes", None)
        super().__init__(config=config, cost_model=cost_model,
                         num_query_nodes=num_query_nodes,
                         num_index_nodes=1, **kwargs)
        self.ingest_ms_per_row = ingest_ms_per_row
        self.write_node = self.index_nodes[0]

    # ------------------------------------------------------------------
    # the single write node is charged for ingestion
    # ------------------------------------------------------------------

    def insert(self, collection: str, data: Mapping) -> tuple:
        pks = super().insert(collection, data)
        # Ingestion work occupies the combined write/index node, delaying
        # any queued index builds (Figure 6's contention).
        busy_from = max(self.now(), self.write_node.busy_until_ms)
        self.write_node.busy_until_ms = (
            busy_from + self.ingest_ms_per_row * len(pks))
        return pks

    def search(self, collection: str, queries, k: int,
               field: Optional[str] = None,
               metric: MetricType = MetricType.EUCLIDEAN,
               expr: Optional[str] = None,
               consistency: ConsistencyLevel = ConsistencyLevel.EVENTUAL,
               staleness_ms: float = 0.0,
               at_ms: Optional[float] = None) -> list[SearchResult]:
        # Milvus supports eventual consistency only.
        return super().search(collection, queries, k, field=field,
                              metric=metric, expr=expr,
                              consistency=ConsistencyLevel.EVENTUAL,
                              staleness_ms=0.0, at_ms=at_ms)
