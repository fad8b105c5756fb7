"""Multi-vector search (Section 3.6).

An entity may be encoded by several vectors (e.g. an image embedding and a
text embedding); entity similarity is a composition of per-field
similarities.  The paper composes them two ways, by the entity similarity
function:

* **decomposed** — when the composition is a *weighted sum of inner
  products*, the score decomposes exactly: scale each query sub-vector by
  its weight and sum the per-field searches' contributions (exact because
  IP is linear in the query);
* **rerank** (vector fusion fallback) — for non-decomposable compositions
  (e.g. weighted L2), search each field for an amplified candidate set,
  fetch the candidates' vectors for all fields, compute the true combined
  score, and rerank.

One procedure serves both here: per-field searches gather an amplified
candidate pool, and the pool is rescored exactly under the weighted
combination.  For a decomposable composition the exact rescoring *is* the
sum of per-field contributions, so the two compositions differ in nothing
this module computes.  Amplification is the usual recall/cost knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.entity import require_number
from repro.core.results import HitBatch
from repro.core.schema import MetricType
from repro.core.segment import Segment
from repro.errors import InvalidQuery
from repro.index.base import SearchStats
from repro.index.distances import adjusted_distances


@dataclass(frozen=True)
class MultiVectorQuery:
    """Queries and weights per vector field, plus the per-field metric."""

    fields: tuple[str, ...]
    queries: Mapping[str, np.ndarray]  # field -> (dim,) query vector
    weights: Mapping[str, float]
    metric: MetricType

    def __post_init__(self) -> None:
        if not self.fields:
            raise InvalidQuery("a multi-vector query names at least one "
                               "vector field")
        missing = [f for f in self.fields
                   if f not in self.queries or f not in self.weights]
        if missing:
            raise InvalidQuery(f"missing query/weight for fields {missing}")
        for field in self.fields:
            require_number(f"the weight of {field!r}", self.weights[field],
                           0)


def search_segment(segment: Segment, query: MultiVectorQuery, k: int,
                   amplification: int = 4,
                   stats: Optional[Sequence[SearchStats]] = None,
                   ) -> HitBatch:
    """Top-k entities of one segment under the combined similarity.

    Returns a :class:`HitBatch` of combined adjusted distances, sorted
    ascending.  ``stats`` — one :class:`SearchStats` per entry of
    ``query.fields`` — receives each field's work separately, so the
    caller can charge every field at its own dimension.
    """
    if stats is None:
        stats = [SearchStats() for _ in query.fields]
    k_amp = max(k * amplification, k)

    # Gather a candidate pool from per-field searches (tolist keeps the
    # pool native-typed so str-keyed ordering matches the pk column).
    pool: set = set()
    for field, field_stats in zip(query.fields, stats):
        q = np.asarray(query.queries[field], dtype=np.float32)
        results = segment.search(field, q[None, :], k_amp, query.metric,
                                 stats=field_stats)
        pool.update(results[0].pks.tolist())
    if not pool:
        return HitBatch.empty()
    pks = sorted(pool, key=str)

    # Exact combined rescoring of the pool.
    rows = [row for row in (segment._pk_rows.get(pk) for pk in pks)]
    combined = np.zeros(len(pks), dtype=np.float64)
    for field, field_stats in zip(query.fields, stats):
        weight = float(query.weights[field])
        if weight == 0.0:
            continue
        data = segment.column(field)[rows]
        q = np.asarray(query.queries[field], dtype=np.float32)
        dists = adjusted_distances(q, data, query.metric)[0]
        field_stats.float_comparisons += len(pks)
        combined += weight * dists.astype(np.float64)

    order = np.argsort(combined, kind="stable")[:k]
    return HitBatch(np.asarray(pks)[order],
                    combined[order].astype(np.float32))
