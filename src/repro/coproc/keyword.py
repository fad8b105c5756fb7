"""Keyword search co-processor: a second engine fed by the log (§7).

The co-processor subscribes to a collection's WAL shard channels and
maintains an inverted keyword index over one string field — tokenized,
TF-weighted postings with document-frequency statistics for TF-IDF
ranking.  Deletions from the same log keep it consistent with the vector
side without any coordination, and its consistency gate supports the same
delta-consistency reads as query nodes.

:func:`hybrid_search` fuses a vector result with a keyword result via
reciprocal-rank fusion — the "multi-way search" of the paper's future
work, built entirely out of log subscribers.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Optional

from repro.core.consistency import ConsistencyGate
from repro.core.results import SearchHit, SearchResult
from repro.core.schema import MetricType
from repro.errors import FieldNotFound
from repro.log.broker import LogBroker, LogEntry, Subscription
from repro.log.wal import (
    InsertRecord,
    TimeTickRecord,
    data_records,
    shard_channel,
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens."""
    return _TOKEN_RE.findall(text.lower())


class KeywordCoProcessor:
    """An inverted-index engine attached to a collection's log stream."""

    def __init__(self, broker: LogBroker, collection: str, field: str,
                 num_shards: int, name: str = "keyword-coproc") -> None:
        self.collection = collection
        self.field = field
        self.name = name
        self._broker = broker
        self._postings: dict[str, dict[object, int]] = {}
        self._doc_tokens: dict[object, Counter] = {}
        self._doc_len: dict[object, int] = {}
        self.gate = ConsistencyGate()
        self._subs: list[Subscription] = []
        for shard in range(num_shards):
            channel = shard_channel(collection, shard)
            broker.create_channel(channel)
            self._subs.append(broker.subscribe(
                channel, f"{name}:{shard}", callback=self._on_entry))

    # ------------------------------------------------------------------
    # log consumption
    # ------------------------------------------------------------------

    def _on_entry(self, entry: LogEntry) -> None:
        record = entry.payload
        if isinstance(record, TimeTickRecord):
            self.gate.observe_tick(record.ts)
            return
        self.gate.observe(record.ts)
        for inner in data_records(record):
            if isinstance(inner, InsertRecord):
                values = inner.columns.get(self.field)
                if values is None:
                    raise FieldNotFound(
                        f"field {self.field!r} absent from insert record")
                for pk, text in zip(inner.pks, values):
                    self._index_document(pk, str(text))
            else:
                for pk in inner.pks:
                    self._remove_document(pk)

    def _index_document(self, pk, text: str) -> None:
        self._remove_document(pk)  # idempotent upsert
        tokens = Counter(tokenize(text))
        self._doc_tokens[pk] = tokens
        self._doc_len[pk] = max(1, sum(tokens.values()))
        for token, count in tokens.items():
            self._postings.setdefault(token, {})[pk] = count

    def _remove_document(self, pk) -> None:
        tokens = self._doc_tokens.pop(pk, None)
        if tokens is None:
            return
        self._doc_len.pop(pk, None)
        for token in tokens:
            bucket = self._postings.get(token)
            if bucket is not None:
                bucket.pop(pk, None)
                if not bucket:
                    del self._postings[token]

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    @property
    def num_documents(self) -> int:
        return len(self._doc_tokens)

    def vocabulary_size(self) -> int:
        return len(self._postings)

    def search(self, query: str, k: int = 10) -> list[SearchHit]:
        """TF-IDF ranked keyword search; hits sorted best-first.

        Hit ``adjusted_distance`` is the negated score so keyword hits
        compose with the rest of the result machinery (smaller = better).
        """
        tokens = tokenize(query)
        if not tokens or not self._doc_tokens:
            return []
        n_docs = self.num_documents
        scores: dict[object, float] = {}
        for token in set(tokens):
            bucket = self._postings.get(token)
            if not bucket:
                continue
            idf = math.log(1.0 + n_docs / len(bucket))
            for pk, count in bucket.items():
                tf = count / self._doc_len[pk]
                scores[pk] = scores.get(pk, 0.0) + tf * idf
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], str(kv[0])))
        return [SearchHit(-score, pk) for pk, score in ranked[:k]]

    def ready(self, guarantee_ts: int) -> bool:
        """Delta-consistency readiness, same contract as query nodes."""
        return self.gate.ready(guarantee_ts)

    def close(self) -> None:
        for sub in self._subs:
            sub.cancel()
        self._subs = []


def hybrid_search(vector_result: SearchResult,
                  keyword_hits: list[SearchHit], k: int,
                  rrf_k: float = 60.0,
                  metric: Optional[MetricType] = None) -> SearchResult:
    """Fuse vector and keyword rankings with reciprocal-rank fusion.

    RRF is rank-only, so the incomparable score scales of the two engines
    (adjusted distances vs TF-IDF) never mix; a document ranked well by
    both engines climbs to the top.
    """
    if k <= 0:
        return SearchResult(hits=[], metric=metric or vector_result.metric)
    fused: dict[object, float] = {}
    for rank, hit in enumerate(vector_result.hits):
        fused[hit.pk] = fused.get(hit.pk, 0.0) + 1.0 / (rrf_k + rank + 1)
    for rank, hit in enumerate(keyword_hits):
        fused[hit.pk] = fused.get(hit.pk, 0.0) + 1.0 / (rrf_k + rank + 1)
    ranked = sorted(fused.items(), key=lambda kv: (-kv[1], str(kv[0])))
    hits = [SearchHit(-score, pk) for pk, score in ranked[:k]]
    return SearchResult(hits=hits,
                        metric=metric or vector_result.metric,
                        latency_ms=vector_result.latency_ms,
                        consistency_wait_ms=vector_result
                        .consistency_wait_ms)
