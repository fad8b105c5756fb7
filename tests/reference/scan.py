"""The per-query IVF and bucketed loops, the per-row segment post-filter
and the growing segment's old rules, each next to the ``src/repro``
function it was deleted from.  The exact per-query scan is
:func:`loop_decode_scan` with ``FlatCodec``'s identity decode."""

import heapq

import numpy as np

from repro.core.results import HitBatch
from repro.core.schema import MetricType
from repro.core.segment import Segment
from repro.errors import ClusterStateError
from repro.index.base import SearchStats
from repro.index.distances import adjusted_distances, squared_l2, \
    topk_smallest
from repro.index.ivf import FlatCodec, IvfFlatIndex
from repro.index.pq import ProductQuantizer, effective_metric

L2, COS = MetricType.EUCLIDEAN, MetricType.COSINE


def lists_of(index, column="ids"):
    """Per-list slices of the list-sorted storage: the member ids, or
    with ``column="codes"`` their codes."""
    stored = index._lists
    values = getattr(stored, column)
    return [values[stored.offsets[c]:stored.offsets[c + 1]]
            for c in range(stored.nlist)]


def oracle_flat_search(index, data, queries, k, nprobe):
    """Former ``IvfFlatIndex.search``: same coarse step, per-query scan."""
    queries = np.asarray(queries, dtype=np.float32).reshape(-1, index.dim)
    nprobe = min(nprobe, index.effective_nlist)
    centroid_dists = adjusted_distances(queries, index.bucketer.centroids,
                                        index.metric)
    probe_lists, _ = topk_smallest(centroid_dists, nprobe)
    lists, stats = lists_of(index), SearchStats()
    ids, dists = loop_decode_scan(
        lists, [data[members] for members in lists], FlatCodec(index.metric),
        index.metric, queries, probe_lists, k, stats)
    return ids, dists, centroid_dists.size + stats.float_comparisons


def oracle_allowed(segment, filter_mask):
    """Former ``Segment._allowed_mask``: live rows the filter lets by."""
    allowed = ~segment.deleted_mask()
    if filter_mask is not None:
        assert len(filter_mask) == segment.num_rows
        allowed = allowed & filter_mask
    return allowed


def oracle_search_brute(segment, field, queries, k, metric, allowed, stats):
    """Former ``Segment._search_brute``: gather the allowed rows, one
    exact scan, one hit batch per query."""
    rows = np.flatnonzero(allowed)
    if not len(rows) or k <= 0:
        return [HitBatch.empty() for _ in range(queries.shape[0])]
    if field in segment._consolidated:
        stats.cache_hits += 1
    else:
        stats.cache_misses += 1
    data = segment.column(field)[rows]
    dists = adjusted_distances(queries, data, metric)
    stats.brute_scans += 1
    stats.rows_scanned += queries.shape[0] * len(rows)
    stats.bytes_materialized += int(data.nbytes)
    stats.float_comparisons += queries.shape[0] * len(rows)
    idx, vals = topk_smallest(dists, k)
    pk_arr = segment.pk_array
    return [HitBatch(pk_arr[rows[idx[qi]]], vals[qi])
            for qi in range(queries.shape[0])]


def oracle_search_with_index(segment, index, row_offset, queries, k, metric,
                             allowed, stats, field):
    """Former ``Segment._search_with_index``: one walk per result row."""
    covered = index.ntotal
    n_excluded = covered - int(
        allowed[row_offset:row_offset + covered].sum())
    k_amplified = min(covered, k + n_excluded if n_excluded <= k
                      else min(covered, 2 * k + n_excluded // 4))
    ids, dists = index.search(queries, k_amplified)
    stats.add(index.stats)
    stats.index_scans += 1
    stats.rows_scanned += (index.stats.float_comparisons
                           + index.stats.quantized_comparisons)
    pk_arr = segment.pk_array
    out = []
    for qi in range(queries.shape[0]):
        local = np.asarray(ids[qi], dtype=np.int64)
        padding = np.flatnonzero(local < 0)
        if padding.size:
            local = local[:padding[0]]
        rows = row_offset + local
        keep = allowed[rows]
        stats.candidates_visited += len(local)
        stats.candidates_pruned += len(local) - int(keep.sum())
        kept_rows = rows[keep][:k]
        if n_excluded > 0 and len(kept_rows) < k and k_amplified < covered:
            sub_allowed = np.zeros_like(allowed)
            sub_allowed[row_offset:row_offset + covered] = (
                allowed[row_offset:row_offset + covered])
            out.append(oracle_search_brute(
                segment, field, queries[qi:qi + 1], k, metric, sub_allowed,
                stats)[0])
        else:
            kept_dists = dists[qi][:len(local)][keep][:k]
            out.append(HitBatch(pk_arr[kept_rows],
                                kept_dists.astype(np.float32, copy=False)))
    return out


def oracle_segment_search(segment, field, queries, k, metric,
                          filter_mask=None, stats=None):
    """Former ``Segment.search`` for sealed-with-index and growing
    segments, built on :func:`oracle_search_with_index`."""
    stats = stats if stats is not None else SearchStats()
    queries = np.asarray(queries, dtype=np.float32)
    stats.delete_filter_hits += int(segment.deleted_mask().sum())
    allowed = oracle_allowed(segment, filter_mask)
    if int(allowed.sum()) == 0:
        return [HitBatch.empty() for _ in range(queries.shape[0])]
    sealed_index = segment.index_for(field)
    if sealed_index is not None:
        return oracle_search_with_index(segment, sealed_index, 0, queries,
                                        k, metric, allowed, stats, field)
    size = segment.config.slice_size
    per_query = [[] for _ in range(queries.shape[0])]
    uncovered_from = 0
    for slice_no in range(segment.num_rows // size):
        index = segment._temp_index_for(field, slice_no, metric)
        offset = slice_no * size
        results = oracle_search_with_index(segment, index, offset, queries,
                                           k, metric, allowed, stats, field)
        for qi, item in enumerate(results):
            per_query[qi].append(item)
        uncovered_from = max(uncovered_from, offset + index.ntotal)
    if uncovered_from < segment.num_rows:
        tail_allowed = np.zeros_like(allowed)
        tail_allowed[uncovered_from:] = allowed[uncovered_from:]
        if tail_allowed.any():
            results = oracle_search_brute(segment, field, queries, k,
                                          metric, tail_allowed, stats)
            for qi, item in enumerate(results):
                per_query[qi].append(item)
    out = []
    for qi in range(queries.shape[0]):
        batches = [b for b in per_query[qi] if len(b)]
        if not batches:
            out.append(HitBatch.empty())
            continue
        pks = np.concatenate([b.pks for b in batches])
        dists = np.concatenate([b.dists for b in batches])
        idx, vals = topk_smallest(dists, k)
        out.append(HitBatch(pks[idx], vals))
    return out


def oracle_topk(values, k):
    """Former ``topk_smallest``: three ``take_along_axis`` gathers."""
    values = np.asarray(values)
    k = min(k, values.shape[-1])
    if k <= 0:     # keeps the leading shape: (nq, 0) for a block
        return (np.empty(values.shape[:-1] + (0,), dtype=np.int64),
                np.empty(values.shape[:-1] + (0,), dtype=values.dtype))
    part = np.argpartition(values, k - 1, axis=-1)[..., :k]
    part_vals = np.take_along_axis(values, part, axis=-1)
    order = np.argsort(part_vals, axis=-1, kind="stable")
    idx = np.take_along_axis(part, order, axis=-1)
    return idx, np.take_along_axis(values, idx, axis=-1)


def charge(stats, codec, rows):
    if codec.quantized:
        stats.quantized_comparisons += rows
    else:
        stats.float_comparisons += rows


def loop_decode_scan(lists, codes, codec, metric, queries, probe_lists, k,
                     stats):
    """composite.py:330, sq.py:138: gather the probed lists' codes, decode,
    exact distances, one top-k per query."""
    nq = queries.shape[0]
    all_ids = np.full((nq, k), -1, dtype=np.int64)
    all_dists = np.full((nq, k), np.inf, dtype=np.float32)
    for qi in range(nq):
        probed = [b for b in probe_lists[qi] if b >= 0 and len(lists[b])]
        if not probed:
            continue
        rows = np.concatenate([lists[b] for b in probed])
        decoded = codec.decode(np.concatenate([codes[b] for b in probed]))
        dists = adjusted_distances(queries[qi], decoded, metric)[0]
        charge(stats, codec, len(rows))
        idx, vals = topk_smallest(dists, k)
        all_ids[qi, :len(idx)] = rows[idx]
        all_dists[qi, :len(idx)] = vals
    return all_ids, all_dists


def loop_ivf_pq(index, queries, k, nprobe):
    """pq.py:225 (``IvfPqIndex.search``), as it was."""
    lists, codes, pq = lists_of(index), lists_of(index, "codes"), index.pq
    centroids = index.bucketer.centroids
    stats = SearchStats()
    if index.metric is COS:
        queries = queries / np.maximum(
            np.linalg.norm(queries, axis=1, keepdims=True), 1e-30)
    metric = effective_metric(index.metric)
    nprobe = min(nprobe, len(lists))
    centroid_dists = adjusted_distances(queries, centroids, metric)
    stats.float_comparisons += queries.shape[0] * centroids.shape[0]
    probe_lists, _ = topk_smallest(centroid_dists, nprobe)
    nq = queries.shape[0]
    all_ids = np.full((nq, k), -1, dtype=np.int64)
    all_dists = np.full((nq, k), np.inf, dtype=np.float32)
    for qi in range(nq):
        cand_ids, cand_dists = [], []
        for cluster in probe_lists[qi]:
            members = lists[cluster]
            if not len(members):
                continue
            if index.metric is L2:
                table = pq.adc_table(queries[qi] - centroids[cluster],
                                     metric)
                dists = ProductQuantizer.adc_scan(table, codes[cluster])
            else:
                table = pq.adc_table(queries[qi], metric)
                dists = (ProductQuantizer.adc_scan(table, codes[cluster])
                         + centroid_dists[qi, cluster])
            stats.quantized_comparisons += len(members)
            cand_ids.append(members)
            cand_dists.append(dists)
        if not cand_ids:
            continue
        ids = np.concatenate(cand_ids)
        dists = np.concatenate(cand_dists)
        idx, vals = topk_smallest(dists, k)
        all_ids[qi, :len(idx)] = ids[idx]
        all_dists[qi, :len(idx)] = vals
    return all_ids, all_dists, stats


def heap_multi_sequence(d1, d2, cell_list, stop):
    """imi.py:60 / composite.py:208, the one heap walk both copied: cells
    in increasing ``d1[i] + d2[j]``; ``stop(cells so far)`` ends it."""
    order1 = np.argsort(d1, kind="stable")
    order2 = np.argsort(d2, kind="stable")
    heap = [(float(d1[order1[0]] + d2[order2[0]]), 0, 0)]
    seen = {(0, 0)}
    out = []
    while heap and not stop(out):
        _, i, j = heapq.heappop(heap)
        cell = cell_list[int(order1[i]) * len(d2) + int(order2[j])]
        if cell >= 0:
            out.append(int(cell))
        if i + 1 < len(order1) and (i + 1, j) not in seen:
            seen.add((i + 1, j))
            heapq.heappush(heap, (float(d1[order1[i + 1]]
                                        + d2[order2[j]]), i + 1, j))
        if j + 1 < len(order2) and (i, j + 1) not in seen:
            seen.add((i, j + 1))
            heapq.heappush(heap, (float(d1[order1[i]]
                                        + d2[order2[j + 1]]), i, j + 1))
    return out


def loop_imi_probe(bucketer, queries, stop):
    """Ragged per-query cell lists as a ``-1``-padded matrix.  The half
    distances come from one product per block, as the bucketer's do."""
    d1 = squared_l2(queries[:, :bucketer.half], bucketer._books[0])
    d2 = squared_l2(queries[:, bucketer.half:], bucketer._books[1])
    walks = [heap_multi_sequence(d1[qi], d2[qi], bucketer._cell_list, stop)
             for qi in range(len(queries))]
    width = max((len(w) for w in walks), default=0)
    return np.array([w + [-1] * (width - len(w)) for w in walks],
                    dtype=np.int64).reshape(len(queries), width)


def loop_ssd(index, queries, bucket_ids, k, stats):
    """ssd.py:112: fetch, decode, rerank, drop an id's later hits."""
    lists, codes = lists_of(index), lists_of(index, "codes")
    nq = queries.shape[0]
    all_ids = np.full((nq, k), -1, dtype=np.int64)
    all_dists = np.full((nq, k), np.inf, dtype=np.float32)
    for qi in range(nq):
        member_lists, code_lists = [], []
        for bucket in bucket_ids[qi]:
            if bucket < 0:
                continue
            stats.ssd_blocks_read += index.blocks_per_bucket
            member_lists.append(lists[int(bucket)])
            code_lists.append(codes[int(bucket)])
        if not member_lists or k == 0:     # k=0 used to crash: no scan
            continue
        ids = np.concatenate(member_lists)
        decoded = index.sq.decode(np.concatenate(code_lists, axis=0))
        dists = adjusted_distances(queries[qi], decoded, index.metric)[0]
        stats.quantized_comparisons += len(ids)
        seen, count = set(), 0
        for oi in np.argsort(dists, kind="stable"):
            node = int(ids[oi])
            if node in seen:
                continue
            seen.add(node)
            all_ids[qi, count] = node
            all_dists[qi, count] = dists[oi]
            count += 1
            if count >= k:
                break
    return all_ids, all_dists


def loop_tiered(index, queries, k, cold_ids, cold_dists):
    """tiered.py:94: one dict per query."""
    nq = queries.shape[0]
    all_ids = np.full((nq, k), -1, dtype=np.int64)
    all_dists = np.full((nq, k), np.inf, dtype=np.float32)
    hot_vectors = index._data[index._hot_ids]
    for qi in range(nq):
        hot_dists = adjusted_distances(queries[qi], hot_vectors,
                                       index.metric)[0]
        hot_idx, hot_vals = topk_smallest(hot_dists, k)
        merged = {}
        for local, dist in zip(hot_idx, hot_vals):
            merged[int(index._hot_ids[local])] = float(dist)
        for node, dist in zip(cold_ids[qi], cold_dists[qi]):
            if node < 0:
                continue
            node = int(node)
            if node not in merged or dist < merged[node]:
                merged[node] = float(dist)
        ordered = sorted(merged.items(), key=lambda kv: kv[1])[:k]
        for col, (node, dist) in enumerate(ordered):
            all_ids[qi, col] = node
            all_dists[qi, col] = dist
    return all_ids, all_dists


def loop_flat_adc(index, queries, k):
    """pq.py:162 / opq.py:102: one ADC table and one scan per query."""
    codec = index.codec
    pq = getattr(codec, "pq", codec)
    if index.metric is COS:
        queries = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    metric = effective_metric(index.metric)
    if pq is not codec:
        queries = codec.rotate(queries)
    nq = queries.shape[0]
    all_ids = np.full((nq, k), -1, dtype=np.int64)
    all_dists = np.full((nq, k), np.inf, dtype=np.float32)
    for qi in range(nq):
        dists = ProductQuantizer.adc_scan(pq.adc_table(queries[qi], metric),
                                          index._lists.codes)
        idx, vals = topk_smallest(dists, k)
        all_ids[qi, :len(idx)] = idx
        all_dists[qi, :len(idx)] = vals
    return all_ids, all_dists


class ParentRulesSegment(Segment):
    """The growing segment before slice indexes moved to the first read
    (the reference): the append that fills a slice builds its Euclidean
    index, another metric's is built at the first search of a slice that
    has one, every append drops the consolidated columns and the first
    read after it concatenates the whole chunk list, ``pk_array`` is
    rebuilt from the pk list.  ``memory_bytes`` sums the same bytes
    without reading a column."""

    def append(self, pks, columns, lsn, now_ms=0.0):
        if self.is_sealed:
            raise ClusterStateError(
                f"segment {self.segment_id} is sealed; cannot append")
        start = self.num_rows
        end = start + len(pks)
        self._pk_rows.update(zip(pks, range(start, end)))
        self._pks.extend(pks)
        self._pk_arr = None
        for name, chunk in columns.items():
            self._chunks[name].append(chunk)
        self._consolidated.clear()
        if end > len(self._deleted_buf):
            grown = np.zeros(max(end, 2 * len(self._deleted_buf)),
                             dtype=bool)
            grown[:start] = self._deleted
            self._deleted_buf = grown
        self._deleted = self._deleted_buf[:end]
        self.max_lsn = max(self.max_lsn, lsn)
        self.max_insert_lsn = max(self.max_insert_lsn, lsn)
        self.last_insert_at_ms = now_ms
        if self.temp_index_enabled:
            full_slices = self.num_rows // self.config.slice_size
            for field in self.schema.vector_fields:
                built = self._temp_indexes[field.name]
                for slice_no in range(full_slices):
                    if (slice_no, MetricType.EUCLIDEAN) not in built:
                        self._build_temp_index(field.name, slice_no,
                                               MetricType.EUCLIDEAN)

    @property
    def pk_array(self):
        if self._pk_arr is None:
            self._pk_arr = np.asarray(self._pks)
        return self._pk_arr

    def _concatenated(self, name):
        field = self.schema.field(name)
        chunks = self._chunks[name]
        if field.dtype.is_vector:
            if chunks:
                return np.concatenate(
                    [np.asarray(c, dtype=np.float32) for c in chunks], axis=0)
            return np.empty((0, field.dim), dtype=np.float32)
        if chunks:
            return np.concatenate([np.asarray(c) for c in chunks])
        return np.empty(0)

    def column(self, name):
        if name not in self._consolidated:
            self._consolidated[name] = self._concatenated(name)
        return self._consolidated[name]

    def memory_bytes(self):
        return sum(self._concatenated(name).nbytes for name in self._chunks)

    def _build_temp_index(self, field, slice_no, metric):
        size = self.config.slice_size
        data = self.column(field)[slice_no * size:(slice_no + 1) * size]
        index = IvfFlatIndex(metric, self.schema.field(field).dim,
                             nlist=self.config.temp_index_nlist,
                             nprobe=max(2, self.config.temp_index_nlist // 8))
        index.build(data)
        self._temp_indexes[field][(slice_no, metric)] = index
        return index

    def _temp_index_for(self, field, slice_no, metric):
        built = self._temp_indexes.get(field)
        if built is None or not self.temp_index_enabled:
            return None
        index = built.get((slice_no, metric))
        if index is None and any(s == slice_no for s, _ in built):
            index = self._build_temp_index(field, slice_no, metric)
        return index

    def num_temp_indexes(self, field):
        return len({s for s, _ in self._temp_indexes.get(field, {})})

    def _search_growing(self, field, queries, k, metric, allowed, stats):
        size = self.config.slice_size
        parts = []
        uncovered_from = 0
        for slice_no in sorted({s for s, _ in
                                self._temp_indexes.get(field, {})}):
            index = self._temp_index_for(field, slice_no, metric)
            if index is None:
                continue
            parts.append(self._search_with_index(
                index, slice_no * size, queries, k, metric, allowed, stats,
                field))
            uncovered_from = max(uncovered_from,
                                 slice_no * size + index.ntotal)
        if uncovered_from < self.num_rows:
            parts.append(self._search_brute(
                field, queries, k, metric, allowed, uncovered_from,
                self.num_rows, stats))
        rows = np.concatenate([part[0] for part in parts], axis=1)
        idx, dists = topk_smallest(
            np.concatenate([part[1] for part in parts], axis=1), k)
        return np.take_along_axis(rows, idx, axis=1), dists
