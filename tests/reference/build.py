"""The plain k-means loop every index was built with before the build path
redid only what moved, and the per-key write path (bloom bits, SSTable and
binlog column blobs, shard routing, segment bookkeeping), both copied
verbatim from the commits that replaced them: ``repro.index.kmeans`` and
the batch forms must match them to the last bit and the last draw."""

import hashlib
import json
import struct

import numpy as np

from repro.index.kmeans import KMeansResult
from repro.storage.bloom import BloomFilter


def squared_l2_reference(queries, data):
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    data = np.atleast_2d(np.asarray(data, dtype=np.float32))
    q_norms = np.einsum("ij,ij->i", queries, queries)
    d_norms = np.einsum("ij,ij->i", data, data)
    cross = queries @ data.T
    out = q_norms[:, None] - 2.0 * cross + d_norms[None, :]
    np.maximum(out, 0.0, out=out)
    return out


def _kmeans_pp_init_reference(data, k, rng):
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=np.float32)
    first = int(rng.integers(n))
    centroids[0] = data[first]
    closest = squared_l2_reference(data, centroids[0:1])[:, 0]
    for i in range(1, k):
        total = float(closest.sum())
        if total <= 0:
            # All remaining points coincide with chosen centroids.
            pick = int(rng.integers(n))
        else:
            probs = closest / total
            pick = int(rng.choice(n, p=probs))
        centroids[i] = data[pick]
        dist = squared_l2_reference(data, centroids[i:i + 1])[:, 0]
        np.minimum(closest, dist, out=closest)
    return centroids


def kmeans_reference(data, k, max_iters=25, seed=0, tol=1e-4):
    data = np.ascontiguousarray(data, dtype=np.float32)
    n = data.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty dataset")
    k = max(1, min(k, n))
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init_reference(data, k, rng)

    assignments = np.zeros(n, dtype=np.int64)
    iteration = 0
    for iteration in range(1, max_iters + 1):
        dists = squared_l2_reference(data, centroids)
        assignments = dists.argmin(axis=1)
        new_centroids = centroids.copy()
        moved = 0.0
        for cluster in range(k):
            members = data[assignments == cluster]
            if len(members) == 0:
                # Reseed from the globally worst-served point.
                worst = int(dists.min(axis=1).argmax())
                new_centroids[cluster] = data[worst]
            else:
                new_centroids[cluster] = members.mean(axis=0)
        moved = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if moved < tol:
            break
    final = squared_l2_reference(data, centroids).argmin(axis=1)
    return KMeansResult(centroids=centroids, assignments=final,
                        iterations=iteration)


def hierarchical_balanced_kmeans_reference(data, max_cluster_size,
                                           branch=8, seed=0, max_depth=12):
    data = np.ascontiguousarray(data, dtype=np.float32)
    if max_cluster_size <= 0:
        raise ValueError("max_cluster_size must be positive")

    leaf_centroids = []
    leaf_members = []

    def split(indices, depth):
        subset = data[indices]
        if len(indices) <= max_cluster_size or depth >= max_depth:
            leaf_centroids.append(subset.mean(axis=0))
            leaf_members.append(indices)
            return
        k = min(branch, max(2, int(np.ceil(len(indices) / max_cluster_size))))
        result = kmeans_reference(subset, k, seed=seed + depth)
        made_progress = False
        for cluster in range(result.k):
            members = indices[result.assignments == cluster]
            if len(members) == 0:
                continue
            if len(members) < len(indices):
                made_progress = True
        if not made_progress:
            # Degenerate data (all points identical): chunk arbitrarily.
            for start in range(0, len(indices), max_cluster_size):
                chunk = indices[start:start + max_cluster_size]
                leaf_centroids.append(data[chunk].mean(axis=0))
                leaf_members.append(chunk)
            return
        for cluster in range(result.k):
            members = indices[result.assignments == cluster]
            if len(members):
                split(members, depth + 1)

    split(np.arange(len(data), dtype=np.int64), 0)

    centroids = np.stack(leaf_centroids).astype(np.float32)
    assignments = np.empty(len(data), dtype=np.int64)
    for leaf, members in enumerate(leaf_members):
        assignments[members] = leaf
    return KMeansResult(centroids=centroids, assignments=assignments,
                        iterations=0)


def _hash_pair(key: bytes) -> tuple[int, int]:
    digest = hashlib.blake2b(key, digest_size=16).digest()
    return (int.from_bytes(digest[:8], "little"),
            int.from_bytes(digest[8:], "little"))


class ReferenceBloom(BloomFilter):
    """``BloomFilter`` with the one-key-at-a-time ``add`` it used to
    have (sizing and serialisation are shared: they did not change)."""

    def _reference_positions(self, key: bytes) -> np.ndarray:
        h1, h2 = _hash_pair(key)
        idx = (h1 + np.arange(self.num_hashes, dtype=np.uint64) * h2)
        return (idx % np.uint64(self.num_bits)).astype(np.int64)

    def add(self, key) -> None:
        if isinstance(key, str):
            key = key.encode()
        self._bits[self._reference_positions(key)] = True
        self._count += 1

    def reference_to_bytes(self) -> bytes:
        header = (self.capacity.to_bytes(8, "little")
                  + self.num_bits.to_bytes(8, "little")
                  + self.num_hashes.to_bytes(4, "little")
                  + self._count.to_bytes(8, "little"))
        return header + np.packbits(self._bits).tobytes()


def reference_sstable_bytes(entries: list[tuple[bytes, bytes]]) -> bytes:
    """``SSTable(entries).to_bytes()`` as it was: the strict-order check
    by index, one ``BloomFilter.add`` per key, one ``struct.pack`` per
    entry."""
    if any(entries[i][0] >= entries[i + 1][0]
           for i in range(len(entries) - 1)):
        raise ValueError("SSTable entries must be strictly sorted")
    keys = [k for k, _ in entries]
    values = [v for _, v in entries]
    bloom = ReferenceBloom(max(1, len(entries)))
    for key in keys:
        bloom.add(key)
    parts = [b"SSTB", struct.pack("<I", len(keys))]
    for key, value in zip(keys, values):
        parts.append(struct.pack("<II", len(key), len(value)))
        parts.append(key)
        parts.append(value)
    blob = bloom.reference_to_bytes()
    parts.append(struct.pack("<I", len(blob)))
    parts.append(blob)
    return b"".join(parts)


def reference_column_to_bytes(values) -> bytes:
    """One whole column, already concatenated, to its blob."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and arr.ndim == 2:
        head = json.dumps({"kind": "f32mat",
                           "shape": list(arr.shape)}).encode()
        body = np.ascontiguousarray(arr, dtype=np.float32).tobytes()
    else:
        head = json.dumps({"kind": "json"}).encode()
        body = json.dumps(arr.tolist()).encode()
    return b"BCOL" + struct.pack("<I", len(head)) + head + body


def reference_shard_of(pk, num_shards: int) -> int:
    digest = hashlib.blake2b(str(pk).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % num_shards


def reference_rows_by_shard(pks, num_shards: int):
    """(shard, rows) pairs; ``rows is None`` is the whole batch."""
    if num_shards == 1:
        return [(0, None)]
    by_shard: dict[int, list[int]] = {}
    for row, pk in enumerate(pks):
        by_shard.setdefault(reference_shard_of(pk, num_shards),
                            []).append(row)
    if len(by_shard) == 1:
        return [(next(iter(by_shard)), None)]
    return [(shard, by_shard[shard]) for shard in sorted(by_shard)]


class ReferenceSegmentBook:
    """``Segment.append`` / ``apply_delete`` bookkeeping as it was: a
    per-pk loop into the row map, the bitmap re-concatenated on every
    append."""

    def __init__(self) -> None:
        self.pks: list = []
        self.pk_rows: dict = {}
        self.deleted = np.zeros(0, dtype=bool)
        self.num_deleted = 0

    def append(self, pks) -> None:
        start = len(self.pks)
        for offset, pk in enumerate(pks):
            self.pk_rows[pk] = start + offset
        self.pks.extend(pks)
        self.deleted = np.concatenate(
            [self.deleted, np.zeros(len(pks), dtype=bool)])

    def apply_delete(self, pks) -> int:
        count = 0
        for pk in pks:
            row = self.pk_rows.get(pk)
            if row is not None and not self.deleted[row]:
                self.deleted[row] = True
                count += 1
        self.num_deleted += count
        return count

    def contains_pk(self, pk) -> bool:
        row = self.pk_rows.get(pk)
        return row is not None and not self.deleted[row]
