"""k-means clustering for inverted indexes and quantizers.

A deterministic Lloyd's k-means with k-means++ seeding, plus the
*hierarchical balanced* variant used by the SSD index (Section 4.4) to
produce clusters whose sizes stay below a cap (so each bucket fits in a
4 KB block).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.index.distances import squared_l2


@dataclass(frozen=True)
class KMeansResult:
    """Centroids plus each point's assignment."""

    centroids: np.ndarray  # (k, dim) float32
    assignments: np.ndarray  # (n,) int64
    iterations: int

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def _kmeans_pp_init(data: np.ndarray, norms: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling.

    One GEMV per step against the cached row norms.  The draw is what
    ``rng.choice(n, p=closest / total)`` does once its checks have
    passed — a float64 running sum normalised by its last entry, searched
    for one uniform double — so the generator is left where it was.
    """
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=np.float32)
    centroids[0] = data[int(rng.integers(n))]
    closest = squared_l2(data, centroids[0:1], q_norms=norms)[:, 0]
    dist = np.empty((n, 1), dtype=np.float32)
    probs = np.empty(n, dtype=np.float32)
    cdf = np.empty(n, dtype=np.float64)
    for i in range(1, k):
        total = float(closest.sum())
        if total <= 0:
            # All remaining points coincide with chosen centroids.
            pick = int(rng.integers(n))
        else:
            np.divide(closest, total, out=probs)
            np.cumsum(probs, dtype=np.float64, out=cdf)
            cdf /= cdf[-1]
            pick = int(cdf.searchsorted(rng.random(), side="right"))
        centroids[i] = data[pick]
        squared_l2(data, centroids[i:i + 1], q_norms=norms, out=dist)
        np.minimum(closest, dist[:, 0], out=closest)
    return centroids


def kmeans(data: np.ndarray, k: int, max_iters: int = 25,
           seed: int = 0, tol: float = 1e-4) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding.

    Deterministic for a fixed seed.  ``k`` is clamped to ``n``; empty
    clusters are reseeded with the points farthest from their centroids.

    The row norms are computed once, the distance block is one reused
    buffer, and a round recomputes only the centroids it *touched*: a
    cluster that gained or lost a row, or is empty.  Every other cluster
    has the members it had, so its mean is the one already held.
    """
    data = np.ascontiguousarray(data, dtype=np.float32)
    n = data.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty dataset")
    norms = np.einsum("ij,ij->i", data, data)
    if not np.isfinite(norms).all():
        raise ValueError(
            "cannot cluster rows that are not finite (NaN, inf, or a "
            "squared norm beyond float32)")
    k = max(1, min(k, n))
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(data, norms, k, rng)

    dists = np.empty((n, k), dtype=np.float32)
    assignments = None
    settled = False
    iteration = 0
    for iteration in range(1, max_iters + 1):
        squared_l2(data, centroids, q_norms=norms, out=dists)
        nearest = dists.argmin(axis=1)
        sizes = np.bincount(nearest, minlength=k)
        stale = sizes == 0
        if assignments is None:
            stale[:] = True
        else:
            changed = nearest != assignments
            stale[assignments[changed]] = True
            stale[nearest[changed]] = True
        assignments = nearest
        touched = np.flatnonzero(stale)
        settled = len(touched) == 0
        moved = 0.0
        if not settled:
            # The touched clusters' rows, grouped by cluster and in their
            # original order within each: what one mask per cluster gives.
            rows = np.flatnonzero(stale[nearest])
            rows = rows[np.argsort(nearest[rows], kind="stable")]
            members = data[rows]
            fresh = np.empty((len(touched), data.shape[1]),
                             dtype=np.float32)
            end = 0
            for slot, size in enumerate(sizes[touched].tolist()):
                if size == 0:
                    # Reseed from the globally worst-served point.
                    fresh[slot] = data[int(dists.min(axis=1).argmax())]
                else:
                    start, end = end, end + size
                    fresh[slot] = members[start:end].mean(axis=0)
            moved = float(np.abs(fresh - centroids[touched]).max())
            centroids[touched] = fresh
        if moved < tol:
            break
    if not settled:
        # The centroids moved after the labels were taken.
        assignments = squared_l2(
            data, centroids, q_norms=norms, out=dists).argmin(axis=1)
    return KMeansResult(centroids=centroids, assignments=assignments,
                        iterations=iteration)


def hierarchical_balanced_kmeans(data: np.ndarray, max_cluster_size: int,
                                 branch: int = 8, seed: int = 0,
                                 max_depth: int = 12) -> KMeansResult:
    """Recursively split clusters until every cluster fits the size cap.

    This is the SSD index's bucketing step: "conducting hierarchical k-means
    for the vectors and controlling the sizes of the clusters" so every
    bucket fits a 4 KB block.  Returns flat centroids/assignments over the
    final leaves.
    """
    data = np.ascontiguousarray(data, dtype=np.float32)
    if max_cluster_size <= 0:
        raise ValueError("max_cluster_size must be positive")

    leaf_centroids: list[np.ndarray] = []
    leaf_members: list[np.ndarray] = []

    def split(indices: np.ndarray, depth: int) -> None:
        subset = data[indices]
        if len(indices) <= max_cluster_size or depth >= max_depth:
            leaf_centroids.append(subset.mean(axis=0))
            leaf_members.append(indices)
            return
        k = min(branch, max(2, int(np.ceil(len(indices) / max_cluster_size))))
        result = kmeans(subset, k, seed=seed + depth)
        # One stable sort groups the members by cluster, each group in
        # its original order; empty clusters drop out.
        order = np.argsort(result.assignments, kind="stable")
        sizes = np.bincount(result.assignments, minlength=result.k)
        parts = [part for part
                 in np.split(indices[order], np.cumsum(sizes)[:-1])
                 if len(part)]
        if len(parts) == 1:
            # Degenerate data (all points identical): chunk arbitrarily.
            for start in range(0, len(indices), max_cluster_size):
                chunk = indices[start:start + max_cluster_size]
                leaf_centroids.append(data[chunk].mean(axis=0))
                leaf_members.append(chunk)
            return
        for part in parts:
            split(part, depth + 1)

    split(np.arange(len(data), dtype=np.int64), 0)

    centroids = np.stack(leaf_centroids).astype(np.float32)
    assignments = np.empty(len(data), dtype=np.int64)
    for leaf, members in enumerate(leaf_members):
        assignments[members] = leaf
    return KMeansResult(centroids=centroids, assignments=assignments,
                        iterations=0)
