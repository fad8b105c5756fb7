"""Batched distance kernels.

Internal convention: every index works with *adjusted distances*, where
smaller always means more similar —

* Euclidean: squared L2 distance (monotone in true L2, cheaper);
* inner product: negated dot product;
* cosine: negated cosine similarity.

:func:`to_user_score` converts adjusted distances back to the value users
expect for the metric (true L2 distance, raw inner product, or cosine
similarity).
"""

from __future__ import annotations

import numpy as np

from repro.core.schema import MetricType


def _as_2d(x: np.ndarray) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float32)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D array, got shape {arr.shape}")
    return arr


def squared_l2(queries: np.ndarray, data: np.ndarray, *,
               q_norms: np.ndarray | None = None,
               d_norms: np.ndarray | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (nq, nd).

    Uses the ``|q|^2 - 2 q.d + |d|^2`` expansion so the whole computation is
    one GEMM — the same trick SIMD-optimized engines rely on — and forms
    it in place in the GEMM's output.  A caller that scores the same
    queries many times passes their squared norms as ``q_norms`` and a
    float32 ``(nq, nd)`` block to reuse as ``out``, one that keeps the
    rows' squared norms passes them as ``d_norms`` (each row's
    ``einsum("ij,ij->i")``, which does not depend on the rows around
    it); the values are the same to the last bit either way.
    """
    queries = _as_2d(queries)
    data = _as_2d(data)
    if q_norms is None:
        q_norms = np.einsum("ij,ij->i", queries, queries)
    if d_norms is None:
        d_norms = np.einsum("ij,ij->i", data, data)
    out = np.matmul(queries, data.T, out=out)
    out *= 2.0
    np.subtract(q_norms[:, None], out, out=out)
    out += d_norms[None, :]
    np.maximum(out, 0.0, out=out)
    return out


def inner_product(queries: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Pairwise dot products, shape (nq, nd)."""
    return _as_2d(queries) @ _as_2d(data).T


def cosine(queries: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity, shape (nq, nd); zero vectors score 0."""
    queries = _as_2d(queries)
    data = _as_2d(data)
    return (queries / nonzero_norms(queries)) @ (data / nonzero_norms(data)).T


def nonzero_norms(rows: np.ndarray) -> np.ndarray:
    """Row norms as a column, zero rows mapped to 1 (so they score 0)."""
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return norms


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Unit-length copies of the rows of a 2-D block, zero rows untouched."""
    return rows / nonzero_norms(rows)


def adjusted_distances(queries: np.ndarray, data: np.ndarray,
                       metric: MetricType) -> np.ndarray:
    """Pairwise adjusted distances (smaller = more similar)."""
    if metric is MetricType.EUCLIDEAN:
        return squared_l2(queries, data)
    if metric is MetricType.INNER_PRODUCT:
        return -inner_product(queries, data)
    if metric is MetricType.COSINE:
        return -cosine(queries, data)
    raise ValueError(f"unknown metric {metric}")


def block_distances(q: np.ndarray, block: np.ndarray,
                    metric: MetricType) -> np.ndarray:
    """Adjusted distances of one query ``(dim,)`` against a small block of
    rows ``(m, dim)``, shape ``(m,)``.

    The graph kernel: a beam scores a few dozen rows per hop, where the
    difference form is cheaper than :func:`squared_l2`'s GEMM expansion.
    """
    if metric is MetricType.EUCLIDEAN:
        diff = block - q
        return np.einsum("ij,ij->i", diff, diff)
    if metric is MetricType.INNER_PRODUCT:
        return -(block @ q)
    # cosine
    qn = q / (np.linalg.norm(q) or 1.0)
    norms = np.linalg.norm(block, axis=1)
    norms[norms == 0] = 1.0
    return -((block @ qn) / norms)


def to_user_score(adjusted: np.ndarray, metric: MetricType) -> np.ndarray:
    """Convert adjusted distances back to user-facing scores."""
    adjusted = np.asarray(adjusted, dtype=np.float64)
    if metric is MetricType.EUCLIDEAN:
        return np.sqrt(np.maximum(adjusted, 0.0))
    return -adjusted


def topk_smallest(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of the ``k`` smallest entries, sorted ascending.

    Uses ``argpartition`` for the selection then sorts only the winners —
    O(n + k log k) instead of a full sort.
    """
    values = np.asarray(values)
    n = values.shape[-1]
    k = min(k, n)
    lead = values.shape[:-1]
    if k <= 0:
        return (np.empty(lead + (0,), dtype=np.int64),
                np.empty(lead + (0,), dtype=values.dtype))
    rows = values.reshape(-1, n)
    if rows.shape[0] == 1:
        # One row (a 1-D input or a single-query block): plain gathers.
        row = rows[0]
        part = np.argpartition(row, k - 1)[:k]
        part_vals = row[part]
        order = np.argsort(part_vals, kind="stable")
        return (part[order].reshape(lead + (k,)),
                part_vals[order].reshape(lead + (k,)))
    # Row-wise gathers through flat indices: ``take_along_axis`` builds
    # its index grids in Python, which costs more than the selection
    # itself on the small blocks the per-segment scans produce.
    part = np.argpartition(rows, k - 1, axis=-1)[:, :k]
    nrows = part.shape[0]
    part_vals = rows.reshape(-1)[
        part + np.arange(0, nrows * n, n)[:, None]]
    order = np.argsort(part_vals, axis=-1, kind="stable")
    order += np.arange(0, nrows * k, k)[:, None]
    idx = part.reshape(-1)[order]
    return (idx.reshape(lead + (k,)),
            part_vals.reshape(-1)[order].reshape(lead + (k,)))


def repeated(keys: np.ndarray) -> np.ndarray | None:
    """Which entries of each row of ``keys`` repeat a key found earlier in
    the row, or None when none does.

    One stable sort per row puts equal keys side by side, earliest first:
    an entry repeats a key exactly when it follows an equal one.
    """
    nrows, width = keys.shape
    if width < 2:
        return None
    by_key = np.argsort(keys, axis=1, kind="stable")
    if nrows > 1:       # to flat indices
        by_key += np.arange(0, nrows * width, width)[:, None]
    ranked = keys.reshape(-1)[by_key]
    follows = ranked[:, 1:] == ranked[:, :-1]
    if not follows.any():
        return None
    again = np.zeros(keys.shape, dtype=bool)
    again.reshape(-1)[by_key[:, 1:]] = follows
    return again


def first_k_distinct(ids: np.ndarray, dists: np.ndarray, k: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The first ``k`` distinct ids of each row, with their distances.

    Each row of ``ids`` / ``dists`` is a candidate list sorted by distance
    in which an id may appear more than once (a vector stored in several
    lists, a hit found by two tiers); an id keeps its first — best —
    entry and later ones are dropped, for the whole block at once.  ``-1``
    ids are padding.  Rows come back ``min(k, width)`` wide, tail-padded
    with ``-1`` / ``+inf``.
    """
    row = np.arange(ids.shape[0])[:, None]
    drop = ids < 0
    again = repeated(ids)
    if again is not None:
        drop |= again
    # Survivors to the front, order kept.
    front = np.argsort(drop, axis=1, kind="stable")[:, :max(k, 0)]
    dropped = drop[row, front]
    return (np.where(dropped, -1, ids[row, front]),
            np.where(dropped, np.inf, dists[row, front]))
