"""Optimized product quantization (OPQ).

OPQ (Ge et al., CVPR'13) learns an orthogonal rotation ``R`` that
redistributes variance across PQ subspaces before quantization, reducing
reconstruction error versus plain PQ.  Training alternates between fitting
PQ codebooks on the rotated data and solving the orthogonal Procrustes
problem ``min_R ||R X - decode(encode(R X))||`` via SVD.

:class:`OpqRotation` is the ``opq`` codec: the rotation is orthogonal, so
distances in rotated space equal distances in the original space — a query
block is rotated once and scored by the PQ codec's ADC tables.
"""

from __future__ import annotations

import numpy as np

from repro.core.schema import MetricType
from repro.errors import IndexBuildError
from repro.index.base import register_index
from repro.index.ivf import ExhaustiveIndex, Scorer
from repro.index.pq import ProductQuantizer, effective_metric


class OpqRotation:
    """The learned orthogonal rotation plus its PQ codec."""

    quantized = True
    scores_cross_term = False

    def __init__(self, dim: int, m: int = 8, nbits: int = 8,
                 train_iters: int = 5, seed: int = 0) -> None:
        self.dim = dim
        self.train_iters = train_iters
        self.pq = ProductQuantizer(dim, m=m, nbits=nbits, seed=seed)
        self.rotation: np.ndarray | None = None
        self.is_trained = False

    def train(self, data: np.ndarray) -> None:
        """Alternate PQ fitting and Procrustes rotation updates."""
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.shape[1] != self.dim:
            raise IndexBuildError(
                f"OPQ: expected dim {self.dim}, got {data.shape[1]}")
        rotation = np.eye(self.dim, dtype=np.float32)
        for _ in range(max(1, self.train_iters)):
            rotated = data @ rotation.T
            self.pq.train(rotated)
            approx = self.pq.decode(self.pq.encode(rotated))
            # Procrustes: R = U V^T from SVD of X^T X_hat.
            u, _s, vt = np.linalg.svd(data.T @ approx)
            rotation = (u @ vt).T.astype(np.float32)
        self.rotation = rotation
        rotated = data @ rotation.T
        self.pq.train(rotated)
        self.is_trained = True

    def rotate(self, data: np.ndarray) -> np.ndarray:
        if not self.is_trained:
            raise IndexBuildError("OPQ rotation not trained")
        return np.asarray(data, dtype=np.float32) @ self.rotation.T

    def encode(self, data: np.ndarray) -> np.ndarray:
        return self.pq.encode(self.rotate(data))

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct in the *original* (unrotated) space."""
        return self.pq.decode(codes) @ self.rotation

    def prepare(self, queries: np.ndarray, pair_query: np.ndarray,
                pair_list: np.ndarray, metric: MetricType) -> Scorer:
        return self.pq.prepare(self.rotate(queries), pair_query, pair_list,
                               metric)

    def reconstruction_error(self, data: np.ndarray) -> float:
        approx = self.decode(self.encode(data))
        return float(np.mean((np.asarray(data, dtype=np.float32)
                              - approx) ** 2))


@register_index("OPQ")
class OpqIndex(ExhaustiveIndex):
    """ADC scan over OPQ codes (rotation applied to queries too)."""

    def __init__(self, metric: MetricType, dim: int, m: int = 8,
                 nbits: int = 8, train_iters: int = 5, seed: int = 0) -> None:
        self.opq = OpqRotation(dim, m=m, nbits=nbits,
                               train_iters=train_iters, seed=seed)
        super().__init__(metric, dim, self.opq, effective_metric(metric))
