"""Residual quantization (RQ).

RQ quantizes a vector as a *sum* of codewords from a sequence of codebooks:
stage ``i`` quantizes the residual left by stages ``0..i-1``.  Each extra
stage reduces reconstruction error, giving a smooth memory/accuracy knob.
Search here decodes candidates (the codebooks are small) and scores exactly,
keeping the quantized-comparison accounting of the cost model —
:class:`ResidualQuantizer` is the ``rq`` codec of the bucketed index
(:mod:`repro.index.ivf`): decode a probed list's codes, then one GEMM.
"""

from __future__ import annotations

import numpy as np

from repro.core.schema import MetricType
from repro.errors import IndexBuildError
from repro.index.base import positive_int, register_index
from repro.index.distances import squared_l2
from repro.index.ivf import ExhaustiveIndex, GemmCodec
from repro.index.kmeans import kmeans


class ResidualQuantizer(GemmCodec):
    """Multi-stage additive quantizer."""

    def __init__(self, dim: int, stages: int = 4, nbits: int = 8,
                 seed: int = 0) -> None:
        if not 1 <= nbits <= 8:
            raise IndexBuildError(f"nbits must be in [1, 8], got {nbits}")
        self.dim = dim
        self.stages = positive_int("stages", stages)
        self.ksub = 1 << nbits
        self.seed = seed
        self._codebooks: list[np.ndarray] = []  # stages x (ksub, dim)
        self.is_trained = False

    def train(self, data: np.ndarray) -> None:
        """Greedy stage-by-stage codebook training on residuals."""
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.shape[1] != self.dim:
            raise IndexBuildError(
                f"RQ: expected dim {self.dim}, got {data.shape[1]}")
        residual = data.copy()
        self._codebooks = []
        for stage in range(self.stages):
            k = min(self.ksub, residual.shape[0])
            result = kmeans(residual, k, seed=self.seed + stage)
            book = np.zeros((self.ksub, self.dim), dtype=np.float32)
            book[:result.k] = result.centroids
            self._codebooks.append(book)
            residual = residual - result.centroids[result.assignments]
        self.is_trained = True

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Quantize to ``(n, stages)`` uint8 codes."""
        self._require_trained()
        residual = np.ascontiguousarray(data, dtype=np.float32).copy()
        n = residual.shape[0]
        codes = np.empty((n, self.stages), dtype=np.uint8)
        for stage, book in enumerate(self._codebooks):
            dists = squared_l2(residual, book)
            chosen = dists.argmin(axis=1)
            codes[:, stage] = chosen.astype(np.uint8)
            residual -= book[chosen]
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Sum the per-stage codewords back into approximate vectors."""
        self._require_trained()
        codes = np.asarray(codes, dtype=np.int64)
        out = np.zeros((codes.shape[0], self.dim), dtype=np.float32)
        for stage, book in enumerate(self._codebooks):
            out += book[codes[:, stage]]
        return out

    def _require_trained(self) -> None:
        if not self.is_trained:
            raise IndexBuildError("residual quantizer not trained")

    def reconstruction_error(self, data: np.ndarray) -> float:
        approx = self.decode(self.encode(data))
        return float(np.mean((np.asarray(data, dtype=np.float32)
                              - approx) ** 2))

    def stage_errors(self, data: np.ndarray) -> list[float]:
        """MSE after each stage — must be non-increasing (tested invariant)."""
        data = np.ascontiguousarray(data, dtype=np.float32)
        codes = self.encode(data)
        errors: list[float] = []
        partial = np.zeros_like(data)
        for stage, book in enumerate(self._codebooks):
            partial = partial + book[codes[:, stage].astype(np.int64)]
            errors.append(float(np.mean((data - partial) ** 2)))
        return errors


@register_index("RQ")
class RqIndex(ExhaustiveIndex):
    """Brute-force scan over RQ-reconstructed vectors."""

    def __init__(self, metric: MetricType, dim: int, stages: int = 4,
                 nbits: int = 8, seed: int = 0) -> None:
        self.rq = ResidualQuantizer(dim, stages=stages, nbits=nbits,
                                    seed=seed)
        super().__init__(metric, dim, self.rq, metric)
