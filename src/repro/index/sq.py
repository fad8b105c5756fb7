"""Scalar quantization (SQ) and IVF-SQ.

SQ "maps each dimension of vector (data types typically int32 and float) to
a single byte": per-dimension min/max are learned at train time and values
are linearly quantized to uint8, a 4x memory reduction.  Search decodes
candidates back to float32 on the fly (the paper's SSD index uses exactly
this compression to cut bytes fetched per bucket).

:class:`ScalarQuantizer` is the ``sq`` codec of the bucketed index
(:mod:`repro.index.ivf`): a probed list's codes are dequantised as one tile
and scored with the GEMM the raw rows would be.  ``IVF_SQ8`` is
kmeans x sq.
"""

from __future__ import annotations

import numpy as np

from repro.core.schema import MetricType
from repro.errors import IndexBuildError
from repro.index.base import register_index
from repro.index.ivf import BucketedIndex, ExhaustiveIndex, GemmCodec, \
    KMeansBucketer


class ScalarQuantizer(GemmCodec):
    """Per-dimension uint8 linear quantizer."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._lo: np.ndarray | None = None
        self._scale: np.ndarray | None = None
        self.is_trained = False

    def train(self, data: np.ndarray) -> None:
        """Learn per-dimension ranges from training data."""
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 2 or data.shape[1] != self.dim:
            raise IndexBuildError(
                f"SQ: expected (n, {self.dim}), got {data.shape}")
        lo = data.min(axis=0)
        hi = data.max(axis=0)
        span = hi - lo
        span[span == 0] = 1.0
        self._lo = lo
        self._scale = span / 255.0
        self.is_trained = True

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Quantize to uint8 codes, clipping values outside the ranges."""
        self._require_trained()
        data = np.asarray(data, dtype=np.float32)
        steps = np.rint((data - self._lo) / self._scale)
        return np.clip(steps, 0, 255).astype(np.uint8)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Dequantize codes back to approximate float32 vectors."""
        self._require_trained()
        return (codes.astype(np.float32) * self._scale + self._lo)

    def _require_trained(self) -> None:
        if not self.is_trained:
            raise IndexBuildError("scalar quantizer not trained")

    def max_error(self) -> np.ndarray:
        """Worst-case absolute quantization error per dimension."""
        self._require_trained()
        return self._scale / 2.0


@register_index("SQ8")
class SqIndex(ExhaustiveIndex):
    """Brute-force scan over SQ-compressed vectors."""

    def __init__(self, metric: MetricType, dim: int) -> None:
        self.sq = ScalarQuantizer(dim)
        super().__init__(metric, dim, self.sq, metric)


@register_index("IVF_SQ8")
class IvfSqIndex(BucketedIndex):
    """Inverted file whose lists hold SQ-compressed vectors: kmeans x sq."""

    def __init__(self, metric: MetricType, dim: int, nlist: int = 128,
                 nprobe: int = 8, seed: int = 0) -> None:
        self.sq = ScalarQuantizer(dim)
        super().__init__(metric, dim, KMeansBucketer(metric, nlist, seed),
                         self.sq, nprobe)
        self.nlist = nlist
