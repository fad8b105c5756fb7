"""Vector and attribute indexes (Table 1).

From-scratch numpy implementations of every index family the paper lists:

* vector quantization: PQ, OPQ, RQ, SQ (:mod:`pq`, :mod:`opq`, :mod:`rq`,
  :mod:`sq`) — each quantizer is also a *codec* of the bucketed index;
* inverted indexes: IVF-Flat, IVF-PQ, IVF-SQ, IVF-HNSW, IMI, the SSD index
  (hierarchical k-means into 4 KB buckets with multi-assignment, Section
  4.4) and the §7 COMPOSITE grid — all one structure, a *bucketer* x a
  *codec* over one list-sorted storage and one list-major scan
  (:mod:`ivf`), of which :mod:`sq`, :mod:`pq`, :mod:`ivf_hnsw`,
  :mod:`imi`, :mod:`ssd` and :mod:`composite` hold thin registrations;
* proximity graphs: HNSW, NSG, NGT-like (:mod:`hnsw`, :mod:`nsg`,
  :mod:`ngt`);
* the hot/cold tiered index over the SSD index (:mod:`tiered`);
* numerical-attribute indexes: sorted list and B-tree (:mod:`attr`).

All vector indexes implement the :class:`repro.index.base.VectorIndex`
interface and register themselves with :func:`repro.index.base.create_index`
so worker nodes construct them by name from index params.
"""

from repro.index.base import VectorIndex, create_index, available_indexes
from repro.index.distances import adjusted_distances, to_user_score
from repro.index.flat import FlatIndex
from repro.index.ivf import IvfFlatIndex
from repro.index.pq import ProductQuantizer, IvfPqIndex
from repro.index.opq import OpqIndex
from repro.index.rq import ResidualQuantizer
from repro.index.sq import ScalarQuantizer, IvfSqIndex
from repro.index.imi import ImiIndex
from repro.index.hnsw import HnswIndex
from repro.index.nsg import NsgIndex
from repro.index.ngt import NgtIndex
from repro.index.ivf_hnsw import IvfHnswIndex
from repro.index.ssd import SsdIndex
from repro.index.composite import CompositeIndex
from repro.index.tiered import TieredIndex
from repro.index.attr import SortedListIndex, BTreeIndex, LabelIndex

__all__ = [
    "VectorIndex",
    "create_index",
    "available_indexes",
    "adjusted_distances",
    "to_user_score",
    "FlatIndex",
    "IvfFlatIndex",
    "ProductQuantizer",
    "IvfPqIndex",
    "OpqIndex",
    "ResidualQuantizer",
    "ScalarQuantizer",
    "IvfSqIndex",
    "ImiIndex",
    "HnswIndex",
    "NsgIndex",
    "NgtIndex",
    "IvfHnswIndex",
    "SsdIndex",
    "CompositeIndex",
    "TieredIndex",
    "SortedListIndex",
    "BTreeIndex",
    "LabelIndex",
]
