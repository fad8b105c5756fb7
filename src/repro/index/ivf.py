"""The bucketed index: one structure behind every list-based index type.

Section 7 of the paper distils vector search into "compression ...,
indexing ..., and bucketing"; for the inverted-list rows of Table 1 that
decomposition is the only structure there is:

* a **bucketer** groups the build rows into lists and maps a query block
  to the lists each query probes (:class:`KMeansBucketer`: flat centroid
  scan; :class:`GraphBucketer`: centroids navigated with an HNSW graph;
  :class:`~repro.index.imi.ImiBucketer` and
  :class:`~repro.index.ssd.BalancedBucketer` live with the types they
  were made for);
* a **codec** decides what a stored row is and how a group of queries is
  scored against one list of them (:class:`FlatCodec`: raw float32; the
  quantizers of :mod:`~repro.index.sq`, :mod:`~repro.index.pq`,
  :mod:`~repro.index.rq`, :mod:`~repro.index.opq` are the others);
* :class:`InvertedLists` stores the codes sorted by list and scans them
  list-major for the whole query block, whatever the codec;
* :class:`BucketedIndex` composes the three, and ``IVF_FLAT``,
  ``IVF_SQ8``, ``IVF_PQ``, ``IVF_HNSW``, ``IMI``, ``SSD`` and
  ``COMPOSITE`` are registrations of it.

``nprobe`` trades recall for speed ("inverted indexes group vectors into
clusters, and only scan the most promising clusters for a query") and is
the knob swept in the Figure 8 reproduction.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from repro.core.schema import MetricType
from repro.errors import IndexBuildError
from repro.index.base import FLOAT_COMPARISONS, STAT_FIELDS, \
    SearchStats, VectorIndex, positive_int, register_index
from repro.index.distances import adjusted_distances, nonzero_norms, \
    normalize_rows, topk_smallest
from repro.index.hnsw import HnswIndex
from repro.index.kmeans import kmeans


#: Cap on one pass's scratch score block, in float32 entries (1 MB): a
#: block that outgrows the cache is scored slower than the same rows in
#: cache-sized passes (EXPERIMENTS.md), so a scan is cut into passes of
#: whole members, and only a member too large on its own by query rows.
_SCAN_BLOCK_FLOATS = 1 << 18

#: Padded score blocks larger than this many float32 entries are laid out
#: in chunks of ``_CHUNK_WIDTH`` scores (``_ChunkGrid``), which hand the
#: top-k far fewer padding floats; below it the padded block's fewer
#: numpy calls win (``BENCH_arena_kernel.json`` holds the sweep).
_CHUNK_FROM = 1 << 16
_CHUNK_WIDTH = 64

#: ``score(begin, end, codes, out)``: the scores of pairs ``begin:end`` of
#: a prepared block (one list's group of queries) against that list's
#: ``codes``, written into ``out`` of shape ``(end - begin, len(codes))``,
#: a view whose rows may lie any whole number of floats apart.
Scorer = Callable[[int, int, np.ndarray, np.ndarray], None]


class Codec(Protocol):
    """What a stored row is, and how queries are scored against a list.

    The scan asks a codec for exactly two things: :meth:`prepare` the
    query block once, and (through the function that returns) score a
    group of its queries against one list's slice of codes.
    """

    quantized: bool   # a scored row counts as a quantized comparison
    #: Euclidean scores are ``-2 q.row`` and the scan completes them with
    #: ``|q|^2 + |row|^2``; otherwise scores are the distances already.
    scores_cross_term: bool

    def train(self, data: np.ndarray) -> None:
        """Learn from the rows about to be stored."""
        ...

    def encode(self, data: np.ndarray) -> np.ndarray:
        """``(n, dim)`` float32 rows to row-aligned codes."""
        ...

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Codes back to (approximate) float32 rows."""
        ...

    def prepare(self, queries: np.ndarray, pair_query: np.ndarray,
                pair_list: np.ndarray, metric: MetricType) -> Scorer:
        """Whatever can be computed once for the query block.

        Pair ``p`` is query ``pair_query[p]`` probing list
        ``pair_list[p]``; pairs arrive grouped by list.  A scan of several
        indexes at once holds flat members only (``ArenaIndex.admits``),
        whose scores do not read ``pair_list``.
        """
        ...


class Bucketer(Protocol):
    """Groups rows into lists; maps a query block to the lists it probes."""

    metric: MetricType   # the metric the lists are scanned in
    num_buckets: int

    def fit(self, data: np.ndarray) -> np.ndarray:
        """The list of every row: ``(n,)`` list numbers, or
        ``(replicas, n)`` when each row is stored in several."""
        ...

    def probe(self, queries: np.ndarray, nprobe: int,
              stats: SearchStats) -> np.ndarray:
        """``(nq, <= nprobe)`` list numbers, most promising first, ``-1``
        where a query has fewer; its own work is added to ``stats``."""
        ...


# ---------------------------------------------------------------------------
# codecs scored with one GEMM per list
# ---------------------------------------------------------------------------

def _left_factor(queries: np.ndarray, metric: MetricType) -> np.ndarray:
    """``-2 q`` / ``-q`` / ``-q / |q|``: the GEMM's left-hand side.

    Negating (or doubling) the left factor negates (doubles) every
    product and partial sum exactly, so the GEMMs yield ``-q.v`` /
    ``-2 q.v`` with the bits of the exact scan's.
    """
    if metric is MetricType.EUCLIDEAN:
        return -2.0 * queries
    if metric is MetricType.COSINE:
        return queries / -nonzero_norms(queries)
    return -queries


def _products(queries: np.ndarray, pair_query: np.ndarray,
              metric: MetricType) -> Scorer:
    """The scorer of float rows: ``left[begin:end] @ rows.T`` into
    ``out``, one GEMM per list.

    A list that one query probes is scored by a 1-D GEMV written straight
    into its row: the BLAS call numpy makes for that one-row GEMM, without
    the gufunc's dispatch, and so its bits
    (``test_one_query_gemv_rounds_as_the_gemm_row``).
    """
    left = _left_factor(queries, metric)[pair_query]

    def score(begin: int, end: int, rows: np.ndarray,
              out: np.ndarray) -> None:
        if end - begin == 1:
            rows.dot(left[begin], out=out[0])
        else:
            np.matmul(left[begin:end], rows.T, out=out)

    return score


class GemmCodec:
    """Codes that decode to float rows, scored by one GEMM per list.

    The mix-in behind the scalar and residual quantizers: a list's codes
    are decoded (and unit-normalised under cosine) when the list is
    scanned.  Distances are formed in the order
    :func:`~repro.index.distances.adjusted_distances` forms them.
    """

    quantized = True
    scores_cross_term = True

    def prepare(self, queries: np.ndarray, pair_query: np.ndarray,
                pair_list: np.ndarray, metric: MetricType) -> Scorer:
        products = _products(queries, pair_query, metric)
        unit = metric is MetricType.COSINE

        def score(begin: int, end: int, codes: np.ndarray,
                  out: np.ndarray) -> None:
            rows = self.decode(codes)
            if unit:
                rows /= nonzero_norms(rows)
            products(begin, end, rows, out)

        return score


class FlatCodec(GemmCodec):
    """Raw float32 rows (the ``none`` compressor): the codes are the rows.

    What does not depend on the query is done when the rows are stored:
    cosine keeps unit-normalised rows, so a list scan multiplies against
    its slice in place and returns what the exact scan returns for the
    same rows, bit for bit.
    """

    quantized = False

    def __init__(self, metric: MetricType) -> None:
        self.metric = metric

    def train(self, data: np.ndarray) -> None:
        pass

    def encode(self, data: np.ndarray) -> np.ndarray:
        if self.metric is MetricType.COSINE:
            return normalize_rows(data)
        return data

    def decode(self, codes: np.ndarray) -> np.ndarray:
        return codes

    def prepare(self, queries: np.ndarray, pair_query: np.ndarray,
                pair_list: np.ndarray, metric: MetricType) -> Scorer:
        return _products(queries, pair_query, metric)


# ---------------------------------------------------------------------------
# storage and the list-major scan
# ---------------------------------------------------------------------------

class ListArena:
    """Inverted lists of one codec laid end to end, scanned list-major as
    one: every bucketed index's scan of its own lists, and one scan of a
    node's flat members together.

    An :class:`InvertedLists` is the arena of one member: its own lists.
    An arena of several numbers the members' lists and stored rows
    consecutively, member after member: ``offsets`` / ``sizes`` /
    ``norms`` / ``ids`` are the members' own, concatenated (every member
    keeps its trailing empty list), and the code matrices stay where they
    are: a list's codes are a view of its member's, taken once.  Its
    members are flat, of one metric (``ArenaIndex.admits``), so they keep
    ``|row|^2`` all or none and store each build row once.

    ``base`` is an arena of the first members that this one extends (by
    default the first member, the arena of itself): the list views derived
    of them are taken over, and only the arrays laid end to end are laid
    again.
    """

    def __init__(self, members: Sequence[InvertedLists],
                 base: ListArena | None = None) -> None:
        base = base if base is not None else members[0]
        kept = len(base.widest)
        new = members[kept:]
        rows = [len(member.ids) for member in new]
        #: The members' codec, and the metric their lists are scanned in.
        self.codec, self.metric = base.codec, base.metric
        #: First arena row / first arena list number of every member.
        self.row_base = base.row_base[:-1] + list(itertools.accumulate(
            rows, initial=base.row_base[-1]))
        self.list_base = base.list_base[:-1] + list(itertools.accumulate(
            (len(member.sizes) for member in new),
            initial=base.list_base[-1]))
        self.widest = base.widest + [member.max_list_size for member in new]
        starts = self.row_base[kept:-1]
        #: Arena row -> row of the members' build matrices laid end to end.
        self.ids = np.concatenate(
            [base.ids] + [member.ids + at for member, at in zip(new, starts)])
        # A member's ``nlist + 1`` offsets end at its row count: shifted to
        # where its rows start, the last one is where its trailing empty
        # list sits.
        self.offsets = np.concatenate(
            [base.offsets]
            + [member.offsets + at for member, at in zip(new, starts)])
        self.sizes = np.concatenate(
            [base.sizes] + [member.sizes for member in new])
        #: Every arena list's codes, a view of its member's matrix taken
        #: once (``InvertedLists._derive``): the scan slices no code matrix
        #: per list.
        self.views = base.views + [view for member in new
                                   for view in member.views]
        #: Every arena list's ``|row|^2``, a view of its member's, as
        #: ``views`` are; None where the members keep none.  One query's
        #: row gathers them with one ``concatenate``.
        self.norms = self.norm_views = None
        if base.norms is not None:
            # Zero-padded by one list's length (``_scan_pass``).
            self.norms = np.concatenate(
                [base.norms[:base.row_base[-1]]]
                + [member.norms[:n] for member, n in zip(new, rows)]
                + [np.zeros(max(self.widest), dtype=np.float32)])
            self.norm_views = base.norm_views + [
                view for member in new for view in member.norm_views]

    def scan(self, scope: Sequence[int], queries: np.ndarray,
             probes: np.ndarray, k: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Top-``k`` of every (member, query) row over the lists it probes.

        ``scope`` names the members scanned, ascending, and ``probes`` is
        ``(len(scope), nq, width)`` arena list numbers; a slot that probes
        nothing names its member's trailing empty list (which ``-1`` is,
        for the last member).  Rows are laid out member-major.  Returns
        ``(ids, adjusted distances, rows scored per member)``, the first
        two ``(len(scope) * nq, k)``, tail-padded by ``-1`` / ``+inf``;
        an id is a row of the members' build matrices laid end to end.

        Passes are cut at whole members: a list's GEMM then multiplies
        the rows of every query that probes it whatever else is in the
        scan, so a member's distances do not depend on its company.  Only
        a member too large on its own is cut by query rows.
        """
        n, nq, width = probes.shape
        # Scratch floats one query row of each member can need.
        per_row = [max(1, width * self.widest[member]) for member in scope]
        passes = []
        compared = np.zeros(n, dtype=np.int64)
        first = 0
        while first < n:
            last, row = first + 1, per_row[first]
            while last < n and (last + 1 - first) * nq * max(
                    row, per_row[last]) <= _SCAN_BLOCK_FLOATS:
                row = max(row, per_row[last])
                last += 1
            step = max(nq, 1)
            if nq * row > _SCAN_BLOCK_FLOATS:   # one member, too large
                step = max(1, _SCAN_BLOCK_FLOATS // row)
            for lo in range(0, max(nq, 1), step):
                at, dists, scored = self._scan_pass(
                    scope[first:last], queries[lo:lo + step],
                    probes[first:last, lo:lo + step], k)
                passes.append((at, dists))
                compared[first:last] += scored
            first = last
        at, dists = passes[0] if len(passes) == 1 \
            else map(np.concatenate, zip(*passes))
        return np.where(at < 0, -1, self.ids[at]), dists, compared

    def _scan_pass(self, scope: Sequence[int], queries: np.ndarray,
                   probes: np.ndarray, k: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scan one block of (member, query) rows list-major; same
        returns as ``scan``.

        Pair ``p`` belongs to row ``p // width`` (rows are member-major,
        ``nq`` to a member); the pairs are scored list by list — hence
        member by member — with one ``prepare`` of the codec, each list's
        group of pairs into a rectangular slice of a score block with a
        row per pair, as wide as the widest list probed and +inf past its
        list.  Where a pass that large holds fewer floats in chunks, the
        block is the chunk grid's (``_ChunkGrid``) instead."""
        n, nq, width = probes.shape
        pairs = probes.reshape(-1)
        order = np.argsort(pairs, kind="stable")
        grouped = pairs[order]
        lows = self.offsets[grouped]
        sizes = self.sizes[grouped]
        widest = int(sizes.max(initial=0))
        if k <= 0 or widest == 0:
            return (np.full((n * nq, k), -1, dtype=np.int64),
                    np.full((n * nq, k), np.inf, dtype=np.float32),
                    np.zeros(n, dtype=np.int64))
        # Row -> query: rows are member-major, ``nq`` to a member.
        pair_query = order // width
        if n > 1:
            pair_query %= nq
        score = self.codec.prepare(queries, pair_query,
                                   grouped - self.list_base[scope[0]],
                                   self.metric)
        # A list's group of pairs: its first pair, the pair past its last,
        # its codes and its size.
        cuts = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
        bounds = [0, *cuts, len(order)]
        numbers = grouped[bounds[:-1]]
        views = [self.views[number] for number in numbers.tolist()]
        size_of = self.sizes[numbers].tolist()
        grid = _ChunkGrid.of(self.sizes[probes].reshape(n * nq, width),
                             widest, order, lows) \
            if len(order) * widest > _CHUNK_FROM else None
        if grid is None:
            block = np.full((len(order), widest), np.inf, dtype=np.float32)
            for begin, end, codes, size in zip(bounds, bounds[1:], views,
                                               size_of):
                if size:
                    score(begin, end, codes, block[begin:end, :size])
        else:
            block, outs = grid.block(bounds, size_of)
            for begin, end, codes, out in zip(bounds, bounds[1:], views,
                                              outs):
                if out is not None:
                    score(begin, end, codes, out)
        if self.norms is not None:
            # (|q|^2 - 2 q.v) + |v|^2, the order ``squared_l2`` adds in.
            # Row ``r`` of ``windows`` is ``norms[r:r + wide]``: a block
            # row's |v|^2 starts at the list row its first score is of,
            # and what it reads past the list's end lands on +inf
            # padding.
            q_norms = np.einsum("ij,ij->i", queries, queries)[pair_query]
            if grid is None:
                wide, starts = widest, lows
            else:
                wide, starts = grid.width, grid.firsts
                q_norms = np.repeat(q_norms, grid.chunks)
            block += q_norms[:, None]
            windows = np.ndarray((self.row_base[-1] + 1, wide),
                                 np.float32, self.norms,
                                 strides=self.norms.strides * 2)
            block += windows[starts]
        if grid is None:
            # Back to row order: a row's pairs side by side make its
            # candidate row, and one batched top-k picks the winners.
            candidates = np.empty_like(block)
            candidates[order] = block
            cols, dists = topk_smallest(
                candidates.reshape(n * nq, width * widest), k)
            slot, within = np.divmod(cols, widest)
            slot += np.arange(0, n * nq * width, width)[:, None]
            at = np.where(dists < np.inf,      # +inf is block padding
                          self.offsets[probes.reshape(-1)[slot]] + within,
                          -1)
        else:
            at, dists = grid.topk(block, k)
        if self.norms is not None:
            np.maximum(dists, 0.0, out=dists)   # rounding below zero
        at, dists = VectorIndex._pad_results(at, dists, k)
        return at, dists, sizes.reshape(n, nq * width).sum(axis=1)

    def select(self, scope: Sequence[int], queries: np.ndarray,
               probes: np.ndarray, k: int,
               cuts: Mapping[int, tuple[np.ndarray, int]] | None = None,
               columns: Sequence[np.ndarray] = (),
               ranks: Sequence[int] | None = None) -> tuple | None:
        """The top-``k`` of one query over the rows every member in
        ``scope`` probes for it and over ``columns``, selected at once in
        one row of scores (``ArenaIndex.scans_once`` says when that is the
        pass ``scan`` makes anyway).  The members are flat.

        ``queries`` is one row and ``probes`` is as in ``scan``, ``(len(
        scope), 1, width)``.  ``cuts`` maps a position in ``scope`` to
        ``(excluded, asked)``: a mask over the member's build rows, which
        are dropped, and how many of its best probed rows its own answer
        takes them from.  Such a member's rows pass only where that answer
        is its first ``k`` unexcluded rows: where its ``asked`` best hold
        fewer while ``asked`` is below the member's rows, or where the cut
        splits a tie holding an excluded row, the selection is None.
        ``columns`` are ``(1, m)`` rows of further distances, laid after
        the lists'.  Equal distances are kept and ranked in column order,
        or by ``ranks`` first (one per position in ``scope``, then one per
        column) where given.

        Returns ``(ids, adjusted distances, rows scored, pruned)``: the
        first two ``(1, <= k)``, padded by ``-1`` / ``+inf``, ids as
        ``scan``'s and a column entry numbered from ``row_base[-1]`` on
        (columns laid end to end); the rows each member probed and the
        excluded ones among its ``asked`` best, ``(len(scope),)``.  A
        member's distances are the ones ``scan`` hands it.
        """
        n = len(scope)
        pruned = np.zeros(n, dtype=np.int64)
        if k <= 0:
            return (np.empty((1, 0), dtype=np.int64),
                    np.empty((1, 0), dtype=np.float32),
                    self.sizes[probes].sum(axis=(1, 2)), pruned)
        # Member ``i``'s scores are entries ``spans[i]:spans[i + 1]`` of
        # the row, and the scores of a list are laid from entry
        # ``heads[j]`` on, that of arena row ``lows[j]`` first
        # (``_arena_rows``).
        row, spans, heads, lows, probed = self._one_row(queries, probes)
        lists = spans[-1]
        if columns:
            row = np.concatenate([row, *columns], axis=None)
        for i, (excluded, asked) in (cuts or {}).items():
            lo, hi = spans[i], spans[i + 1]
            scores = row[lo:hi]
            dead = excluded[self.ids[_arena_rows(heads, lows,
                                                 np.arange(lo, hi))]
                            - self.row_base[scope[i]]]
            found = _pruned(scores, dead, int(probed[i]), asked, k,
                            len(excluded))
            if found is None:
                return None
            pruned[i] = found
            scores[dead] = np.inf
        key = None
        if ranks is not None:
            def key(cols: np.ndarray) -> np.ndarray:
                ends = np.cumsum([column.size for column in columns])
                return np.asarray(ranks)[np.where(
                    cols < lists, np.searchsorted(spans[1:], cols, "right"),
                    n + np.searchsorted(ends, cols - lists, "right"))]

        cols, dists = _in_column_order(row, *topk_smallest(row, k + 1), k,
                                       key)
        ids = self.ids[_arena_rows(
            heads, lows, np.minimum(cols, lists - 1) if columns else cols)]
        if columns:
            ids = np.where(cols < lists, ids,
                           self.row_base[-1] + cols - lists)
        ids = np.where(dists < np.inf, ids, -1)  # +inf is padding
        if self.norms is not None:
            np.maximum(dists, 0.0, out=dists)   # rounding below zero
        return ids[None], dists[None], probed, pruned

    def _one_row(self, queries: np.ndarray, probes: np.ndarray) -> tuple:
        """One query's candidate row, laid compact: every probed list's
        scores right after the last's, in list order (member by member,
        as lists are numbered); a list is one GEMV straight into the row,
        as a member's own search of one query scores it, the left factor
        computed once.  Returns ``select``'s ``(row, spans, heads, lows,
        rows probed)``."""
        n, _nq, width = probes.shape
        # Each member's lists, ascending: list numbers are member-major.
        pairs = np.sort(probes.reshape(-1))
        sizes = self.sizes[pairs]
        ends = np.cumsum(sizes)
        row = np.empty(int(ends[-1]), dtype=np.float32)
        numbers, starts = pairs.tolist(), [0, *ends.tolist()]
        views = self.views
        left = _left_factor(queries, self.metric)[0]
        for number, begin, end in zip(numbers, starts, starts[1:]):
            if begin < end:
                views[number].dot(left, out=row[begin:end])
        if self.norms is not None:
            # (|q|^2 - 2 q.v) + |v|^2, the order ``squared_l2`` adds in.
            row += np.einsum("ij,ij->i", queries, queries)[0]
            norm_views = self.norm_views
            row += np.concatenate([norm_views[number] for number in numbers])
        return (row, starts[::width], ends - sizes, self.offsets[pairs],
                sizes.reshape(n, width).sum(axis=1))


class InvertedLists(ListArena):
    """Codes grouped by list: one index's own lists, the arena of one member.

    Rows are stored **sorted by list** in one array, so list ``c`` is the
    slice ``offsets[c]:offsets[c + 1]`` of ``codes`` and of ``ids`` (the
    rows' positions in the build matrix) and a scan scores against it in
    place.  What a row is is the codec's business; where its Euclidean
    scores are only the cross term, ``norms`` keeps ``|row|^2`` of the
    decoded rows (list-sorted like them).
    """

    #: What ``_derive`` sets, and a pickle leaves out.
    _DERIVED = ("row_base", "list_base", "widest", "views", "norm_views")

    def __init__(self, data: np.ndarray, assignments: np.ndarray,
                 nlist: int, codec: Codec, metric: MetricType) -> None:
        # Built, not laid out of members (``ListArena.__init__`` is not
        # run): what an arena lays out is read off the one member.
        order = np.argsort(assignments, axis=None, kind="stable")
        self.metric = metric
        self.codec = codec
        self.ids = order.astype(np.int64, copy=False)
        if assignments.ndim > 1:
            # (replicas, n): a row is stored once per replica.
            self.ids %= assignments.shape[1]
        self.offsets = np.zeros(nlist + 1, dtype=np.int64)
        np.cumsum(np.bincount(assignments.reshape(-1), minlength=nlist),
                  out=self.offsets[1:])
        # One entry past the lists, like ``offsets``: list ``-1`` is empty.
        self.sizes = np.append(np.diff(self.offsets), 0)
        self.max_list_size = int(self.sizes.max())
        self.codes = codec.encode(data[self.ids])
        self.norms: np.ndarray | None = None
        if metric is MetricType.EUCLIDEAN and codec.scores_cross_term:
            rows = codec.decode(self.codes)
            # Zero-padded by one list's length: see ``_scan_pass``.
            self.norms = np.zeros(len(rows) + self.max_list_size,
                                  dtype=np.float32)
            np.einsum("ij,ij->i", rows, rows, out=self.norms[:len(rows)])
        self._derive()

    def _derive(self) -> None:
        """What an arena reads of its one member, derived from the stored
        lists: its bases and widest list, and every list's codes and
        ``|row|^2`` (where kept) as views of ``codes`` / ``norms``, the
        trailing empty list included, taken once for every scan and every
        arena that holds this member."""
        self.row_base = [0, len(self.ids)]
        self.list_base = [0, len(self.sizes)]
        self.widest = [self.max_list_size]
        bounds = list(itertools.pairwise(
            [*self.offsets.tolist(), len(self.ids)]))
        self.views = [self.codes[low:high] for low, high in bounds]
        self.norm_views = None if self.norms is None \
            else [self.norms[low:high] for low, high in bounds]

    def __getstate__(self) -> dict:
        # What is derived is not pickled: views would pickle as copies of
        # the codes.  A blob keeps the two empty derived slots it has
        # always held, as a query node is charged by the byte to load it.
        state = {name: value for name, value in self.__dict__.items()
                 if name not in self._DERIVED}
        return {**state, "_arena": None, "_views": None}

    def __setstate__(self, state: dict) -> None:
        del state["_arena"], state["_views"]
        self.__dict__.update(state)
        self._derive()

    @property
    def nlist(self) -> int:
        return len(self.offsets) - 1


def _arena_rows(heads: np.ndarray, lows: np.ndarray, cols: np.ndarray
                ) -> np.ndarray:
    """The arena row of every entry of ``cols``, entries of
    ``ListArena.select``'s row: the list whose scores are laid from entry
    ``heads[j]`` on (ascending; an empty list shares the next one's) holds
    it, and ``lows[j]`` is the arena row of that list's first score."""
    at = np.searchsorted(heads, cols, "right") - 1
    return lows[at] + cols - heads[at]


def _pruned(scores: np.ndarray, excluded: np.ndarray, probed: int,
            asked: int, k: int, total: int) -> int | None:
    """How many ``excluded`` rows the ``asked`` best ``scores`` (one
    query's, of the ``probed`` rows a member probed) hold, when what an
    index asked for them and post-filtered to ``k`` keeps is the ``k``
    best unexcluded ones (or all of them): None where it keeps fewer than
    ``k`` while ``asked`` is below the ``total`` rows (the post-filter
    would escalate to an exact scan), or where the ``asked`` cut splits a
    tie that holds an excluded row (which of the tie the cut keeps is the
    index's to pick)."""
    dead = scores[excluded]
    pruned = 0
    if probed <= asked:         # every probed row is a candidate
        pruned = len(dead)
    elif len(dead):
        cut = np.partition(scores, asked - 1)[asked - 1]
        pruned = int(np.count_nonzero(dead < cut))
        at_cut = int(np.count_nonzero(dead == cut))
        if at_cut:
            if np.count_nonzero(scores <= cut) > asked:
                return None     # the cut splits their tie
            pruned += at_cut
    if asked < total and min(asked, probed) - pruned < k:
        return None
    return pruned


def _in_column_order(row: np.ndarray, cols: np.ndarray, dists: np.ndarray,
                     k: int,
                     key: Callable[[np.ndarray], np.ndarray] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The top ``k`` of ``(cols, dists)`` = ``topk_smallest(row, k + 1)``
    with equal scores in column order (by ``key(columns)`` first, where
    given): a run the ``k`` cut splits keeps its earliest columns, and
    every run is ordered by column.  Columns lie member by member, so a
    tie keeps and ranks the earlier member's entries first, as a stable
    merge of the members' own answers does.  The ``k + 1``-th score tells
    a split run without a look at ``row``, so a row without a tie costs
    one comparison of its neighbours."""
    tied = dists[1:] == dists[:-1]
    cols, dists = cols[:k], dists[:k]
    if not tied.any():
        return cols, dists
    value = dists[-1]
    if value < np.inf and tied[k - 1:].any():
        # A run split by the cut: its first ``n`` columns, in the row's
        # last ``n`` entries.
        n = np.count_nonzero(dists == value)
        run = np.flatnonzero(row == value)
        if key is not None:
            run = run[np.argsort(key(run), kind="stable")]
        cols[-n:] = run[:n]
    order = np.lexsort((cols, dists) if key is None
                       else (cols, key(cols), dists))
    return cols[order], dists[order]


class _ChunkGrid:
    """A large pass's score block laid out as rows of one chunk width.

    A pair whose list holds ``s`` rows takes ``ceil(s / width)``
    consecutive chunk rows of the block, so a list's group of pairs is
    one contiguous region and its scores are written into a ``(pairs,
    s)`` strided view of it: the same BLAS call, on the same operands, as
    into the padded block.  The top-k reads every (member, query) row's
    chunks in probe-rank order, padded only to the pass's deepest row,
    and each chunk's first list row maps a winner back.
    """

    def __init__(self, width: int, spans: np.ndarray, ends: np.ndarray,
                 order: np.ndarray, lows: np.ndarray) -> None:
        rows = len(ends)
        self.width, self.rows = width, rows
        self.deepest = int(ends[:, -1].max())
        #: Chunk rows of every pair, in list order, and the block row of
        #: its first one.
        self.chunks = spans.reshape(-1)[order]
        self.starts = np.cumsum(self.chunks) - self.chunks
        self.total = int(self.starts[-1] + self.chunks[-1])
        #: The list row every block row's first score is of.
        self.firsts = np.repeat(lows - self.starts * width, self.chunks) \
            + np.arange(0, self.total * width, width)
        # The grid row of a pair's first chunk: its row's first grid row
        # plus the chunks of the pairs that row probed before it.
        head = ends - spans
        head += np.arange(0, rows * self.deepest, self.deepest)[:, None]
        #: The grid row of every block row.
        self.dest = np.repeat(head.reshape(-1)[order] - self.starts,
                              self.chunks) + np.arange(self.total)

    @classmethod
    def of(cls, sizes: np.ndarray, widest: int, order: np.ndarray,
           lows: np.ndarray) -> _ChunkGrid | None:
        """The grid of a pass whose pairs probe lists of ``sizes``
        (``(rows, width)``, in row order; ``order`` / ``lows`` as in
        ``ListArena._scan_pass``), or ``None`` where it would not hold
        fewer floats than the padded block."""
        width = min(_CHUNK_WIDTH, widest)
        spans = (sizes + (width - 1)) // width
        ends = np.cumsum(spans, axis=1)
        if len(ends) * int(ends[:, -1].max()) * width >= sizes.size * widest:
            return None
        return cls(width, spans, ends, order, lows)

    def block(self, bounds: list[int], size_of: list[int]
              ) -> tuple[np.ndarray, list[np.ndarray | None]]:
        """The ``(total, width)`` score block, +inf, and every list
        group's ``(pairs, size)`` view of it, where the group is
        ``bounds[i]:bounds[i + 1]`` of the pairs in list order (``None``
        for an empty list)."""
        heads = bounds[:-1]
        spans = self.chunks[heads]
        longest = int(spans.max())
        flat = np.full((self.total + longest - 1) * self.width, np.inf,
                       dtype=np.float32)
        # Row ``r`` of ``reach`` is the ``longest`` chunk rows from block
        # row ``r`` on, so every group's view is one slice of it.
        reach = np.ndarray((self.total, longest * self.width), np.float32,
                           flat, strides=(flat.strides[0] * self.width,
                                          flat.strides[0]))
        outs = [reach[row:row + (end - begin) * span:span, :size]
                if size else None
                for begin, end, size, row, span in zip(
                    heads, bounds[1:], size_of,
                    self.starts[heads].tolist(), spans.tolist())]
        return flat[:self.total * self.width].reshape(-1, self.width), outs

    def topk(self, block: np.ndarray, k: int
             ) -> tuple[np.ndarray, np.ndarray]:
        """Every row's top-``k`` over its chunks of ``block``: ``(list
        rows, scores)``, ``-1`` where a score is +inf padding."""
        grid = np.full((self.rows * self.deepest, self.width), np.inf,
                       dtype=np.float32)
        grid[self.dest] = block
        first = np.zeros(len(grid), dtype=np.int64)
        first[self.dest] = self.firsts
        cols, dists = topk_smallest(
            grid.reshape(self.rows, self.deepest * self.width), k)
        slot, within = np.divmod(cols, self.width)
        slot += np.arange(0, len(grid), self.deepest)[:, None]
        return np.where(dists < np.inf, first[slot] + within, -1), dists


# ---------------------------------------------------------------------------
# bucketers over k-means centroids
# ---------------------------------------------------------------------------

class KMeansBucketer:
    """IVF-style: k-means lists, probed by a flat scan of the centroids."""

    def __init__(self, metric: MetricType, nlist: int = 64,
                 seed: int = 0) -> None:
        self.metric = metric
        self.nlist = positive_int("nlist", nlist)
        self.seed = seed
        self.num_buckets = 0
        self.centroids: np.ndarray | None = None

    def _partition(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(centroids, the list of every row)``."""
        result = kmeans(data, min(self.nlist, data.shape[0]),
                        seed=self.seed)
        return result.centroids, result.assignments

    def fit(self, data: np.ndarray) -> np.ndarray:
        self.centroids, assignments = self._partition(data)
        self.num_buckets = self.centroids.shape[0]
        return assignments

    def probe(self, queries: np.ndarray, nprobe: int,
              stats: SearchStats) -> np.ndarray:
        dists = adjusted_distances(queries, self.centroids, self.metric)
        stats.float_comparisons += dists.size
        return topk_smallest(dists, min(nprobe, self.num_buckets))[0]


class GraphBucketer(KMeansBucketer):
    """k-means lists whose centroids are navigated with a small HNSW.

    With many lists, finding the nearest centroids by brute force starts
    to dominate; a graph *over the centroids* makes probing cost ~``ef``
    comparisons instead of ``nlist``.
    """

    def __init__(self, metric: MetricType, dim: int, nlist: int = 128,
                 M: int = 8, ef_search: int = 48, seed: int = 0) -> None:
        super().__init__(metric, nlist, seed)
        self.graph = HnswIndex(metric, dim, M=M, ef_search=ef_search,
                               seed=seed)

    def fit(self, data: np.ndarray) -> np.ndarray:
        assignments = super().fit(data)
        self.graph.build(self.centroids)
        return assignments

    def probe(self, queries: np.ndarray, nprobe: int,
              stats: SearchStats) -> np.ndarray:
        lists, _ = self.graph.search(queries,
                                     min(nprobe, self.num_buckets))
        stats.add(self.graph.stats)
        return lists


class OneList:
    """The degenerate bucketer: one list, which every query scans."""

    num_buckets = 1

    def __init__(self, metric: MetricType) -> None:
        self.metric = metric

    def fit(self, data: np.ndarray) -> np.ndarray:
        return np.zeros(data.shape[0], dtype=np.int64)

    def probe(self, queries: np.ndarray, nprobe: int,
              stats: SearchStats) -> np.ndarray:
        return np.zeros((queries.shape[0], 1), dtype=np.int64)


# ---------------------------------------------------------------------------
# the index
# ---------------------------------------------------------------------------

class BucketedIndex(VectorIndex):
    """A bucketer and a codec over one :class:`InvertedLists`."""

    def __init__(self, metric: MetricType, dim: int, bucketer: Bucketer,
                 codec: Codec, nprobe: int | None) -> None:
        super().__init__(metric, dim)
        # ``None`` from a type that has no such knob (IMI: ``_probe``).
        if nprobe is not None:
            self.nprobe = positive_int("nprobe", nprobe)
        self.bucketer = bucketer
        self.codec = codec
        # The ADC codecs cannot compose cosine from subspaces: their
        # registrations hand the bucketer inner product instead, and rows
        # and queries reach the lists unit-normalised.
        self._unit_rows = bucketer.metric is not metric
        self._lists: InvertedLists | None = None

    def _stored(self, arr: np.ndarray,
                assignments: np.ndarray) -> np.ndarray:
        """What the codec is trained on and encodes: the rows."""
        return arr

    def build(self, data: np.ndarray) -> None:
        arr = self._check_build_input(data)
        if self._unit_rows:
            arr = normalize_rows(arr)
        assignments = self.bucketer.fit(arr)
        rows = self._stored(arr, assignments)
        self.codec.train(rows)
        self._lists = InvertedLists(rows, assignments,
                                    self.bucketer.num_buckets, self.codec,
                                    self.bucketer.metric)
        self.ntotal = arr.shape[0]
        self.is_built = True

    def _probe(self, queries: np.ndarray, k: int,
               nprobe: int | None) -> np.ndarray:
        """The ``(nq, width)`` lists each query scans, ``-1`` padded."""
        return self.bucketer.probe(queries, nprobe or self.nprobe,
                                   self.stats)

    def search(self, queries: np.ndarray, k: int,
               nprobe: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        queries = self._check_query_input(queries)
        if self._unit_rows:
            queries = normalize_rows(queries)
        if nprobe is not None:
            positive_int("nprobe", nprobe)
        self.stats.reset()
        ids, dists, compared = self._lists.scan(
            (0,), queries, self._probe(queries, k, nprobe)[None], k)
        if self.codec.quantized:
            self.stats.quantized_comparisons += int(compared[0])
        else:
            self.stats.float_comparisons += int(compared[0])
        return ids, dists

    @property
    def effective_nlist(self) -> int:
        return self._lists.nlist if self._lists is not None else 0

    def list_sizes(self) -> np.ndarray:
        """List occupancy (diagnostics / balance tests)."""
        if self._lists is None:
            return np.zeros(0, dtype=np.int64)
        return self._lists.sizes[:-1]

    def memory_bytes_estimate(self) -> int:
        """Stored payload size (the memory knob users trade with)."""
        return self._lists.codes.nbytes if self._lists is not None else 0


class ArenaIndex(VectorIndex):
    """Built flat k-means indexes of one metric, searched as one.

    Derived from its members and storing no row of its own: their lists
    laid end to end (:class:`ListArena`, which references the members'
    code matrices), the map from arena rows to the rows of the members'
    build matrices laid end to end, and what the coarse step needs of the
    k-means centroids.  ``search`` answers, for every member in scope,
    what the member's own ``search`` answers — the same lists probed, the
    same distances bit for bit, exact ties possibly in another order —
    with one coarse step and one list-major scan for all of them.  The
    work is per member and is counted into one counter array, a row per
    member in scope (``repro.index.base``), handed to ``search`` or added
    to the ``SearchStats`` handed to it; the arena's own ``stats`` stays
    empty.
    """

    index_type = "ARENA"

    @staticmethod
    def admits(index: VectorIndex | None) -> bool:
        """A built index of raw float rows in k-means lists that is probe
        -> scan and nothing else: ``IVF_FLAT``, ``COMPOSITE`` ``kmeans x
        none`` and a growing slice's temporary index.  Any other (a
        quantized codec, a graph-navigated or IMI bucketer, a type that
        works out its own probe width or post-processes what the scan
        returns) is searched through its own ``search``."""
        return (isinstance(index, BucketedIndex) and index.is_built
                and type(index.codec) is FlatCodec
                and type(index.bucketer) is KMeansBucketer
                and type(index).search is BucketedIndex.search
                and type(index)._probe is BucketedIndex._probe)

    def __init__(self, members: Sequence[BucketedIndex],
                 base: ArenaIndex | None = None) -> None:
        super().__init__(members[0].metric, members[0].dim)
        kept = len(base.members) if base is not None else 0
        new = members[kept:]
        for member in new:
            if not self.admits(member) or member.metric is not self.metric \
                    or member.dim != self.dim:
                raise IndexBuildError(
                    f"an arena of {self.metric.value} flat k-means indexes "
                    f"of dim {self.dim} cannot take {member.index_type} "
                    f"({member.metric.value}, dim {member.dim})")
        self.members = tuple(members)
        self.lists = ListArena([member._lists for member in members],
                               base.lists if base is not None else None)
        self.ntotal = self.lists.row_base[-1]
        self.is_built = True
        self._nlists = np.array([member.bucketer.num_buckets
                                 for member in members])
        #: How many lists each member probes.
        self._widths = np.minimum(
            [member.nprobe for member in members], self._nlists)
        self._list_bases = np.array(self.lists.list_base[:-1])
        # The coarse step is done for all members at once.  What does not
        # depend on the query is kept per member: the right factor of its
        # GEMM, the centroids (unit-normalised under cosine) times -2
        # under Euclidean and -1 otherwise, so that the GEMM yields
        # ``-2 q.c`` / ``-q.c`` with the bits of the member's own probe
        # (see ``_left_factor``), and |c|^2 under Euclidean.
        self._centroids: list[np.ndarray] = \
            list(base._centroids) if base is not None else []
        self._centroid_norms = np.zeros(
            (len(members), int(self._nlists.max())), dtype=np.float32)
        if base is not None:
            self._centroid_norms[:kept, :base._centroid_norms.shape[1]] = \
                base._centroid_norms
        for number, member in enumerate(new, kept):
            centroids = member.bucketer.centroids
            if self.metric is MetricType.EUCLIDEAN:
                np.einsum("ij,ij->i", centroids, centroids,
                          out=self._centroid_norms[number, :len(centroids)])
                factor = -2.0 * centroids
            elif self.metric is MetricType.COSINE:
                factor = centroids / -nonzero_norms(centroids)
            else:
                factor = -centroids
            self._centroids.append(factor.T)
        # At one query, the coarse steps are one GEMV over the factors'
        # rows stacked in C order.  A GEMV row's bits depend only on
        # whether it lies in the call's last ``n mod 4`` rows
        # (``test_stacked_coarse_gemv_rounds_as_each_members_own``), so a
        # member joins the stack only where its ``nlist`` is a multiple of
        # 4; any other keeps its own call.  First stack row of every
        # member, None where it is not stacked:
        self._stacked_at: list[int | None] = \
            list(base._stacked_at) if base is not None else []
        parts = [base._stack] if base is not None \
            else [np.empty((0, self.dim), dtype=np.float32)]
        at = len(parts[0])
        for factor in self._centroids[kept:]:
            if factor.shape[1] % 4:
                self._stacked_at.append(None)
                continue
            self._stacked_at.append(at)
            parts.append(factor.T)
            at += factor.shape[1]
        self._stack = np.concatenate(parts) if len(parts) > 1 else parts[0]
        #: Scope -> what its searches derive from the arena alone.
        self._scopes: dict[tuple[int, ...], _Scope] = {}

    def grown(self, more: Sequence[BucketedIndex]) -> ArenaIndex:
        """This arena with ``more`` members after its own: what was derived
        of its members is taken over, not derived again."""
        return ArenaIndex([*self.members, *more], base=self)

    def build(self, data: np.ndarray) -> None:
        raise IndexBuildError("an arena is derived from built indexes")

    def _scope(self, scope: Sequence[int]) -> _Scope:
        """The facts of a nonempty ``scope`` (ascending member numbers,
        each once), derived by its first search."""
        key = tuple(scope)
        facts = self._scopes.get(key)
        if facts is None:
            if list(key) != sorted(set(key)) \
                    or not 0 <= key[0] <= key[-1] < len(self.members):
                raise ValueError(
                    f"scope names arena members ascending, each once, "
                    f"from 0 to {len(self.members) - 1}; got {list(key)}")
            facts = self._scopes[key] = _Scope(self, key)
        return facts

    def _probe(self, scope: Sequence[int], queries: np.ndarray,
               counts: np.ndarray) -> np.ndarray:
        """The ``(len(scope), nq, width)`` arena list numbers each
        (member, query) row scans, most promising first; the coarse
        work is counted into ``counts``, a row per position in ``scope``."""
        facts = self._scope(scope)
        nq = queries.shape[0]
        width = facts.width
        dists = self._coarse(scope, facts, queries)
        counts[:, FLOAT_COMPARISONS] += \
            facts.coarse if nq == 1 else nq * facts.coarse
        # The lists ``topk_smallest`` takes, whose first step this is;
        # ranked, so that a narrower member's first slots are its own.
        probes = topk_smallest(dists.reshape(len(scope) * nq, -1),
                               width)[0].reshape(len(scope), nq, width)
        if facts.ragged:
            # A slot past its member's own width is its member's trailing
            # empty list.
            probes = np.where(
                (np.arange(width) < facts.widths[:, None, None])
                & (probes >= 0), probes, facts.nlists[:, None, None])
        probes += facts.bases[:, None, None]
        return probes

    def _coarse(self, scope: Sequence[int], facts: _Scope,
                queries: np.ndarray) -> np.ndarray:
        """The coarse distances of the members in ``scope`` (whose facts
        ``facts`` are), ``(len(scope), nq, wide)``, +inf past a member's
        lists: each member's own probe's, bit for bit.

        At one query one GEMV over the stacked members in scope, for
        several queries one GEMM per member over the rows the member's own
        probe multiplies (a GEMM over the stacked centroids rounds
        differently), and a member outside the stack its own call.
        Everything else is done once, in place."""
        nq = queries.shape[0]
        left = normalize_rows(queries) \
            if self.metric is MetricType.COSINE else queries
        dists = np.full((len(scope), nq, facts.norms.shape[1]), np.inf,
                        dtype=np.float32)
        own = range(len(scope))
        if nq == 1 and facts.stack is not None:
            lo, hi = facts.stack
            dists.reshape(-1)[facts.put] = \
                np.dot(self._stack[lo:hi], left[0])[facts.take]
            own = facts.own
        for i in own:
            factor = self._centroids[scope[i]]
            np.matmul(left, factor, out=dists[i][:, :factor.shape[1]])
        if self.metric is MetricType.EUCLIDEAN:
            # |q|^2 - 2 q.c + |c|^2, the order ``squared_l2`` adds in.
            dists += np.einsum("ij,ij->i", queries, queries)[:, None]
            dists += facts.norms[:, None, :]
            np.maximum(dists, 0.0, out=dists)
        return dists

    def scans_once(self, scope: Sequence[int]) -> bool:
        """Whether a one-query search of the members in ``scope``
        (ascending) is one scan pass, which ``search(together=True)``
        selects from.  Decided from the probe widths and the widest lists,
        before any coarse step: the query's row is laid compact
        (``ListArena._one_row``), each member's lists no wider than its
        own widest."""
        return bool(scope) and self._scope(scope).compact \
            <= min(_CHUNK_FROM, _SCAN_BLOCK_FLOATS)

    def search(self, queries: np.ndarray, k: int,
               scope: Sequence[int] | None = None,
               stats: Sequence[SearchStats] | None = None,
               together: bool = False,
               cuts: Mapping[int, tuple[np.ndarray, int]] | None = None,
               columns: Sequence[np.ndarray] = (),
               ranks: Sequence[int] | None = None
               ) -> tuple[np.ndarray, ...] | None:
        """Every member's top-``k``, stacked: ``(ids, adjusted
        distances)`` of shape ``(len(scope), nq, k)`` whose entry ``[i]``
        is what member ``scope[i]``'s own ``search`` returns, ids shifted
        to the member's place in the build matrices laid end to end.

        ``scope`` names the members searched, ascending (default: all);
        each one's work is counted into its row of ``stats``, an int64
        counter array ``(len(scope), STAT_FIELDS)``, or into one and then
        added to its entry of ``stats``, a :class:`SearchStats`.

        ``together`` selects one query's top-``k`` over every member's
        rows at once instead (``ListArena.select``; one scan pass where
        ``scans_once``): ``(ids, adjusted distances, rows scored,
        pruned)``, the first two ``(1, <= k)``, the best hits of the
        members' answers merged (equal distances kept and ranked earlier
        member first, as the merge does; within one member they may be
        taken or ranked otherwise), the last two ``(len(scope),)``.
        ``cuts`` (position in ``scope`` -> a mask of the member's excluded
        rows and the ``k`` its own answer is asked for), ``columns``
        (further ``(1, m)`` distances; a hit of one has the id ``ntotal``
        + its place in the columns laid end to end) and ``ranks`` (of the
        tie order) are ``ListArena.select``'s; where it is None, so is the
        search, and what was counted into ``stats`` is to be dropped.
        """
        queries = self._check_query_input(queries)
        scope = list(range(len(self.members))) if scope is None \
            else list(scope)
        n, nq = len(scope), queries.shape[0]
        if together and not (n and nq == 1):
            raise ValueError("one selection serves one query over at least "
                             "one member")
        if not n or not nq:
            return (np.full((n, nq, k), -1, dtype=np.int64),
                    np.full((n, nq, k), np.inf, dtype=np.float32))
        counts = stats if isinstance(stats, np.ndarray) \
            else np.zeros((n, len(STAT_FIELDS)), dtype=np.int64)
        probes = self._probe(scope, queries, counts)
        if together:
            found = self.lists.select(scope, queries, probes, k, cuts,
                                      columns, ranks)
            if found is None:
                return None
            counts[:, FLOAT_COMPARISONS] += found[2]
        else:
            ids, dists, compared = self.lists.scan(scope, queries, probes, k)
            counts[:, FLOAT_COMPARISONS] += compared
            found = ids.reshape(n, nq, k), dists.reshape(n, nq, k)
        if stats is not None and counts is not stats:
            for entry, row in zip(stats, counts.tolist()):
                entry.add(SearchStats.from_row(row))
        return found


class _Scope:
    """What every search of one scope of an :class:`ArenaIndex` derives
    from the arena alone: derived once, by the first (``_scope``)."""

    def __init__(self, arena: ArenaIndex, scope: tuple[int, ...]) -> None:
        numbers = list(scope)
        self.widths = arena._widths[numbers]
        self.nlists = arena._nlists[numbers]
        self.bases = arena._list_bases[numbers]
        self.width = int(self.widths.max())
        #: Whether some member probes fewer lists than the widest.
        self.ragged = int(self.widths.min()) < self.width
        #: Score floats one query's compact row can need (``scans_once``).
        self.compact = max(1, sum(
            width * arena.lists.widest[number]
            for width, number in zip(self.widths.tolist(), scope)))
        #: |c|^2 of every position, a row each as wide as the arena's
        #: widest member, and how many centroids each one scores.
        self.norms = arena._centroid_norms[numbers]
        sizes = [arena._centroids[number].shape[1] for number in scope]
        self.coarse = np.array(sizes, dtype=np.int64)
        # One query: coarse block row ``i``, stacked or scored on its own.
        stacked = [(i, arena._stacked_at[number], size)
                   for i, (number, size) in enumerate(zip(scope, sizes))
                   if arena._stacked_at[number] is not None]
        self.own = [i for i, number in enumerate(scope)
                    if arena._stacked_at[number] is None]
        #: The stack rows one GEMV multiplies (every stacked member in
        #: scope lies among them), and where in the coarse block its
        #: products go: ``put`` / ``take``.
        self.stack = self.put = self.take = None
        if stacked:
            lo = stacked[0][1]
            self.stack = lo, stacked[-1][1] + stacked[-1][2]
            wide = self.norms.shape[1]
            self.take = np.concatenate([
                np.arange(at - lo, at - lo + size)
                for _i, at, size in stacked])
            self.put = np.concatenate([
                np.arange(i * wide, i * wide + size)
                for i, _at, size in stacked])


class ExhaustiveIndex(BucketedIndex):
    """A codec over :class:`OneList`: the scan of every stored code that
    the quantizer types (``SQ8``, ``RQ``, ``PQ``, ``OPQ``) are."""

    def __init__(self, metric: MetricType, dim: int, codec: Codec,
                 scanned_as: MetricType) -> None:
        super().__init__(metric, dim, OneList(scanned_as), codec, nprobe=1)

    def search(self, queries: np.ndarray, k: int
               ) -> tuple[np.ndarray, np.ndarray]:
        return super().search(queries, k)


@register_index("IVF_FLAT")
class IvfFlatIndex(BucketedIndex):
    """Inverted file with exact in-cluster scan: kmeans x flat."""

    def __init__(self, metric: MetricType, dim: int, nlist: int = 128,
                 nprobe: int = 8, seed: int = 0) -> None:
        super().__init__(metric, dim, KMeansBucketer(metric, nlist, seed),
                         FlatCodec(metric), nprobe)
        self.nlist = nlist
