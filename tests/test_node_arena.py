"""The node arena and the 2-D reduce against the loops they replaced.

``QueryNode.search`` scans its sealed inverted-list segments that exclude
no row through one arena (one coarse step, one list-major scan), searches
a deleting or filtered one on its own, and reduces every segment's
candidates with one 2-D merge; the proxy merges the nodes' blocks the same
way.  The per-segment node loop and the per-query
merge loops those replaced are the reference (:mod:`tests.reference.reduce`):
a request is run twice on the same cluster, as shipped and with the
reference patched in (``tests/former_accounting.py``: the former
observation under today's call), and everything a caller or a plane can see must agree —

* hits: distances bit for bit, pks equal within every run of equal
  distances (only the run cut by ``k`` may pick other members of a tie);
* ``SearchStats`` / ``ReduceStats`` field by field, the per-segment EXPLAIN
  stages, ``profile.verify() == []``, ``latency_ms`` to the last digit.

Both sides of the one selection are held to that: a one-query node scan
whose segments in scope are all flat k-means arena members or fresh, with
no filter, no pk twice, one scan row and every deleting member's cut
proven, is reduced by the scan's own selection (``selects=True``); every
other node scan — every scan of several query rows among them — by the
per-member top-k and the node merge.

The arena is derived state: the second half mutates what it was derived
from between two searches and checks it is never read stale.
"""

import contextlib

import numpy as np
import pytest

from repro import Collection, connect, connections
from repro.api.rest import RestApi
from repro.cluster.manu import ManuCluster
from repro.config import LogConfig, ManuConfig, QueryConfig, \
    SegmentConfig
from repro.core.arena import SegmentArena
from repro.core.consistency import ConsistencyLevel
from repro.core.expr import FilterExpression
from repro.core.filtering import FilterStrategy, choose_strategy
from repro.core.results import HitBlock, merge_topk
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.core.segment import Segment
from repro.errors import IndexBuildError, InvalidQuery
from repro.index import ivf
from repro.index.base import STAT_FIELDS, SearchStats, create_index
from repro.index.ivf import ArenaIndex, BucketedIndex, IvfFlatIndex, \
    ListArena
from repro.nodes.query_node import QueryNode
from tests.former_accounting import former_path
from tests.reference.compare import DIM, METRICS, \
    assert_batches_equal_up_to_ties, assert_results_equal_up_to_ties, \
    clustered
from tests.reference.reduce import reference_search

EVENTUAL = ConsistencyLevel.EVENTUAL


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------

def stage_view(stage):
    """A stage of the EXPLAIN tree as comparable data (``queue_ms`` is a
    difference of absolute times, which the two runs do not share)."""
    meta = {key: round(value, 9) if key == "queue_ms" else value
            for key, value in stage.meta.items()}
    return (stage.name, meta, stage.counters,
            [stage_view(child) for child in stage.children])


def cold_column_caches(cluster):
    """``cache_hits`` / ``cache_misses`` depend on what ran before: both
    runs of a request start from unconsolidated columns."""
    for node in cluster.query_coord.live_nodes():
        for sid in node.segments_of("c"):
            node.segment("c", sid)._consolidated.clear()


@contextlib.contextmanager
def node_paths(monkeypatch):
    """Records every node scan with something in scope as ``[node name,
    whether the scan's one selection was its reduce]``."""
    paths = []
    real_scan, real_select = QueryNode._scan, SegmentArena.select

    def scan(self, collection, scope, *args):
        if self._scoped_segments(collection, scope):
            paths.append([self.name, False])
        return real_scan(self, collection, scope, *args)

    def select(self, *args):
        found = real_select(self, *args)
        paths[-1][1] = found is not None
        return found

    with monkeypatch.context() as patch:
        patch.setattr(QueryNode, "_scan", scan)
        patch.setattr(SegmentArena, "select", select)
        yield paths


def both(cluster, monkeypatch, queries, k, between=None, selects=None,
         **options):
    """One request as shipped and through the reference, far enough apart
    in virtual time that neither queues behind the other (``between``
    undoes what the first run left behind); asserts every visible output
    agrees and returns the shipped results.

    ``selects`` is the path every node scan of the shipped run must take
    (True: the one selection), or a function of the node that says it.
    """
    options = {"consistency": EVENTUAL, "explain": True, **options}
    cold_column_caches(cluster)
    cluster.run_for(1_000)
    with node_paths(monkeypatch) as paths:
        got = cluster.search("c", queries, k, **options)
    if selects is not None:
        nodes = {node.name: node
                 for node in cluster.query_coord.live_nodes()}
        assert paths and all(
            took is (selects(nodes[name]) if callable(selects) else selects)
            for name, took in paths), paths
    if between is not None:
        between()
    cold_column_caches(cluster)
    cluster.run_for(1_000)
    with former_path(monkeypatch):
        want = cluster.search("c", queries, k, **options)
    assert len(got) == len(want) == np.atleast_2d(queries).shape[0]
    for g, w in zip(got, want):
        assert_results_equal_up_to_ties(g, w, k)
        # The two runs start at different virtual times, and a latency is
        # a difference of absolute times: the service times it is made of
        # are compared exactly (stage meta, below), the twin-cluster test
        # compares the latency itself to the last digit.
        assert g.latency_ms == pytest.approx(w.latency_ms, abs=1e-9)
        assert g.consistency_wait_ms == w.consistency_wait_ms == 0.0
        assert g.segments_searched == w.segments_searched
    g, w = got[0].profile, want[0].profile
    assert g.verify() == [] and w.verify() == []
    assert stage_view(g.root) == stage_view(w.root)
    assert g.totals() == w.totals()
    return got


# ----------------------------------------------------------------------
# clusters
# ----------------------------------------------------------------------

def schema():
    return CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM),
        FieldSchema("price", DataType.FLOAT),
    ])


def rows(rng, pks, vectors=None):
    n = len(pks)
    return {"pk": list(pks),
            "vector": clustered(rng, n) if vectors is None else vectors,
            "price": rng.uniform(0.0, 10.0, n)}


def sealed_cluster(rng, metric=MetricType.EUCLIDEAN, index_type="IVF_FLAT",
                   n=2100, seal=300, params=None, replicas=1,
                   query_nodes=2):
    """``n`` rows in sealed, indexed segments of ``seal`` rows over two
    query nodes; 2100 / 300 leaves a small last segment per shard."""
    config = ManuConfig().with_overrides(
        segment=SegmentConfig(seal_entity_count=seal),
        query=QueryConfig(replica_number=replicas))
    cluster = ManuCluster(config=config, num_query_nodes=query_nodes)
    cluster.create_collection("c", schema())
    for start in range(0, n, 100):
        cluster.insert("c", rows(rng, range(start, min(start + 100, n))))
        cluster.run_for(50)
    cluster.flush("c")
    cluster.create_index("c", "vector", index_type, metric,
                         params or {"nlist": 16, "nprobe": 4})
    assert cluster.wait_for_indexes("c")
    cluster.run_for(2_000)
    return cluster


def nothing_deleted(node):
    """Whether no sealed segment of the node has a deletion."""
    return not any(node.segment("c", sid).num_deleted
                   for sid in node.sealed_segments_of("c"))


def sealed_segments(cluster):
    return [(node, node.segment("c", sid))
            for node in cluster.query_coord.live_nodes()
            for sid in node.sealed_segments_of("c")]


def arenas(cluster, metric=MetricType.EUCLIDEAN):
    return [node._arenas.get(("c", "vector", metric))
            for node in cluster.query_coord.live_nodes()]


# ----------------------------------------------------------------------
# the oracle matrix
# ----------------------------------------------------------------------

class TestArenaMatchesThePerSegmentLoop:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("nq", [1, 3, 64])
    def test_plain_requests(self, rng, monkeypatch, metric, nq):
        cluster = sealed_cluster(rng, metric)
        queries = clustered(rng, nq)
        for k in (1, 10, 2500):         # 2500 > rows
            got = both(cluster, monkeypatch, queries, k, metric=metric,
                       selects=nq == 1)
            assert all(len(r) == min(k, len(r)) > 0 for r in got)
        held = [arena for arena in arenas(cluster, metric)
                if arena is not None]
        assert held and sum(len(a.segments) for a in held) \
            == len(sealed_segments(cluster))

    def test_latency_to_the_last_digit(self, monkeypatch):
        """Twin clusters, one driven as shipped and one through the
        reference, at the same virtual times: latencies, service times
        and every span window are equal, not close."""
        twins = []
        for reference in (False, True):
            rng = np.random.default_rng(7)
            cluster = sealed_cluster(rng)
            cluster.delete("c", f"pk in {list(range(0, 400, 7))}")
            cluster.run_for(500)
            seen = []
            for nq in (1, 3, 64):
                queries = clustered(rng, nq)
                for options in ({}, {"consistency": ConsistencyLevel.STRONG},
                                {"expr": "price < 4"}):
                    cluster.run_for(300)
                    if reference:
                        with former_path(monkeypatch):
                            out = cluster.search("c", queries, 10, **options)
                    else:
                        out = cluster.search("c", queries, 10, **options)
                    seen.append([(r.latency_ms, r.consistency_wait_ms,
                                  r.distances) for r in out])
            spans = [(s.name, s.component, s.start_ms, s.end_ms, s.tags)
                     for tid in cluster.tracer.trace_ids()
                     for s in cluster.tracer.spans(tid)
                     if s.name.startswith(("proxy.search", "query_node.",
                                           "segment.scan", "proxy.merge"))]
            twins.append((seen, spans, cluster.now(), [
                (node.searches_served, node.service_ms_total,
                 node.busy_until_ms)
                for node in cluster.query_coord.live_nodes()]))
        assert twins[0][0] == twins[1][0]
        assert len(twins[0][1]) > 9 * 16 and twins[0][1] == twins[1][1]
        assert twins[0][2:] == twins[1][2:]

    def test_every_sealed_segment_goes_through_the_arena(self, rng,
                                                         monkeypatch):
        """No sealed arena-capable segment takes the per-segment route,
        whatever nq."""
        cluster = sealed_cluster(rng)
        calls = []
        real = BucketedIndex.search
        monkeypatch.setattr(
            BucketedIndex, "search",
            lambda self, *a, **kw: calls.append(self) or real(self, *a,
                                                              **kw))
        for nq in (1, 64):
            result = cluster.search("c", clustered(rng, nq), 5,
                                    explain=True)[0]
            stages = [seg for node in result.profile.node_stages()
                      for seg in node.stages("segment.scan")]
            assert {seg.meta["path"] for seg in stages} == {"index"}
            assert len(stages) == len(sealed_segments(cluster))
        assert calls == []

    def test_empty_query_block_before_and_after_indexing(self, rng,
                                                         monkeypatch):
        """An empty query block answers no result while the collection
        holds only growing segments and once the node arena serves its
        sealed ones."""
        config = ManuConfig().with_overrides(
            segment=SegmentConfig(seal_entity_count=300))
        cluster = ManuCluster(config=config, num_query_nodes=2)
        cluster.create_collection("c", schema())
        empty = np.zeros((0, DIM), dtype=np.float32)
        euclidean = MetricType.EUCLIDEAN
        cluster.insert("c", rows(rng, range(200)))
        cluster.run_for(500)
        assert cluster.search("c", empty, 5, metric=euclidean) == []
        for start in range(200, 1200, 100):
            cluster.insert("c", rows(rng, range(start, start + 100)))
            cluster.run_for(50)
        cluster.flush("c")
        cluster.create_index("c", "vector", "IVF_FLAT", euclidean,
                             {"nlist": 8, "nprobe": 4})
        assert cluster.wait_for_indexes("c")
        cluster.run_for(2_000)
        assert len(cluster.search("c", clustered(rng, 1), 5,
                                  metric=euclidean)[0]) == 5
        assert any(arenas(cluster))
        with node_paths(monkeypatch) as paths:
            assert cluster.search("c", empty, 5, metric=euclidean) == []
        assert paths and not any(took for _name, took in paths)
        for node in cluster.query_coord.live_nodes():
            block, service_ms, work = node.search("c", "vector", empty, 5,
                                                  euclidean)
            want, want_ms, want_work = reference_search(
                node, "c", "vector", empty, 5, euclidean)
            assert block.dists.shape[0] == len(want) == 0
            assert service_ms == want_ms
            assert work.reduce == want_work.reduce
            assert work.scans == want_work.scans

    def test_no_vector_matrix_is_held_twice(self, rng):
        cluster = sealed_cluster(rng)
        cluster.search("c", clustered(rng, 1), 5)
        for arena in arenas(cluster):
            assert len(arena.segments) >= 3
            lists = arena.index.lists
            for number, (segment, member) in enumerate(zip(
                    arena.segments, arena.index.members)):
                assert member is segment.index_for("vector")
                own = lists.views[lists.list_base[number]:
                                  lists.list_base[number + 1]]
                assert all(np.shares_memory(view, member._lists.codes)
                           for view in own if len(view))
            held = [value for holder in (arena, arena.index,
                                         arena.index.lists)
                    for value in vars(holder).values()
                    if isinstance(value, np.ndarray)]
            rows_held = arena.index.ntotal
            assert sum(a.nbytes for a in held) <= 32 * rows_held + 4096
            assert not any(a.ndim == 2 and a.shape == (rows_held, DIM)
                           for a in held)

    def test_ragged_nlist_and_a_segment_smaller_than_nlist(self, rng,
                                                           monkeypatch):
        """One segment holds fewer rows than ``nlist``: every list of its
        index holds a single row and it has fewer lists than the others,
        fewer even than ``nprobe``."""
        cluster = sealed_cluster(rng, n=2400, seal=400,
                                 params={"nlist": 16, "nprobe": 8})
        sizes = sorted(seg.num_rows for _n, seg in sealed_segments(cluster))
        assert 0 < sizes[0] < 8
        nlists = {seg.index_for("vector").effective_nlist
                  for _n, seg in sealed_segments(cluster)}
        assert min(nlists) == sizes[0] and max(nlists) == 16
        for nq in (1, 3, 64):
            both(cluster, monkeypatch, clustered(rng, nq), 10,
                 selects=nq == 1)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("n_deleted", [3, 10, 11, 120])
    def test_deletions_near_the_candidates(self, rng, monkeypatch, metric,
                                           n_deleted):
        """Both ``k_amplified`` regimes (<= k and > k exclusions in one
        segment), on some segments only.  Up to 13 exclusions a member's
        amplified ``k`` always holds ``k`` live rows, so the deleting
        members stay in the one selection; 120 of the nearest starve the
        members that hold them, and those nodes merge.  Several query rows
        merge everywhere."""
        cluster = sealed_cluster(rng, metric)
        queries = clustered(rng, 17)
        nearest = cluster.search("c", queries[:1], n_deleted,
                                 metric=metric)[0].pks
        cluster.delete("c", f"pk in {nearest}")
        cluster.run_for(500)
        selects = True if n_deleted <= 13 else nothing_deleted
        got = both(cluster, monkeypatch, queries, 10, metric=metric,
                   selects=False)
        assert not set(nearest) & {pk for r in got for pk in r.pks}
        totals = got[0].profile.totals()
        assert totals["delete_filter_hits"] == n_deleted
        assert totals["candidates_pruned"] > 0
        for nq in (1, 3):
            both(cluster, monkeypatch, queries[:nq], 10, metric=metric,
                 selects=selects if nq == 1 else False)

    def test_a_member_that_allows_nothing(self, rng, monkeypatch):
        """Every row of one sealed segment deleted: the arena scans the
        others, in the one selection too."""
        cluster = sealed_cluster(rng)
        node, emptied = sealed_segments(cluster)[1]
        cluster.delete("c", f"pk in {emptied.pk_array.tolist()}")
        cluster.run_for(500)
        assert emptied.num_deleted == emptied.num_rows
        gone = set(emptied.pk_array.tolist())
        for nq in (1, 3):
            got = both(cluster, monkeypatch, clustered(rng, nq), 10,
                       selects=nq == 1)
            assert not gone & {pk for r in got for pk in r.pks}
        arena = node._arenas[("c", "vector", MetricType.EUCLIDEAN)]
        assert emptied in arena.segments and len(arena.segments) > 1

    def test_deletions_far_from_the_candidates(self, rng, monkeypatch):
        """Exclusions amplify k, yet no candidate is dropped."""
        cluster = sealed_cluster(rng)
        queries = clustered(rng, 5)
        farthest = cluster.search("c", -100.0 * queries[:1], 40)[0].pks
        cluster.delete("c", f"pk in {farthest}")
        cluster.run_for(500)
        got = both(cluster, monkeypatch, queries, 10, selects=False)
        totals = got[0].profile.totals()
        assert totals["candidates_visited"] > \
            len(queries) * 10 * len(sealed_segments(cluster)) * 0.9
        assert totals["candidates_pruned"] == 0
        got = both(cluster, monkeypatch, queries[:1], 10, selects=True)
        assert got[0].profile.totals()["candidates_pruned"] == 0

    def test_filter_plans_pre_post_and_scan_on_one_node(self, rng,
                                                        monkeypatch):
        """One expression, three strategies: the filter is selective on
        one segment (PRE: exact scan of the passing rows, outside the
        arena), passes nearly everything on another (POST) and a quarter
        on the rest (SCAN)."""
        cluster = sealed_cluster(rng, n=6000, seal=1000,
                                 params={"nlist": 32, "nprobe": 1})
        node = max(cluster.query_coord.live_nodes(),
                   key=lambda n: len(n.sealed_segments_of("c")))
        held = [node.segment("c", sid)
                for sid in node.sealed_segments_of("c")]
        passing = set()
        for node_, segment in sealed_segments(cluster):
            share = 0.25
            if node_ is node and segment in held[:2]:
                share = (0.01, 0.97)[held.index(segment)]
            price = np.where(rng.random(segment.num_rows) < share, 1.0, 9.0)
            segment._chunks["price"] = [price]
            segment._consolidated.clear()
            segment._attr_indexes.clear()
            passing |= set(segment.pk_array[price < 5].tolist())
        expr = FilterExpression("price < 5")
        plans = [choose_strategy(segment, "vector", 10, expr).strategy
                 for segment in held if segment.num_rows > 900]
        assert set(plans) == set(FilterStrategy)
        for nq in (1, 3, 64):
            got = both(cluster, monkeypatch, clustered(rng, nq), 10,
                       expr="price < 5", selects=False)
            assert {pk for r in got for pk in r.pks} <= passing
        stage = next(s for s in got[0].profile.node_stages()
                     if s.meta["node"] == node.name)
        paths = [seg.meta["path"] for seg in stage.stages("segment.scan")]
        assert "brute" in paths and "index" in paths

    def test_starvation_escalates_one_segment_query_pair(self, rng,
                                                         monkeypatch):
        """A mask that leaves some (segment, query) rows short of k with
        ``k_amplified < covered``: those rows, and only those, take the
        exact scan."""
        cluster = sealed_cluster(rng, params={"nlist": 16, "nprobe": 16})
        n = 2100
        keep = rng.choice(n, 260, replace=False)
        cluster.delete("c", "pk in " + str(sorted(
            set(range(n)) - set(keep.tolist()))))
        cluster.run_for(500)
        queries = clustered(rng, 24)
        got = both(cluster, monkeypatch, queries, 10, selects=False)
        stages = [seg for node in got[0].profile.node_stages()
                  for seg in node.stages("segment.scan")]
        brute = [seg.counters["brute_scans"] for seg in stages]
        assert 0 < sum(brute) < len(queries) * len(stages)
        assert all(seg.counters["index_scans"] == 1 for seg in stages)
        assert all(len(r) == 10 for r in got)
        both(cluster, monkeypatch, queries[:1], 10, selects=False)

    def test_same_pk_in_two_segments_and_on_two_nodes(self, rng,
                                                      monkeypatch):
        """Copies of one entity (a replica left behind, an upsert's old
        version): best hit per pk, at the node and at the proxy."""
        cluster = sealed_cluster(rng)
        queries = clustered(rng, 9)
        top = cluster.search("c", queries[:1], 1)[0].pks[0]
        nodes = cluster.query_coord.live_nodes()
        home = next(node for node, seg in sealed_segments(cluster)
                    if seg.contains_pk(top))
        source = next(seg for node, seg in sealed_segments(cluster)
                      if seg.contains_pk(top))
        row = source._pk_rows[top]
        for node in nodes:              # a copy in another segment
            target = next(seg for n, seg in sealed_segments(cluster)
                          if n is node and seg is not source)
            victim = int(target.pk_array[0])
            del target._pk_rows[victim]
            target._pks[0] = top
            target._pk_arr = None
            target._pk_rows[top] = 0
            target.rewrite_vectors("vector", 0,
                                   source.column("vector")[row])
            vectors = target.column("vector")
            index = create_index("IVF_FLAT", MetricType.EUCLIDEAN, DIM,
                                 nlist=16, nprobe=4)
            index.build(vectors)
            target.attach_index("vector", index)
        assert home in nodes
        for nq in (1, 9):   # the node that holds two copies merges
            got = both(cluster, monkeypatch, queries[:nq], 10,
                       selects=lambda node: nq == 1 and node is not home)
        assert got[0].pks[0] == top
        assert all(len(set(r.pks)) == len(r.pks) == 10 for r in got)
        node_dups = sum(
            node.stages("query_node.reduce")[0].counters["hits_deduped"]
            for node in got[0].profile.node_stages())
        proxy_dups = got[0].profile.root.stages(
            "proxy.merge")[0].counters["hits_deduped"]
        assert node_dups >= 1 and proxy_dups >= 1

    def test_a_scan_of_several_passes_merges_and_probes_once(
            self, rng, monkeypatch):
        """A node scan that is more than one pass (what nq=64 is on the
        end-to-end benchmark's nodes) takes the per-member top-k and the
        node merge; whichever path a node scan takes, the coarse step
        runs once for it.  (Deciding after the coarse step whether the
        scan selects once would run it again for every scan that does
        not, and no counter would show it.)"""
        cluster = sealed_cluster(rng)
        cluster.search("c", clustered(rng, 1), 10)    # derives the arenas
        passes, probes = [], []
        real_pass, real_probe = ListArena._scan_pass, ArenaIndex._probe

        def scan_pass(self, *args, **kwargs):
            passes.append(self)     # the reference's members' own too
            return real_pass(self, *args, **kwargs)

        def probe(self, *args, **kwargs):
            probes.append(1)
            return real_probe(self, *args, **kwargs)

        monkeypatch.setattr(ListArena, "_scan_pass", scan_pass)
        monkeypatch.setattr(ArenaIndex, "_probe", probe)
        monkeypatch.setattr(ivf, "_SCAN_BLOCK_FLOATS", 2 * 64 * 4 * max(
            arena.index.lists.widest[0] for arena in arenas(cluster)
            if arena is not None))
        for nq, selects in ((64, False), (1, True)):
            del passes[:], probes[:]
            got = both(cluster, monkeypatch, clustered(rng, nq), 10,
                       selects=selects)
            scans = len(got[0].profile.node_stages())
            assert len(probes) == scans
            held = [arena.index.lists for arena in arenas(cluster)]
            assert (sum(lists in held for lists in passes) > scans) \
                is not selects

    def test_ties_across_segments_keep_segment_order(self, rng,
                                                     monkeypatch):
        """Exactly equal distances from several segments reach the reduce
        in segment-id order, whichever way each segment is scanned: a
        segment searched on its own between two arena members keeps its
        place among the arena's partials."""
        cluster = sealed_cluster(rng)
        node = max(cluster.query_coord.live_nodes(),
                   key=lambda n: len(n.sealed_segments_of("c")))
        first, middle, last = [node.segment("c", sid)
                               for sid in node.sealed_segments_of("c")[:3]]
        del middle._sealed_indexes["vector"]
        query = np.ones(DIM, dtype=np.float32)    # exact in every path
        for segment in (first, middle, last):
            segment.rewrite_vectors("vector", 0, query)
            if segment is not middle:
                index = create_index("IVF_FLAT", MetricType.EUCLIDEAN, DIM,
                                     nlist=16, nprobe=16)
                index.build(segment.column("vector"))
                segment.attach_index("vector", index)
        got = cluster.search("c", query, 3, consistency=EVENTUAL)[0]
        assert got.distances == [0.0] * 3
        assert got.pks == [int(segment.pk_array[0])
                           for segment in (first, middle, last)]
        arena = node._arenas[("c", "vector", MetricType.EUCLIDEAN)]
        assert first in arena.segments and last in arena.segments
        assert middle not in arena.segments
        # All three in the arena, four copies each, and the tie straddles
        # the cut: the one selection keeps the earlier segments' copies,
        # as the merge does.
        for segment in (first, middle, last):
            segment.rewrite_vectors("vector", slice(4), query)
            index = create_index("IVF_FLAT", MetricType.EUCLIDEAN, DIM,
                                 nlist=16, nprobe=16)
            index.build(segment.column("vector"))
            segment.attach_index("vector", index)
        with node_paths(monkeypatch) as paths:
            got = cluster.search("c", query, 5, consistency=EVENTUAL)[0]
        assert [node.name, True] in paths
        assert got.distances == [0.0] * 5
        copies = [set(segment.pk_array[:4].tolist())
                  for segment in (first, middle, last)]
        assert copies[0] < set(got.pks)
        assert len(copies[1] & set(got.pks)) == 1

    def test_mixed_index_types_unindexed_and_growing(self, rng,
                                                     monkeypatch):
        """IVF_FLAT + IVF_PQ + HNSW + unindexed + growing segments on one
        node: the IVF_FLAT ones share the arena, the rest feed the same
        merge from their own searches.  The other node's growing segment
        is a column of its one selection."""
        cluster = sealed_cluster(rng, n=3000, seal=300)
        node = max(cluster.query_coord.live_nodes(),
                   key=lambda n: len(n.sealed_segments_of("c")))
        held = [node.segment("c", sid)
                for sid in node.sealed_segments_of("c")]
        assert len(held) >= 5
        for segment, kind in zip(held[1:], ("IVF_PQ", "HNSW", None)):
            if kind is None:
                del segment._sealed_indexes["vector"]
                continue
            index = create_index(kind, MetricType.EUCLIDEAN, DIM,
                                 **({"nlist": 8, "nprobe": 4, "m": 4}
                                    if kind == "IVF_PQ" else {}))
            index.build(segment.column("vector"))
            segment.attach_index("vector", index)
        cluster.insert("c", rows(rng, range(5000, 5150)))
        cluster.run_for(500)
        for nq in (1, 3, 64):   # every node holds a growing segment
            got = both(cluster, monkeypatch, clustered(rng, nq), 10,
                       selects=lambda other: other is not node and nq == 1)
        arena = node._arenas[("c", "vector", MetricType.EUCLIDEAN)]
        kinds = [type(member).__name__ for member in arena.index.members]
        assert set(kinds) == {"IvfFlatIndex"}
        assert len(kinds) == len(held) - 3
        stage = next(s for s in got[0].profile.node_stages()
                     if s.meta["node"] == node.name)
        paths = [seg.meta["path"] for seg in stage.stages("segment.scan")]
        assert sorted(set(paths)) == ["brute", "growing", "index"]
        assert stage.counters["quantized_comparisons"] > 0
        assert stage.counters["graph_hops"] > 0

    @pytest.mark.parametrize("metric", METRICS)
    def test_quantized_and_graph_probed_members(self, rng, monkeypatch,
                                                metric):
        """IVF_SQ8, IVF_PQ (unit rows under cosine) and IVF_HNSW (a
        graph-navigated bucketer) beside IVF_FLAT: each is searched by its
        own ``Segment.search`` and merged at its node, which selects
        nothing; the arenas hold the IVF_FLAT segments only."""
        cluster = sealed_cluster(rng, metric, n=1500, seal=300)
        kinds = ["IVF_SQ8", "IVF_PQ", "IVF_HNSW"]
        for (node, segment), kind in zip(sealed_segments(cluster), kinds):
            params = {"nlist": 8, "nprobe": 4}
            if kind == "IVF_PQ":
                params["m"] = 4
            index = create_index(kind, metric, DIM, **params)
            index.build(segment.column("vector"))
            segment.attach_index("vector", index)
        mixed = {node.name for node, segment in sealed_segments(cluster)
                 if not isinstance(segment.index_for("vector"), IvfFlatIndex)}
        for nq in (1, 3, 64):
            both(cluster, monkeypatch, clustered(rng, nq), 10,
                 metric=metric,
                 selects=lambda node: nq == 1 and node.name not in mixed)
        assert mixed
        members = [type(member).__name__ for arena in arenas(cluster, metric)
                   if arena is not None for member in arena.index.members]
        assert set(members) == {"IvfFlatIndex"}
        assert len(members) == len(sealed_segments(cluster)) - 3

    def test_replica_scopes_select_a_strict_subset(self, rng, monkeypatch):
        """Hot replicas: ``search_plan`` rotates which holder covers a
        segment per request; the arena covers the node's segments and a
        request scans the in-scope subset — it is not rebuilt per plan."""
        cluster = sealed_cluster(rng, replicas=2, query_nodes=3)
        built = []
        real = SegmentArena.__init__
        monkeypatch.setattr(
            SegmentArena, "__init__",
            lambda self, *a, **kw: built.append(1) or real(self, *a, **kw))
        queries = clustered(rng, 3)
        coord = cluster.query_coord
        scoped = set()

        def same_plan_again():
            coord._plan_rr -= 1

        for _ in range(4):
            plan = coord.search_plan("c")
            same_plan_again()       # a look, not a request
            for node, scope in plan:
                assert scope is not None
                scoped.add((node.name, frozenset(scope)))
                assert scope <= set(node.sealed_segments_of("c"))
            both(cluster, monkeypatch, queries[:1], 10,
                 between=same_plan_again, selects=True)
            same_plan_again()       # both shapes of the request, one plan
            both(cluster, monkeypatch, queries, 10, between=same_plan_again,
                 selects=False)
        assert len(scoped) > len(cluster.query_coord.live_nodes())
        assert any(len(scope) < len(node.sealed_segments_of("c"))
                   for node, scope in plan)
        assert len(built) == len([a for a in arenas(cluster) if a])


@contextlib.contextmanager
def own_searches(monkeypatch):
    """Records the sealed segments searched by their own
    ``Segment.search`` (``own``) and the members handed to
    ``SegmentArena.search`` (``arena``), by segment id; the arena must
    never be handed a member that excludes a row."""
    seen = {"own": [], "arena": []}
    real_own, real_arena = Segment.search, SegmentArena.search

    def search(self, *args, **kwargs):
        if self.is_sealed:
            seen["own"].append(self.segment_id)
        return real_own(self, *args, **kwargs)

    def arena_search(self, members, *args):
        handed = [self.segments[number] for number in members]
        assert not any(segment.num_deleted for segment in handed)
        seen["arena"] += [segment.segment_id for segment in handed]
        return real_arena(self, members, *args)

    with monkeypatch.context() as patch:
        patch.setattr(Segment, "search", search)
        patch.setattr(SegmentArena, "search", arena_search)
        yield seen


class TestExcludingMembersSearchAlone:
    """The arena scans only rows that nothing excludes: a sealed member
    with a deletion or under a filter is searched by its own
    ``Segment.search`` (the one post-filter) and joins the node merge."""

    @pytest.mark.parametrize("nq", [1, 3, 64])
    def test_a_deleting_member(self, rng, monkeypatch, nq):
        """All but five rows of one member deleted: at nq > 1 it searches
        alone on every request; at nq = 1 its own answer would escalate
        to the exact scan, so the selection cannot prove its cut, its
        node falls back and it searches alone there too."""
        cluster = sealed_cluster(rng)
        queries = clustered(rng, nq)
        home, segment = sealed_segments(cluster)[1]
        cluster.delete("c", f"pk in {segment.pk_array[5:].tolist()}")
        cluster.run_for(500)
        assert [seg for _node, seg in sealed_segments(cluster)
                if seg.num_deleted] == [segment]
        with node_paths(monkeypatch) as paths, \
                own_searches(monkeypatch) as seen:
            cluster.search("c", queries, 10, consistency=EVENTUAL)
        assert [took for _name, took in paths] == [
            nq == 1 and name != home.name for name, _took in paths]
        assert seen["own"] == [segment.segment_id]
        assert sorted(seen["arena"]) == sorted(
            seg.segment_id for node, seg in sealed_segments(cluster)
            if seg is not segment and (nq > 1 or node is home))
        both(cluster, monkeypatch, queries, 10,
             selects=lambda node: nq == 1 and node is not home)

    @pytest.mark.parametrize("nq", [1, 3])
    def test_a_filtered_member(self, rng, monkeypatch, nq):
        """Under a filter every sealed member searches alone, whichever
        strategy its plan picks, and the arena is handed nothing."""
        cluster = sealed_cluster(rng)
        queries = clustered(rng, nq)
        with own_searches(monkeypatch) as seen:
            cluster.search("c", queries, 10, consistency=EVENTUAL,
                           expr="price < 7")
        assert sorted(seen["own"]) == sorted(
            segment.segment_id for _node, segment in sealed_segments(cluster))
        assert seen["arena"] == []
        both(cluster, monkeypatch, queries, 10, expr="price < 7",
             selects=False)


# ----------------------------------------------------------------------
# fresh nodes: growing slices, tails and deleting members
# ----------------------------------------------------------------------

#: Rows per slice of the fresh clusters' growing segments.
SLICE = 200


def fresh_cluster(rng, growing, n=3000, query_nodes=2):
    """``n`` rows in sealed, indexed segments of 1000 rows on one shard,
    then ``growing`` more in 50-row inserts: one growing segment, on the
    node that owns the shard, of ``growing // SLICE`` full slices (4-list
    temporary indexes) and the rest as its tail.  Nothing seals while
    idle."""
    config = ManuConfig().with_overrides(
        segment=SegmentConfig(seal_entity_count=1000, slice_size=SLICE,
                              temp_index_nlist=4, seal_idle_ms=1e12),
        log=LogConfig(num_shards=1))
    cluster = ManuCluster(config=config, num_query_nodes=query_nodes)
    cluster.create_collection("c", schema())
    for start in range(0, n, 100):
        cluster.insert("c", rows(rng, range(start, start + 100)))
        cluster.run_for(50)
    cluster.flush("c")
    cluster.create_index("c", "vector", "IVF_FLAT", MetricType.EUCLIDEAN,
                         {"nlist": 16, "nprobe": 4})
    assert cluster.wait_for_indexes("c")
    cluster.run_for(2_000)
    grow(cluster, rng, range(10_000, 10_000 + growing))
    return cluster


def grow(cluster, rng, pks):
    pks = list(pks)
    for start in range(0, len(pks), 50):
        cluster.insert("c", rows(rng, pks[start:start + 50]))
        cluster.run_for(5)
    cluster.run_for(500)


def growing_segment(cluster):
    """``(node, segment)`` of the one growing segment."""
    (found,) = [(node, node.segment("c", sid))
                for node in cluster.query_coord.live_nodes()
                for sid in node.segments_of("c")
                if node.is_growing("c", sid)]
    return found


def first_read(cluster, queries):
    """A search that builds the slice indexes it reads (the one selection
    takes a slice only once a search has built its index)."""
    cluster.search("c", queries, 10, consistency=EVENTUAL)


class TestFreshNodes:
    """A node holding growing segments (full slices and a tail), sealed
    segments waiting for their index, and members with deletions answers
    with one selection — or, where that cannot be proven to be what the
    per-segment loop answers, through it."""

    @pytest.mark.parametrize("nq", [1, 3])
    @pytest.mark.parametrize("growing", [100, 200, 300, 600, 700],
                             ids=["tail", "1-slice", "1-slice-tail",
                                  "3-slices", "3-slices-tail"])
    def test_slices_and_tail(self, rng, monkeypatch, growing, nq):
        cluster = fresh_cluster(rng, growing)
        node, segment = growing_segment(cluster)
        assert segment.num_temp_indexes("vector") == growing // SLICE
        queries = clustered(rng, nq)
        if growing >= SLICE:    # its slices are not built yet
            both(cluster, monkeypatch, queries, 10,
                 selects=lambda other: nq == 1 and other is not node)
        for k in (1, 10, 5000):     # 5000 > rows
            got = both(cluster, monkeypatch, queries, k, selects=nq == 1)
        arena = node._arenas[("c", "vector", MetricType.EUCLIDEAN)]
        assert len(arena.slices.get(segment.segment_id, (None, ()))[1]) \
            == (growing // SLICE if nq == 1 else 0)
        paths = {seg.meta["path"] for stage in got[0].profile.node_stages()
                 for seg in stage.stages("segment.scan")}
        assert paths == {"index", "growing"}

    def test_a_slice_joins_without_deriving_the_arena(self, rng,
                                                      monkeypatch):
        """A slice that fills joins the arena at the first selection after
        a search built its index: the sealed members' derived state is
        taken over (list views, centroid factors), not derived again, and
        their pks are not sorted again."""
        cluster = fresh_cluster(rng, 150)
        node, segment = growing_segment(cluster)
        queries = clustered(rng, 1)
        both(cluster, monkeypatch, queries, 10, selects=True)
        arena = node._arenas[("c", "vector", MetricType.EUCLIDEAN)]
        index, witness = arena.index, arena.distinct_pks
        grow(cluster, rng, range(20_000, 20_100))
        both(cluster, monkeypatch, queries, 10,
             selects=lambda other: other is not node)   # builds slice 0
        both(cluster, monkeypatch, queries, 10, selects=True)
        assert node._arenas[("c", "vector", MetricType.EUCLIDEAN)] is arena
        assert arena.index is not index
        assert arena.index.members[:len(index.members)] == index.members
        assert arena.index.lists.views[:len(index.lists.views)] \
            == index.lists.views
        assert arena.index._centroids[:len(index.members)] \
            == index._centroids
        assert arena.__dict__["distinct_pks"] is witness
        (number,) = arena.slices[segment.segment_id][1]
        assert arena.index.members[number] is \
            segment.built_slice_indexes("vector", MetricType.EUCLIDEAN)[0]

    @pytest.mark.parametrize("nq", [1, 3])
    @pytest.mark.parametrize("where", ["sealed", "slice", "tail"])
    @pytest.mark.parametrize("n_deleted", [3, 40])
    def test_deletions_stay_in(self, rng, monkeypatch, where, n_deleted,
                               nq):
        """``<= k`` and ``> k`` deletions in a sealed member, a slice or the
        tail: the member's deleted rows are ``+inf`` in the block, its
        amplified ``k`` cut proves it kept what it would, and its counters
        (``candidates_pruned`` included) are the per-segment loop's."""
        cluster = fresh_cluster(rng, 500)
        node, segment = growing_segment(cluster)
        queries = clustered(rng, nq)
        first_read(cluster, queries)
        if where == "sealed":
            source = next(seg for _node, seg in sealed_segments(cluster))
            pool = source.pk_array
        elif where == "slice":
            source, pool = segment, segment.pk_array[SLICE:2 * SLICE]
        else:
            source, pool = segment, segment.pk_array[2 * SLICE:]
        doomed = rng.choice(pool, n_deleted, replace=False).tolist()
        cluster.delete("c", f"pk in {doomed}")
        cluster.run_for(500)
        assert source.num_deleted == n_deleted
        got = both(cluster, monkeypatch, queries, 10, selects=nq == 1)
        assert not set(doomed) & {pk for r in got for pk in r.pks}
        assert got[0].profile.totals()["delete_filter_hits"] == n_deleted

    @pytest.mark.parametrize("nq", [1, 3])
    @pytest.mark.parametrize("where", ["sealed", "slice"])
    def test_a_starving_member_takes_the_merge(self, rng, monkeypatch,
                                               where, nq):
        """All but five rows of a member deleted: its own answer would
        escalate to the exact scan, so its node merges; the other node
        still selects."""
        cluster = fresh_cluster(rng, 500)
        node, segment = growing_segment(cluster)
        queries = clustered(rng, nq)
        first_read(cluster, queries)
        if where == "sealed":
            home, source = next((other, seg)
                                for other, seg in sealed_segments(cluster)
                                if other is not node)
            pool = source.pk_array
        else:
            home, source = node, segment
            pool = segment.pk_array[:SLICE]
        cluster.delete("c", f"pk in {pool[5:].tolist()}")
        cluster.run_for(500)
        got = both(cluster, monkeypatch, queries, 10,
                   selects=lambda other: nq == 1 and other is not home)
        stage = next(s for s in got[0].profile.node_stages()
                     if s.meta["node"] == home.name)
        assert sum(seg.counters["brute_scans"]
                   for seg in stage.stages("segment.scan")) > 0

    @pytest.mark.parametrize("nq", [1, 3])
    def test_a_pk_inserted_twice_takes_the_merge(self, rng, monkeypatch,
                                                 nq):
        """The same pk appended twice to the growing segment: its node
        dedups in the merge; the witness is checked again for every new
        row, and a copy in a sealed segment is found too."""
        cluster = fresh_cluster(rng, 300)
        node, segment = growing_segment(cluster)
        queries = clustered(rng, nq)
        first_read(cluster, queries)
        both(cluster, monkeypatch, queries, 10, selects=nq == 1)
        again = int(segment.pk_array[0])     # a copy near the query
        cluster.insert("c", rows(rng, [again], queries[:1] + np.float32(1e-3)))
        cluster.run_for(500)
        got = both(cluster, monkeypatch, queries, 10,
                   selects=lambda other: nq == 1 and other is not node)
        assert got[0].pks.count(again) == 1
        # A pk that a sealed segment on the node holds.
        fresh = fresh_cluster(rng, 300)
        node, _segment = growing_segment(fresh)
        held = next(seg for other, seg in sealed_segments(fresh)
                    if other is node)
        first_read(fresh, queries)
        fresh.insert("c", rows(rng, [int(held.pk_array[0])]))
        fresh.run_for(500)
        both(fresh, monkeypatch, queries, 10,
             selects=lambda other: nq == 1 and other is not node)

    def test_an_upserted_pk_is_looked_up_once_per_append(self, rng,
                                                         monkeypatch):
        """An upsert leaves its pk held twice on the node (the old row,
        deleted, in a sealed segment and the new one in the growing
        segment): the node merges, and the lookup that found the copy is
        not made again until more rows arrive."""
        cluster = fresh_cluster(rng, 300)
        node, segment = growing_segment(cluster)
        queries = clustered(rng, 1)
        first_read(cluster, queries)
        held = next(seg for other, seg in sealed_segments(cluster)
                    if other is node)
        cluster.upsert("c", rows(rng, [int(held.pk_array[0])]))
        cluster.run_for(500)
        assert held.num_deleted == 1
        looked = []
        real = Segment.holds_any_pk

        def holds_any_pk(self, pks):
            looked.append(self)
            return real(self, pks)

        monkeypatch.setattr(Segment, "holds_any_pk", holds_any_pk)

        def merges(other):
            return other is not node

        both(cluster, monkeypatch, queries, 10, selects=merges)
        first = len(looked)
        assert first > 0
        for _ in range(3):
            both(cluster, monkeypatch, queries, 10, selects=merges)
        assert len(looked) == first
        grow(cluster, rng, range(40_000, 40_016))
        both(cluster, monkeypatch, queries, 10, selects=merges)
        assert len(looked) > first

    def test_a_sealed_segment_waiting_for_its_index(self, rng, monkeypatch):
        """A loaded segment without its index is an exact column of the
        selection, deletions and all, in segment order among the others
        (ties straddle it)."""
        cluster = fresh_cluster(rng, 300)
        node = max(cluster.query_coord.live_nodes(),
                   key=lambda n: len(n.sealed_segments_of("c")))
        sealed = node.segment("c", node.sealed_segments_of("c")[0])
        del sealed._sealed_indexes["vector"]
        cluster.delete("c", f"pk in {sealed.pk_array[:7].tolist()}")
        cluster.run_for(500)
        queries = clustered(rng, 3)
        first_read(cluster, queries)
        for nq in (1, 3):
            got = both(cluster, monkeypatch, queries[:nq], 10,
                       selects=nq == 1)
        stage = next(s for s in got[0].profile.node_stages()
                     if s.meta["node"] == node.name)
        assert "brute" in {seg.meta["path"]
                           for seg in stage.stages("segment.scan")}
        # Four copies of one vector in it and in its neighbours by id:
        # the cut keeps the earlier segments' copies, as the merge does.
        query = np.ones(DIM, dtype=np.float32)
        held = [node.segment("c", sid) for sid in node.segments_of("c")]
        for segment in held:
            rows_at = np.flatnonzero(~segment.deletions(
                0, segment.num_rows))[-4:]
            segment.rewrite_vectors("vector", rows_at, query)
            if segment.is_sealed and segment is not sealed:
                index = create_index("IVF_FLAT", MetricType.EUCLIDEAN, DIM,
                                     nlist=16, nprobe=16)
                index.build(segment.column("vector"))
                segment.attach_index("vector", index)
        first_read(cluster, query)
        with node_paths(monkeypatch) as paths:
            got = cluster.search("c", query, 6, consistency=EVENTUAL)[0]
        assert [node.name, True] in paths
        assert got.distances == [0.0] * 6
        copies = [set(segment.pk_array[np.flatnonzero(
            (segment.column("vector") == query).all(axis=1))].tolist())
            for segment in held]
        assert copies[0] <= set(got.pks)

    def test_twin_clusters_mixed_history(self, monkeypatch):
        """Twin clusters driven through the same mixed history — 16-row
        inserts, a STRONG read of the newest row after each, two preloaded
        pks deleted every eighth step — one as shipped and one through
        the reference: results, every counter, latencies and span windows
        equal to the last digit; most node scans select once, and the
        scans that do not are the first reads of newly full slices."""
        twins = []
        for reference in (False, True):
            rng = np.random.default_rng(11)
            cluster = fresh_cluster(rng, 0)
            seen, took = [], []
            context = former_path(monkeypatch) if reference \
                else node_paths(monkeypatch)
            with context as paths:
                for step in range(56):
                    pks = range(30_000 + 16 * step, 30_016 + 16 * step)
                    batch = rows(rng, pks)
                    cluster.insert("c", batch)
                    out = cluster.search(
                        "c", batch["vector"][-1], 10, explain=True,
                        consistency=ConsistencyLevel.STRONG)[0]
                    cluster.run_for(1)
                    if step % 8 == 7:
                        cluster.delete("c", f"pk in {[step, step + 500]}")
                    profile = out.profile
                    assert profile.verify() == []
                    seen.append((out.latency_ms, out.distances,
                                 stage_view(profile.root),
                                 profile.totals()))
                    took.append(out.pks)
                if not reference:
                    selected = [t for _name, t in paths]
            spans = [(s.name, s.component, s.start_ms, s.end_ms, s.tags)
                     for tid in cluster.tracer.trace_ids()
                     for s in cluster.tracer.spans(tid)
                     if s.name.startswith(("proxy.search", "query_node.",
                                           "segment.scan", "proxy.merge"))]
            twins.append((seen, took, spans, cluster.now(), [
                (node.searches_served, node.service_ms_total,
                 node.busy_until_ms)
                for node in cluster.query_coord.live_nodes()]))
        assert twins[0][0] == twins[1][0]
        assert twins[0][2] == twins[1][2] and twins[0][3:] == twins[1][3:]
        for got, want, (_l, dists, *_rest) in zip(twins[0][1], twins[1][1],
                                                  twins[0][0]):
            runs = np.split(np.arange(len(dists)),
                            np.flatnonzero(np.diff(dists) != 0) + 1)
            for run in runs[:-1]:
                assert {got[i] for i in run} == {want[i] for i in run}
        # 56 steps, 896 rows: slices fill at 200, 400, 600 and 800.
        assert selected.count(False) == 4
        assert len(selected) == 2 * 56


# ----------------------------------------------------------------------
# never stale
# ----------------------------------------------------------------------

class TestArenaIsNeverStale:
    """Each mutation of what the arena is derived from, between two
    searches that are each compared with the reference loop."""

    def test_release_and_load(self, rng, monkeypatch):
        cluster = sealed_cluster(rng)
        queries = clustered(rng, 3)
        before = both(cluster, monkeypatch, queries, 10)
        node, segment = sealed_segments(cluster)[0]
        sid = segment.segment_id
        assert node.release_segment("c", sid)
        after = both(cluster, monkeypatch, queries, 10)
        held = node._arenas[("c", "vector", MetricType.EUCLIDEAN)]
        assert sid not in held.slot
        assert after[0].segments_searched == before[0].segments_searched - 1
        # Loaded again (no index yet: brute, an exact column of the one
        # selection of one query), then indexed again.
        node.load_segment("c", sid)
        unindexed = both(cluster, monkeypatch, queries, 10, selects=False)
        both(cluster, monkeypatch, queries[:1], 10, selects=True)
        assert sid not in node._arenas[
            ("c", "vector", MetricType.EUCLIDEAN)].slot
        route = cluster.index_coord.index_route("c", sid, "vector")
        node.attach_index("c", sid, "vector", route["path"])
        again = both(cluster, monkeypatch, queries, 10, selects=False)
        both(cluster, monkeypatch, queries[:1], 10, selects=True)
        assert sid in node._arenas[
            ("c", "vector", MetricType.EUCLIDEAN)].slot
        for a, b, c in zip(before, unindexed, again):
            assert a.pks == c.pks and a.distances == c.distances
            assert b.segments_searched == a.segments_searched

    def test_reattached_rebuilt_index(self, rng, monkeypatch):
        """Same segment, same id, another index object (other lists)."""
        cluster = sealed_cluster(rng)
        queries = clustered(rng, 3)
        both(cluster, monkeypatch, queries, 10)
        node, segment = sealed_segments(cluster)[0]
        old = node._arenas[("c", "vector", MetricType.EUCLIDEAN)]
        rebuilt = IvfFlatIndex(MetricType.EUCLIDEAN, DIM, nlist=5,
                               nprobe=5, seed=3)
        rebuilt.build(segment.column("vector"))
        segment.attach_index("vector", rebuilt)
        both(cluster, monkeypatch, queries, 10)
        new = node._arenas[("c", "vector", MetricType.EUCLIDEAN)]
        assert new is not old
        assert new.index.members[new.slot[segment.segment_id]] is rebuilt

    def test_deletions_need_no_rebuild(self, rng, monkeypatch):
        cluster = sealed_cluster(rng)
        queries = clustered(rng, 3)
        first = both(cluster, monkeypatch, queries, 10)
        held = arenas(cluster)
        cluster.delete("c", f"pk in {first[0].pks[:3]}")
        cluster.run_for(500)
        second = both(cluster, monkeypatch, queries, 10, selects=False)
        assert not set(first[0].pks[:3]) & set(second[0].pks)
        both(cluster, monkeypatch, queries[:1], 10, selects=True)
        assert all(a is b for a, b in zip(held, arenas(cluster)))

    def test_growing_to_sealed_handoff(self, rng, monkeypatch):
        cluster = sealed_cluster(rng)
        queries = clustered(rng, 3)
        both(cluster, monkeypatch, queries, 10)
        cluster.insert("c", rows(rng, range(9000, 9250)))
        cluster.run_for(500)
        growing = both(cluster, monkeypatch, queries, 10, selects=False)
        both(cluster, monkeypatch, queries[:1], 10, selects=True)
        paths = {seg.meta["path"]
                 for node in growing[0].profile.node_stages()
                 for seg in node.stages("segment.scan")}
        assert paths == {"index", "growing"}
        members = sum(len(a.segments) for a in arenas(cluster))
        cluster.flush("c")
        assert cluster.wait_for_indexes("c")
        cluster.run_for(2_000)
        sealed = both(cluster, monkeypatch, queries, 10, selects=False)
        both(cluster, monkeypatch, queries[:1], 10, selects=True)
        assert {seg.meta["path"]
                for node in sealed[0].profile.node_stages()
                for seg in node.stages("segment.scan")} == {"index"}
        assert sum(len(a.segments) for a in arenas(cluster)) > members
        assert cluster.collection_row_count("c") == 2100 + 250

    def test_fail_and_recovery(self, rng, monkeypatch):
        cluster = sealed_cluster(rng)
        queries = clustered(rng, 3)
        before = both(cluster, monkeypatch, queries, 10)
        victim = cluster.query_coord.live_nodes()[0]
        cluster.fail_query_node(victim.name)
        assert victim._arenas == {}
        cluster.run_for(5_000)
        after = both(cluster, monkeypatch, queries, 10, selects=False)
        both(cluster, monkeypatch, queries[:1], 10, selects=True)
        (survivor,) = cluster.query_coord.live_nodes()
        assert len(survivor._arenas[
            ("c", "vector", MetricType.EUCLIDEAN)].segments) \
            == len(sealed_segments(cluster))
        for a, b in zip(before, after):
            assert a.pks == b.pks and a.distances == b.distances

    def test_scale_out(self, rng, monkeypatch):
        cluster = sealed_cluster(rng)
        queries = clustered(rng, 3)
        before = both(cluster, monkeypatch, queries, 10)
        held = sum(len(a.segments) for a in arenas(cluster))
        cluster.add_query_node()
        cluster.run_for(5_000)
        after = both(cluster, monkeypatch, queries, 10)
        assert len(cluster.query_coord.live_nodes()) == 3
        now = [a for a in arenas(cluster) if a is not None]
        assert len(now) == 3
        assert sum(len(a.segments) for a in now) == held
        for a, b in zip(before, after):
            assert a.pks == b.pks and a.distances == b.distances


# ----------------------------------------------------------------------
# the index-level arena
# ----------------------------------------------------------------------

@pytest.fixture(scope="module", params=METRICS, ids=lambda m: m.value)
def codec_arena(request):
    """``(metric, members)``: one arena's worth of built flat k-means
    indexes of both types that join one, the last smaller than its
    nlist."""
    rng = np.random.default_rng(7)
    members = []
    for kind, n, params in (("IVF_FLAT", 400, {}), ("COMPOSITE", 300, {}),
                            ("IVF_FLAT", 350, {}), ("COMPOSITE", 250, {}),
                            ("IVF_FLAT", 9, {})):
        index = create_index(kind, request.param, DIM, nlist=16, nprobe=5,
                             **params)
        index.build(clustered(rng, n))
        members.append(index)
    return request.param, members


def assert_selects_the_merged_answer(arena, queries, k, scope, ids, dists,
                                     stats):
    """``search(together=True)`` of one query over ``scope`` answers what
    the members' answers ``(ids, dists)`` merge into — distances bit for
    bit, ids up to exact ties — with the same work counters (``stats``),
    and its rows scored give each member's hits."""
    counted = [SearchStats() for _ in scope]
    got_ids, got_dists, rows, pruned = arena.search(queries, k, scope,
                                                    counted, together=True)
    assert not pruned.any()
    want = merge_topk([HitBlock(i, d) for i, d in zip(ids, dists)], k)
    width = got_dists.shape[1]
    assert not np.isfinite(want.dists[:, width:]).any()
    np.testing.assert_array_equal(got_dists.view(np.int32),
                                  want.dists[:, :width].view(np.int32))
    assert_batches_equal_up_to_ties(HitBlock(got_ids, got_dists), want, k)
    assert [entry.as_dict() for entry in counted] \
        == [entry.as_dict() for entry in stats]
    np.testing.assert_array_equal(np.minimum(rows, k),
                                  np.isfinite(dists).sum(axis=(1, 2)))


class TestArenaIndex:
    @pytest.mark.parametrize("metric", METRICS)
    def test_members_answer_as_on_their_own(self, rng, metric):
        """Ids, distances and work counters of every member, bit for bit;
        the probe matrix of the one coarse step is the members' own."""
        blocks = [clustered(rng, n) for n in (400, 500, 7, 300)]
        members = []
        for block in blocks:
            index = IvfFlatIndex(metric, DIM, nlist=16, nprobe=4)
            index.build(block)
            members.append(index)
        arena = ArenaIndex(members)
        assert arena.ntotal == 1207 and arena.is_built
        for nq in (1, 2, 3, 8, 64):
            queries = clustered(rng, nq)
            stats = [SearchStats() for _ in members]
            ids, dists = arena.search(queries, 10, stats=stats)
            probes = arena._probe([0, 1, 2, 3], queries,
                                  np.zeros((len(members), len(STAT_FIELDS)),
                                           dtype=np.int64))
            for number, member in enumerate(members):
                want_ids, want_dists = member.search(queries, 10)
                np.testing.assert_array_equal(dists[number], want_dists)
                np.testing.assert_array_equal(
                    ids[number],
                    np.where(want_ids < 0, -1,
                             want_ids + arena.lists.row_base[number]))
                assert stats[number].as_dict() == member.stats.as_dict()
                own = member._probe(queries, 10, None)
                base = arena.lists.list_base[number]
                np.testing.assert_array_equal(
                    probes[number, :, :own.shape[1]] - base, own)
                assert (probes[number, :, own.shape[1]:] - base
                        == member.effective_nlist).all()
            ids, dists = arena.search(queries, 10, scope=[1, 3])
            for at, number in enumerate([1, 3]):
                np.testing.assert_array_equal(
                    dists[at], members[number].search(queries, 10)[1])

    @pytest.mark.parametrize("metric", METRICS)
    def test_a_member_outside_the_coarse_stack(self, rng, metric):
        """At one query the coarse step is one GEMV over the members whose
        nlist is a multiple of 4, stacked; a 33-row member of nlist 33
        beside 64-list ones keeps its own call.  In every scope — the
        stack whole, cut around the outsider or holding a member out of
        scope, the outsider alone — each member probes, answers and
        counts exactly as on its own, and the one selection is their
        answers merged."""
        members = []
        for n, nlist in ((700, 64), (33, 64), (650, 64), (500, 16)):
            index = IvfFlatIndex(metric, DIM, nlist=nlist, nprobe=8)
            index.build(clustered(rng, n))
            members.append(index)
        assert [member.effective_nlist for member in members] \
            == [64, 33, 64, 16]
        arena = ArenaIndex(members)
        assert [at is None for at in arena._stacked_at] \
            == [False, True, False, False]
        for scope in ([0, 1, 2, 3], [0, 1], [1, 2], [0, 2], [0, 3], [1]):
            for _ in range(4):
                queries = clustered(rng, 1)
                stats = [SearchStats() for _ in scope]
                ids, dists = arena.search(queries, 10, scope=scope,
                                          stats=stats)
                probes = arena._probe(scope, queries,
                                      np.zeros((len(scope), len(STAT_FIELDS)),
                                               dtype=np.int64))
                for at, number in enumerate(scope):
                    member = members[number]
                    want_ids, want_dists = member.search(queries, 10)
                    np.testing.assert_array_equal(
                        dists[at].view(np.int32), want_dists.view(np.int32))
                    assert_batches_equal_up_to_ties(
                        HitBlock(ids[at], dists[at]),
                        HitBlock(np.where(
                            want_ids < 0, -1,
                            want_ids + arena.lists.row_base[number]),
                            want_dists),
                        10)
                    assert stats[at].as_dict() == member.stats.as_dict()
                    own = member._probe(queries, 10, None)
                    np.testing.assert_array_equal(
                        probes[at, :, :own.shape[1]]
                        - arena.lists.list_base[number], own)
                assert_selects_the_merged_answer(arena, queries, 10, scope,
                                                 ids, dists, stats)

    @pytest.mark.parametrize("metric", METRICS)
    def test_a_narrow_member_probes_its_own_first_lists(self, rng, metric,
                                                        monkeypatch):
        """A member that probes 2 lists (a slice's temporary index) beside
        members that probe 8: its slots are the first 2 of the scope's 8
        ranked ones, so at one query — one selection or not — it scans its
        own nearest lists, not whichever 2 of the 8 nearest a selection
        left first.  ``argpartition`` is made to leave its first ``kth``
        slots reversed (which its contract allows), so that this does not
        hang on the order one build of it happens to leave them in."""
        real = np.argpartition

        def reversing(a, kth, axis=-1, **kwargs):
            part = real(a, kth, axis=axis, **kwargs)
            if isinstance(kth, (int, np.integer)) and kth > 1:
                head = np.moveaxis(part, axis, -1)[..., :kth]
                head[...] = head[..., ::-1].copy()
            return part

        monkeypatch.setattr(np, "argpartition", reversing)
        members = []
        for n, nlist, nprobe in ((700, 64, 8), (600, 16, 2), (650, 64, 8)):
            index = IvfFlatIndex(metric, DIM, nlist=nlist, nprobe=nprobe)
            index.build(clustered(rng, n))
            members.append(index)
        arena = ArenaIndex(members)
        for _ in range(6):
            queries = clustered(rng, 1)
            stats = [SearchStats() for _ in members]
            ids, dists = arena.search(queries, 10, stats=stats)
            probes = arena._probe([0, 1, 2], queries,
                                  np.zeros((len(members), len(STAT_FIELDS)),
                                           dtype=np.int64))
            for number, member in enumerate(members):
                want_ids, want_dists = member.search(queries, 10)
                np.testing.assert_array_equal(
                    dists[number].view(np.int32), want_dists.view(np.int32))
                assert stats[number].as_dict() == member.stats.as_dict()
                own = member._probe(queries, 10, None)
                np.testing.assert_array_equal(
                    probes[number, :, :own.shape[1]]
                    - arena.lists.list_base[number], own)
            assert_selects_the_merged_answer(arena, queries, 10, [0, 1, 2],
                                             ids, dists, stats)

    @pytest.mark.parametrize("nq", [1, 2, 64])
    def test_every_codec_and_scope_answer_as_on_their_own(
            self, codec_arena, nq):
        """The kernel contract at every block height, one query included:
        both index types an arena holds (``IVF_FLAT`` and ``COMPOSITE``
        ``kmeans x none``), a member smaller than its nlist, ``k`` above a
        member's row count, partial scopes.  Every member answers with its
        own ``search``'s ids, distances bit for bit, and work counters;
        one query is also selected once, the members' answers merged."""
        metric, members = codec_arena
        arena = ArenaIndex(members)
        queries = clustered(np.random.default_rng(nq), nq)
        k = 12
        selected = 0
        assert members[-1].ntotal < k
        assert members[-1].effective_nlist < members[-1].nlist
        for scope in (None, [1, 3], [2]):
            numbers = range(len(members)) if scope is None else scope
            stats = [SearchStats() for _ in numbers]
            ids, dists = arena.search(queries, k, scope=scope, stats=stats)
            assert ids.shape == dists.shape == (len(numbers), nq, k)
            for at, number in enumerate(numbers):
                member = members[number]
                want_ids, want_dists = member.search(queries, k)
                np.testing.assert_array_equal(
                    dists[at].view(np.int32), want_dists.view(np.int32))
                want_ids = np.where(want_ids < 0, -1,
                                    want_ids + arena.lists.row_base[number])
                assert_batches_equal_up_to_ties(
                    HitBlock(ids[at], dists[at]),
                    HitBlock(want_ids, want_dists), k)
                assert (ids[at][np.isinf(dists[at])] == -1).all()
                assert stats[at].as_dict() == member.stats.as_dict()
            # One selection of one query, be the pass one the node would
            # select from or not.
            if nq == 1:
                selected += arena.scans_once(list(numbers))
                assert_selects_the_merged_answer(
                    arena, queries, k, list(numbers), ids, dists, stats)
            else:
                with pytest.raises(ValueError, match="one query"):
                    arena.search(queries, k, scope, together=True)
        assert bool(selected) is (nq == 1)  # the one-member scope at least

    @pytest.mark.parametrize("metric", METRICS)
    def test_one_query_is_bounded_by_its_compact_row(self, rng, metric):
        """One query's row is laid compact (``ListArena._one_row``), so
        ``scans_once`` bounds a scope by what that row can hold, the sum
        of each member's width times its widest list, not by the padded
        block: a member of one wide list beside members probing 8 narrow
        lists each would be refused by the padded bound, and is admitted
        by the compact one, selected once with the merged answer and
        counters."""
        wide = IvfFlatIndex(metric, DIM, nlist=1, nprobe=1)
        wide.build(clustered(rng, 3000))
        members = [wide]
        for _ in range(5):
            index = IvfFlatIndex(metric, DIM, nlist=16, nprobe=8)
            index.build(clustered(rng, 300))
            members.append(index)
        arena = ArenaIndex(members)
        scope = list(range(len(members)))
        facts = arena._scope(scope)
        bound = min(ivf._CHUNK_FROM, ivf._SCAN_BLOCK_FLOATS)
        padded = len(scope) * facts.width * max(arena.lists.widest)
        assert padded > bound >= facts.compact
        assert arena.scans_once(scope)
        for k in (1, 10, 100):
            queries = clustered(rng, 1)
            stats = [SearchStats() for _ in scope]
            ids, dists = arena.search(queries, k, scope, stats)
            assert_selects_the_merged_answer(arena, queries, k, scope, ids,
                                             dists, stats)

    def test_one_selection_keeps_the_earlier_members_ties(self, rng):
        """Four copies of one vector in each of three members: wherever
        ``k`` cuts the run of equal distances, the one selection keeps
        the earlier members' copies and ranks them first, as merging
        their answers does."""
        query = clustered(rng, 1)
        members = []
        for _ in range(3):
            rows = clustered(rng, 300)
            rows[[5, 50, 150, 250]] = query
            index = IvfFlatIndex(MetricType.EUCLIDEAN, DIM, nlist=16,
                                 nprobe=16)
            index.build(rows)
            members.append(index)
        arena = ArenaIndex(members)
        copies = np.array([[base + row for row in (5, 50, 150, 250)]
                           for base in arena.lists.row_base[:3]])
        for k in range(1, 13):
            ids, dists, _rows, _pruned = arena.search(query, k,
                                                      together=True)
            assert (dists == 0).all()
            taken = np.isin(copies, ids[0]).sum(axis=1).tolist()
            assert taken == [min(4, max(0, k - 4 * m)) for m in range(3)]
            assert ids[0].tolist() == sorted(ids[0].tolist())

    def test_a_deleted_member_cut(self, rng):
        """A member with excluded rows passes the one selection only where
        the ``asked`` cut of its own answer is decided by the scores: the
        excluded rows inside the cut are counted as pruned, a cut that
        splits a tie holding an excluded row declines, and so does a cut
        that leaves fewer than ``k`` live rows while ``asked`` is below
        the member's rows."""
        query = clustered(rng, 1)
        rows = clustered(rng, 300) + np.float32(50.0)   # far away
        near = np.linspace(0.1, 0.5, 5, dtype=np.float32)[:, None]
        rows[:5] = query + near          # ranks 0..4
        rows[5] = rows[6] = query + np.float32(0.3) + 1e-3 * np.arange(
            rows.shape[1], dtype=np.float32)    # a tie between ranks
        index = IvfFlatIndex(MetricType.EUCLIDEAN, DIM, nlist=4, nprobe=4)
        index.build(rows)
        arena = ArenaIndex([index])
        ids, dists = index.search(query, 300)
        tied = dists[0][np.isin(ids[0], [5, 6])]
        assert tied[0] == tied[1]
        at = int(np.flatnonzero(np.isin(ids[0], [5, 6]))[0])

        def select(dead, k, asked):
            excluded = np.zeros(300, dtype=bool)
            excluded[dead] = True
            return arena.search(query, k, together=True,
                                cuts={0: (excluded, asked)})

        found = select([ids[0, 0]], 3, 4)       # the best row deleted
        assert found is not None and found[3].tolist() == [1]
        assert ids[0, 0] not in found[0]
        # The cut at ``at + 1`` splits the tie, which holds row 6.
        assert select([6], 3, at + 1) is None
        assert select([6], 3, at + 2) is not None      # the tie inside
        # Every live row of the first ``asked`` is needed, and one is
        # missing: the post-filter would escalate.
        assert select(ids[0, :2].tolist(), 3, 4) is None
        assert select(ids[0, :2].tolist(), 3, 300) is not None

    def test_empty_block_and_scope(self, rng):
        members = []
        for n in (300, 200):
            index = IvfFlatIndex(MetricType.EUCLIDEAN, DIM, nlist=8)
            index.build(clustered(rng, n))
            members.append(index)
        arena = ArenaIndex(members)
        ids, dists = arena.search(np.zeros((0, DIM), np.float32), 5)
        assert ids.shape == dists.shape == (2, 0, 5)
        assert ids.dtype == np.int64 and dists.dtype == np.float32
        stats = []
        ids, dists = arena.search(clustered(rng, 3), 5, scope=[],
                                  stats=stats)
        assert ids.shape == dists.shape == (0, 3, 5)
        for scope in ([1, 0], [0, 0], [0, 2], [-1]):
            with pytest.raises(ValueError, match="ascending, each once"):
                arena.search(clustered(rng, 3), 5, scope=scope)

    def test_refuses_what_it_cannot_hold(self, rng):
        data = clustered(rng, 200)
        flat = IvfFlatIndex(MetricType.EUCLIDEAN, DIM, nlist=4)
        flat.build(data)
        other = IvfFlatIndex(MetricType.INNER_PRODUCT, DIM, nlist=4)
        other.build(data)
        for kind in ("HNSW", "FLAT", "SSD", "IMI", "SQ8"):
            index = create_index(kind, MetricType.EUCLIDEAN, DIM)
            index.build(data)
            assert not ArenaIndex.admits(index)
            with pytest.raises(IndexBuildError):
                ArenaIndex([flat, index])
        assert not ArenaIndex.admits(
            IvfFlatIndex(MetricType.EUCLIDEAN, DIM))      # not built
        assert ArenaIndex.admits(flat) and ArenaIndex.admits(other)
        with pytest.raises(IndexBuildError, match="inner_product"):
            ArenaIndex([flat, other])
        with pytest.raises(IndexBuildError):
            ArenaIndex([flat]).build(data)

    @pytest.mark.parametrize("metric", METRICS)
    def test_only_flat_kmeans_members_join(self, rng, metric):
        """``IVF_FLAT`` and ``COMPOSITE`` ``kmeans x none`` join an arena.
        A quantized codec, a graph-navigated or (Euclidean-only) IMI
        bucketer — and so the unit-row lists of ``IVF_PQ`` under cosine —
        do not: ``ArenaIndex``
        refuses each, alone or beside a flat member, and a sealed segment
        indexed so is not admitted to its node's arena."""
        cluster = sealed_cluster(rng, metric, n=600)
        _node, segment = sealed_segments(cluster)[0]
        data = segment.column("vector")
        flat = segment.index_for("vector")
        composite = create_index("COMPOSITE", metric, DIM, nlist=8)
        composite.build(data)
        assert ArenaIndex([flat, composite]).ntotal == 2 * len(data)
        assert SegmentArena.admits(segment, "vector", metric)
        refused = [("IVF_SQ8", {}), ("IVF_PQ", {"m": 4}), ("IVF_HNSW", {}),
                   *(("COMPOSITE", {"bucketer": bucketer,
                                    "compressor": compressor})
                     for bucketer, compressor in (
                         ("kmeans", "sq"), ("kmeans", "pq"),
                         ("kmeans", "rq"), ("graph", "none"),
                         *((("imi", "none"),)
                           if metric is MetricType.EUCLIDEAN else ())))]
        for kind, params in refused:
            index = create_index(kind, metric, DIM, nlist=8, **params)
            index.build(data)
            assert not ArenaIndex.admits(index), (kind, params)
            for members in ([index], [flat, index]):
                with pytest.raises(IndexBuildError):
                    ArenaIndex(members)
            segment.attach_index("vector", index)
            assert not SegmentArena.admits(segment, "vector", metric)
        segment.attach_index("vector", composite)
        assert SegmentArena.admits(segment, "vector", metric)

    def test_arena_is_keyed_by_metric_and_asserts_it(self, rng):
        cluster = sealed_cluster(rng, MetricType.INNER_PRODUCT, n=600)
        node, segment = sealed_segments(cluster)[0]
        assert not SegmentArena.admits(segment, "vector",
                                       MetricType.EUCLIDEAN)
        with pytest.raises(ValueError, match="euclidean"):
            SegmentArena("vector", MetricType.EUCLIDEAN, [segment])
        assert node._arena("c", "vector", MetricType.EUCLIDEAN) is None
        assert node._arena("c", "vector",
                           MetricType.INNER_PRODUCT) is not None


# ----------------------------------------------------------------------
# the chunk grid
# ----------------------------------------------------------------------

W = ivf._CHUNK_WIDTH

#: ``(index type, its lists' sizes, params)`` of one arena: sizes around
#: the chunk width, empty lists, and lists spanning many chunks.
GRID_MEMBERS = (
    ("IVF_FLAT", (0, 1, W - 1, W, W + 1, 2 * W, 2 * W + 1, 10 * W + 3), {}),
    ("COMPOSITE", (2 * W + 1, W, 0, 1, 3 * W), {}),
    ("IVF_FLAT", (W + 1, 6 * W + 5, W - 1, 0), {}),
    ("COMPOSITE", (1, W, W + 1, 0, 2 * W), {}),
    ("IVF_FLAT", (3, 0, 2), {"nprobe": 1}),
)


def sized_index(kind, metric, sizes, rng, params):
    """A built index of ``kind`` whose lists hold exactly ``sizes`` rows
    (its bucketer still trains on the rows, and probes by what it
    learnt); every list is probed unless ``params`` says otherwise."""
    index = create_index(kind, metric, DIM, nlist=len(sizes),
                         **{"nprobe": len(sizes), **params})
    fit = index.bucketer.fit
    index.bucketer.fit = lambda data: (
        fit(data), np.repeat(np.arange(len(sizes)), sizes))[1]
    index.build(clustered(rng, sum(sizes)))
    del index.bucketer.fit
    np.testing.assert_array_equal(index.list_sizes(), sizes)
    return index


@pytest.fixture(scope="module", params=METRICS, ids=lambda m: m.value)
def grid_arena(request):
    """``(metric, members)`` of ``GRID_MEMBERS``."""
    rng = np.random.default_rng(11)
    return request.param, [sized_index(kind, request.param, sizes, rng,
                                       params)
                           for kind, sizes, params in GRID_MEMBERS]


@pytest.fixture
def every_pass_chunked(monkeypatch):
    """Every pass laid out in chunks (where that is smaller); counts the
    grids laid out."""
    grids = []
    real = ivf._ChunkGrid.of

    def of(*args):
        grid = real(*args)
        grids.append(grid)
        return grid

    monkeypatch.setattr(ivf, "_CHUNK_FROM", 0)
    monkeypatch.setattr(ivf._ChunkGrid, "of", of)
    return grids


def assert_members_answer_alone(arena, members, queries, k, scope):
    """Every member in ``scope`` answers from the arena as on its own:
    distances bit for bit, ids up to exact ties, work counters."""
    numbers = range(len(members)) if scope is None else scope
    stats = [SearchStats() for _ in numbers]
    ids, dists = arena.search(queries, k, scope=scope, stats=stats)
    for at, number in enumerate(numbers):
        member = members[number]
        want_ids, want_dists = member.search(queries, k)
        np.testing.assert_array_equal(dists[at].view(np.int32),
                                      want_dists.view(np.int32))
        want_ids = np.where(want_ids < 0, -1,
                            want_ids + arena.lists.row_base[number])
        assert_batches_equal_up_to_ties(HitBlock(ids[at], dists[at]),
                                        HitBlock(want_ids, want_dists), k)
        assert (ids[at][np.isinf(dists[at])] == -1).all()
        assert stats[at].as_dict() == member.stats.as_dict()


class TestChunkGrid:
    @pytest.mark.parametrize("nq", [1, 3, 64])
    @pytest.mark.parametrize("k", [3, W, 2 * W + 3, 1200],
                             ids=["below-W", "W", "above-W", "above-rows"])
    @pytest.mark.parametrize("scope", [None, [1, 3], [2]],
                             ids=["all", "1-3", "2"])
    def test_members_answer_as_on_their_own(self, grid_arena,
                                            every_pass_chunked, nq, k,
                                            scope):
        """Lists of 0, 1, W - 1, W, W + 1, 2W, 2W + 1 rows and lists of
        many chunks, both index types an arena holds, k below, at and
        above the chunk width and above every member's rows."""
        metric, members = grid_arena
        assert 1200 > max(member.ntotal for member in members)
        queries = clustered(np.random.default_rng(nq), nq)
        assert_members_answer_alone(ArenaIndex(members), members, queries,
                                    k, scope)
        assert any(grid is not None for grid in every_pass_chunked)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("kind, params", [
        ("IVF_SQ8", {}), ("IVF_PQ", {"m": 4}), ("IVF_HNSW", {})])
    def test_an_index_outside_the_arena_alone(self, rng, monkeypatch,
                                              metric, kind, params):
        """A quantized or graph-navigated index scans its own lists (the
        arena of one member): laid out in chunks
        it answers as with the padded block — distances bit for bit, ids
        up to exact ties, the same work counters."""
        index = sized_index(kind, metric, (2 * W + 1, W, 0, 1, 3 * W), rng,
                            params)
        queries = clustered(rng, 64)
        answers, grids = [], []
        real = ivf._ChunkGrid.of
        for chunk_from in (1 << 62, 0):
            with monkeypatch.context() as patch:
                patch.setattr(ivf, "_CHUNK_FROM", chunk_from)
                patch.setattr(ivf._ChunkGrid, "of", lambda *args: grids.append(
                    real(*args)) or grids[-1])
                ids, dists = index.search(queries, 2 * W + 3)
                answers.append((ids, dists, index.stats.as_dict()))
        (ids, dists, stats), (want_ids, want_dists, want_stats) = answers
        np.testing.assert_array_equal(dists.view(np.int32),
                                      want_dists.view(np.int32))
        assert_batches_equal_up_to_ties(HitBlock(ids, dists),
                                        HitBlock(want_ids, want_dists),
                                        2 * W + 3)
        assert stats == want_stats
        assert any(grid is not None for grid in grids)

    @pytest.mark.parametrize("number", [0, 2])
    def test_a_member_cut_by_query_rows(self, grid_arena,
                                        every_pass_chunked, monkeypatch,
                                        number):
        """A block too tall for one pass is cut by query rows, chunked;
        the member alone is cut the same way."""
        metric, members = grid_arena
        member = members[number]
        passes = []
        real = ListArena._scan_pass

        def counting(self, scope, block, *args):
            passes.append(block.shape[0])
            return real(self, scope, block, *args)

        monkeypatch.setattr(ListArena, "_scan_pass", counting)
        monkeypatch.setattr(ivf, "_SCAN_BLOCK_FLOATS", 10 * member.nprobe
                            * member._lists.max_list_size)
        queries = clustered(np.random.default_rng(5), 64)
        assert_members_answer_alone(ArenaIndex(members), members, queries,
                                    2 * W + 3, [number])
        assert passes == ([10] * 6 + [4]) * 2
        assert any(grid is not None for grid in every_pass_chunked)

    @pytest.mark.parametrize("metric", METRICS)
    def test_k_amplified_by_deletions(self, rng, monkeypatch,
                                      every_pass_chunked, metric):
        """Segments that lost their nearest rows ask their own lists for
        an amplified ``k`` beside the arena's scan of the others; in
        chunks of 4 scores (lists of ~20 rows span several) the node
        answers as the per-segment loop does."""
        monkeypatch.setattr(ivf, "_CHUNK_WIDTH", 4)
        cluster = sealed_cluster(rng, metric)
        queries = clustered(rng, 17)
        nearest = cluster.search("c", queries[:1], 11, metric=metric)[0].pks
        cluster.delete("c", f"pk in {nearest}")
        cluster.run_for(500)
        got = both(cluster, monkeypatch, queries, 10, metric=metric)
        assert not set(nearest) & {pk for r in got for pk in r.pks}
        assert got[0].profile.totals()["delete_filter_hits"] == 11
        for nq in (1, 3, 64):
            both(cluster, monkeypatch, clustered(rng, nq), 10,
                 metric=metric)
        assert any(grid is not None for grid in every_pass_chunked)


# ----------------------------------------------------------------------
# a metric the index was not built with
# ----------------------------------------------------------------------

class TestMetricMismatchIsRefused:
    """Searching a sealed index under another metric used to return that
    index's neighbours, silently, on another distance scale than the
    growing segments of the same request."""

    def _cluster(self, rng):
        cluster = sealed_cluster(rng, MetricType.INNER_PRODUCT, n=600)
        return cluster, clustered(rng, 1)[0]

    def test_proxy_refuses_and_names_both_metrics(self, rng):
        cluster, query = self._cluster(rng)
        for call in (lambda: cluster.search("c", query, 5),
                     lambda: cluster.range_search("c", query, 1.0)):
            with pytest.raises(InvalidQuery) as refused:
                call()
            assert "euclidean" in str(refused.value)
            assert "inner_product" in str(refused.value)
        got = cluster.search("c", query, 5,
                             metric=MetricType.INNER_PRODUCT)[0]
        assert len(got) == 5
        assert len(cluster.range_search(
            "c", query, -1e9, metric=MetricType.INNER_PRODUCT)) == 600

    def test_no_declared_index_any_metric(self, rng):
        cluster = ManuCluster(num_query_nodes=2)
        cluster.create_collection("c", schema())
        cluster.insert("c", rows(rng, range(200)))
        cluster.run_for(500)
        query = clustered(rng, 1)[0]
        for metric in METRICS:
            assert len(cluster.search("c", query, 5, metric=metric)[0]) == 5

    def test_pymanu_and_rest(self, rng):
        cluster, query = self._cluster(rng)
        connect(cluster=cluster)
        try:
            coll = Collection("c")
            with pytest.raises(InvalidQuery):
                coll.search(vec=query, limit=5,
                            param={"metric_type": "Euclidean"})
            assert len(coll.search(vec=query, limit=5,
                                   param={"metric_type": "IP"})[0]) == 5
        finally:
            connections.disconnect()
        api = RestApi(cluster)
        status, body = api.handle("POST", "/collections/c/search", {
            "vector": query.tolist(), "limit": 5})
        assert status == 400 and "inner" in body["error"].lower()
        status, body = api.handle("POST", "/collections/c/search", {
            "vector": query.tolist(), "limit": 5, "metric_type": "IP"})
        assert status == 200
