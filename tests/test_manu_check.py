"""MANU_CHECK: the log backbone's runtime checks.

Under ``MANU_CHECK=1`` (or ``LogBroker(manu_check=True)``):

* every publish to a ``wal/<collection>/shard-<n>`` channel asserts the
  record's timestamp never goes backwards (one TSO drives them all);
* every ``publish`` / ``subscribe`` caller inside ``repro`` must be a
  declared one (``repro.log.topology``);
* every data entry is pushed twice, as a reconnecting subscriber sees it,
  so each subscriber's replay must leave the state one delivery leaves;
* an ack of rows refuses an LSN not yet on its WAL channel.

The chaos driver runs with the flag on (``test_cluster_chaos.py``); here
each mechanism is pinned, including its negative case.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.manu import ManuCluster
from repro.coproc.keyword import KeywordCoProcessor
from repro.core.schema import CollectionSchema, DataType, FieldSchema
from repro.core.segment_set import SegmentSet
from repro.errors import InvariantViolation, MonotonicityViolation
from repro.log.archive import WalArchiver
from repro.log.broker import LogBroker
from repro.log.logger_node import AckFuture
from repro.log.topology import DECLARED_PUBLISHERS, DECLARED_SUBSCRIBERS
from repro.log.wal import (
    BatchRecord,
    DeleteRecord,
    InsertRecord,
    TimeTickRecord,
    data_records,
)
from repro.storage.object_store import ObjectStore

SHARD = "wal/c/shard-0"


def _broker(**kwargs) -> LogBroker:
    broker = LogBroker(**kwargs)
    broker.create_channel(SHARD)
    broker.create_channel("wal/coord")
    return broker


def test_out_of_order_tick_trips():
    broker = _broker(manu_check=True)
    broker.publish(SHARD, TimeTickRecord(ts=100, source="tso"))
    with pytest.raises(MonotonicityViolation, match="wal/c/shard-0"):
        broker.publish(SHARD, TimeTickRecord(ts=50, source="tso"))


def test_out_of_order_insert_after_tick_trips():
    broker = _broker(manu_check=True)
    broker.publish(SHARD, TimeTickRecord(ts=1000, source="tso"))
    with pytest.raises(MonotonicityViolation):
        broker.publish(SHARD, InsertRecord(ts=999, collection="c"))


def test_monotone_stream_passes_and_is_recorded():
    broker = _broker(manu_check=True)
    for ts in (1, 5, 5, 9):  # equal timestamps are allowed
        broker.publish(SHARD, TimeTickRecord(ts=ts, source="tso"))
    assert broker.end_offset(SHARD) == 4


def test_control_channels_and_ts_free_payloads_exempt():
    broker = _broker(manu_check=True)
    # Control channels legitimately carry historical timestamps.
    broker.publish("wal/coord", TimeTickRecord(ts=100, source="tso"))
    broker.publish("wal/coord", TimeTickRecord(ts=1, source="tso"))
    # ts=0 sentinels and non-record payloads are ignored on data channels.
    broker.publish(SHARD, TimeTickRecord(ts=7, source="tso"))
    broker.publish(SHARD, TimeTickRecord(ts=0, source="sentinel"))
    broker.publish(SHARD, {"raw": "payload"})


def test_disabled_by_default_and_env_driven(monkeypatch):
    monkeypatch.delenv("MANU_CHECK", raising=False)
    assert LogBroker().manu_check is False
    monkeypatch.setenv("MANU_CHECK", "1")
    assert LogBroker().manu_check is True
    monkeypatch.setenv("MANU_CHECK", "0")
    assert LogBroker().manu_check is False
    # Explicit argument wins over the environment.
    monkeypatch.setenv("MANU_CHECK", "1")
    assert LogBroker(manu_check=False).manu_check is False


def test_disabled_broker_accepts_out_of_order():
    broker = _broker(manu_check=False)
    broker.publish(SHARD, TimeTickRecord(ts=100, source="tso"))
    broker.publish(SHARD, TimeTickRecord(ts=50, source="tso"))


def test_full_cluster_stress_under_manu_check():
    """A small end-to-end run with the invariant armed throughout."""
    cluster = ManuCluster(num_query_nodes=2, num_loggers=2)
    assert cluster.broker.manu_check
    schema = CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8),
    ])
    cluster.create_collection("mc", schema)
    rng = np.random.default_rng(7)
    for batch in range(5):
        pks = list(range(batch * 20, batch * 20 + 20))
        cluster.insert("mc", {"pk": pks,
                              "vector": rng.normal(size=(20, 8))})
        cluster.run_for(100)
    cluster.delete("mc", "pk in [1, 2, 3]")
    cluster.run_for(500)
    assert cluster.collection_row_count("mc") == 97


# ----------------------------------------------------------------------
# declared topology: publish / subscribe callers
# ----------------------------------------------------------------------


def _call_from(module: str, source: str, **names) -> None:
    """Run ``source`` as if it were code of the ``repro`` module
    ``module`` (the broker reads its caller's ``__name__``); ``ignore``
    is a callback that drops what it is given."""
    exec(compile(source, f"<{module}>", "exec"),
         {"__name__": module, "ignore": lambda entry: None, **names})


def test_declared_graph_spot_checks():
    # The load-bearing §3.3 facts, stated directly.
    assert DECLARED_PUBLISHERS["wal-shard"] == {"log/logger_node.py"}
    assert DECLARED_PUBLISHERS["ddl"] == {"coord/root.py"}
    assert "coord/query.py" not in DECLARED_PUBLISHERS["coord"]
    assert "nodes/query_node.py" in DECLARED_SUBSCRIBERS["wal-shard"]


def test_undeclared_publisher_and_subscriber_are_refused():
    broker = _broker(manu_check=True)
    record = TimeTickRecord(ts=1, source="tso")
    with pytest.raises(InvariantViolation, match="nodes/query_node.py"):
        _call_from("repro.nodes.query_node",
                   "broker.publish('wal/coord', record)",
                   broker=broker, record=record)
    with pytest.raises(InvariantViolation, match="nodes/proxy.py"):
        _call_from("repro.nodes.proxy",
                   "broker.subscribe(channel, 'p', callback=ignore)",
                   broker=broker, channel=SHARD)
    # Declared edges pass; so do harnesses outside the package and any
    # caller while the check is off.
    _call_from("repro.log.logger_node", "broker.publish(channel, record)",
               broker=broker, channel=SHARD, record=record)
    _call_from("repro.nodes.query_node",
               "broker.subscribe(channel, 'q', callback=ignore)",
               broker=broker, channel=SHARD)
    broker.publish("wal/coord", record)
    _call_from("repro.nodes.query_node",
               "broker.publish('wal/coord', record)",
               broker=_broker(manu_check=False), record=record)


# ----------------------------------------------------------------------
# redelivery: every subscriber's replay is idempotent
# ----------------------------------------------------------------------

_SCHEMA = CollectionSchema([
    FieldSchema("pk", DataType.INT64, is_primary=True),
    FieldSchema("vector", DataType.FLOAT_VECTOR, dim=4),
    FieldSchema("text", DataType.STRING),
])


def _insert(ts, segment_id, pks, text):
    return InsertRecord(
        ts=ts, collection="c", shard=0, segment_id=segment_id,
        pks=tuple(pks),
        columns={"vector": np.full((len(pks), 4), ts, dtype=np.float32),
                 "text": [f"{text} {pk}" for pk in pks]})


def _delete(ts, pks):
    return DeleteRecord(ts=ts, collection="c", shard=0, pks=tuple(pks))


#: a shard channel's history: inserts into two growing segments, a delete
#: one of whose pks misses every growing segment, an upsert, a delete.
_HISTORY = [
    (_insert(1, "s1", [1, 2, 3], "red apple"),
     _insert(2, "s1", [4, 5], "green pear")),
    TimeTickRecord(ts=3, source="tso"),
    (_delete(4, [2, 99]),),
    (_delete(5, [4]), _insert(6, "s2", [4], "blue plum")),
    (_delete(7, [1]),),
]


def _replay_state(manu_check: bool) -> dict:
    broker = _broker(manu_check=manu_check)
    coproc = KeywordCoProcessor(broker, "c", "text", num_shards=1)
    store = ObjectStore()
    archiver = WalArchiver(broker, store, chunk_records=2)
    archiver.attach(SHARD)
    sets = {mode: SegmentSet("c", _SCHEMA, None, ObjectStore(),
                             archive=mode == "archive")
            for mode in ("archive", "serve")}
    deliveries = []

    def apply(entry):
        deliveries.append(entry.offset)
        for segments in sets.values():
            for record in data_records(entry.payload):
                segments.apply(record, entry.offset)

    broker.subscribe(SHARD, "applier", callback=apply)
    for item in _HISTORY:
        broker.publish(SHARD, item if isinstance(item, TimeTickRecord)
                       else BatchRecord(ts=item[-1].ts, collection="c",
                                        shard=0, records=item))
    archiver.flush()
    state = {
        "deliveries": len(deliveries),
        "coproc": (coproc._postings, coproc._doc_tokens, coproc._doc_len,
                   coproc.gate.seen_ts),
        "archive": {key: store.get(key) for key in store.list("")},
    }
    for mode, segments in sets.items():
        state[mode] = (
            {sid: (seg.pks, seg.deleted_mask().tolist(), seg.max_lsn,
                   seg.max_insert_lsn)
             for sid, seg in segments.segments.items()},
            segments._deletes, segments._deletes_from,
            segments.replay_offset(0))
    return state


def test_redelivered_entries_leave_one_delivery_state():
    once, twice = _replay_state(False), _replay_state(True)
    # Every data entry (four) arrived twice; the time-tick once.
    assert (once.pop("deliveries"), twice.pop("deliveries")) == (5, 9)
    assert twice == once


def test_a_replayed_delete_keeps_nothing_the_first_did_not():
    """A data node's set keeps only the deletes that missed every growing
    segment (for ``delta/``).  A delete delivered again finds the rows it
    hit no longer live; it must not keep them as misses."""
    segments = SegmentSet("c", _SCHEMA, None, ObjectStore(), archive=True)
    segments.apply(_insert(1, "s1", [1, 2], "a"), 0)
    segments.apply(_delete(2, [1, 7]), 1)
    kept = {shard: dict(pks) for shard, pks in segments._deletes.items()}
    segments.apply(_delete(2, [1, 7]), 1)
    assert segments._deletes == kept == {0: {7: 2}}


# ----------------------------------------------------------------------
# acks: never before the WAL holds the write
# ----------------------------------------------------------------------


def test_ack_of_rows_waits_for_its_lsn_on_the_channel():
    broker = _broker(manu_check=True)
    # A zero-row ack (every buffered delete missed) publishes nothing.
    empty = AckFuture((broker, SHARD))
    empty.set_result(40, 0)
    assert empty.rows == 0
    early = AckFuture((broker, SHARD))
    with pytest.raises(InvariantViolation, match="LSN 41"):
        early.set_result(41, 3)
    assert not early.done
    broker.publish(SHARD, BatchRecord(
        ts=41, collection="c", shard=0,
        records=(_insert(41, "s1", [1, 2, 3], "x"),)))
    early.set_result(41, 3)
    assert early.result() == 41
