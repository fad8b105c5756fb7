"""The log backbone (Section 3.3).

Manu structures the whole system as log publishers and subscribers:

* :mod:`repro.log.broker` — the durable pub/sub message broker standing in
  for Kafka/Pulsar: named channels, offsets, consumer positions, replay;
* :mod:`repro.log.wal` — typed WAL records (insert / delete / DDL /
  coordination / time-tick) with binary serialization;
* :mod:`repro.log.hashring` — the consistent-hash ring placing shards on
  loggers;
* :mod:`repro.log.timetick` — periodic time-tick emission per channel;
* :mod:`repro.log.logger_node` — the loggers: verify requests, assign LSNs
  from the TSO, route entities to shards/segments, maintain the
  entity->segment LSM map;
* :mod:`repro.log.binlog` — column-based binlog files data nodes write to
  the object store;
* :mod:`repro.log.topology` — which module may publish or subscribe each
  channel group, checked on every call under ``MANU_CHECK``.
"""

from repro.log.archive import WalArchiver
from repro.log.broker import LogBroker, Subscription
from repro.log.hashring import HashRing
from repro.log.wal import (
    WalRecord,
    InsertRecord,
    DeleteRecord,
    BatchRecord,
    TimeTickRecord,
    DdlRecord,
    CoordRecord,
)

__all__ = [
    "WalArchiver",
    "LogBroker",
    "Subscription",
    "HashRing",
    "WalRecord",
    "InsertRecord",
    "DeleteRecord",
    "BatchRecord",
    "TimeTickRecord",
    "DdlRecord",
    "CoordRecord",
]
