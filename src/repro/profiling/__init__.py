"""Query profiling plane: EXPLAIN ANALYZE trees and slow-query capture.

Built directly above ``core``/``index`` (and nothing else): a
:class:`QueryProfile` is an exact per-stage work ledger read off a
request's span tree — ``search(..., explain=True)`` in PyManu.  See
DESIGN.md §6g for the counter catalog and unit definitions.
"""

from repro.profiling.profile import (
    SCAN_COUNTERS,
    QueryProfile,
    StageProfile,
    sum_counters,
)
from repro.profiling.slowlog import SlowQuery, SlowQueryLog

__all__ = [
    "SCAN_COUNTERS",
    "QueryProfile",
    "SlowQuery",
    "SlowQueryLog",
    "StageProfile",
    "sum_counters",
]
