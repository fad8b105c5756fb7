"""manu-lint: an invariant-checking static analysis suite for this repo.

The paper states correctness invariants that Python cannot enforce at
runtime without cost: LSN/time-tick monotonicity on the log backbone
(Section 3.3), acknowledgement only after the WAL holds a write, and a
strict layering in which worker nodes coordinate only through the log.
``repro.analysis`` checks the *static* shadow of those invariants over the
repository's AST — the ones no test can observe from outside.  What a test
can observe (consistency waits, subscription lifetimes, row state rebuilt
by replay, same-tick order) is checked dynamically instead: by the chaos
driver against its model, the ``MANU_RACE`` schedule sweep and the
crash-point tests.

Rule families (each independently toggleable):

==========================  ==================================================
``layering``                the import graph must follow the architecture DAG
``timestamp-discipline``    no raw arithmetic on packed LSN ints outside TSO
``determinism``             the virtual clock is the only time/random source
``error-hygiene``           public API raises ``ManuError``; no bare except
``frozen-record``           WAL/binlog records are immutable once constructed
``pubsub-topology``         pub/sub call sites match the declared log graph
``raceorder-*``             passes over the scheduled-event handlers (see
                            :mod:`repro.analysis.raceorder`)
``durability-*``            crash-consistency passes over the write entries
                            and replay handlers (see
                            :mod:`repro.analysis.durability`)
==========================  ==================================================

The last three are *whole-program* passes over an inter-procedural summary
(:mod:`repro.analysis.summaries`); the declared pub/sub topology lives in
:mod:`repro.analysis.topology` and its recovered twin is exported via
``--format dot``/``json``.  The runtime twin of ``timestamp-discipline``
is the ``MANU_CHECK=1`` environment flag (see ``log/broker.py``).

Any finding can be suppressed in place::

    something_flagged()  # manu-lint: disable=determinism -- justification

Run the suite with ``python -m repro.analysis`` (see ``--help``), or from
code via :func:`run_analysis`.
"""

from repro.analysis.base import Finding, Rule, Suppression
from repro.analysis.durability import (
    DURABILITY_ACK,
    DURABILITY_REPLAY,
    DURABILITY_RULES,
)
from repro.analysis.engine import AnalysisReport, all_rules, run_analysis
from repro.analysis.pubsub import recover_topology
from repro.analysis.raceorder import (
    RACEORDER_DETACHED,
    RACEORDER_HIDDEN_COUPLING,
    RACEORDER_RULES,
    event_handlers,
)
from repro.analysis.recovery import build_durability_model

__all__ = [
    "AnalysisReport",
    "DURABILITY_ACK",
    "DURABILITY_REPLAY",
    "DURABILITY_RULES",
    "Finding",
    "RACEORDER_DETACHED",
    "RACEORDER_HIDDEN_COUPLING",
    "RACEORDER_RULES",
    "Rule",
    "Suppression",
    "all_rules",
    "build_durability_model",
    "event_handlers",
    "recover_topology",
    "run_analysis",
]
