"""manu-lint: an invariant-checking static analysis suite for this repo.

The paper states correctness invariants that Python cannot enforce at
runtime without cost: LSN/time-tick monotonicity on the log backbone
(Section 3.3) and a strict layering in which worker nodes coordinate only
through the log.  ``repro.analysis`` checks the *static* shadow of those
invariants over the repository's AST, module by module.  What a run can
observe is checked dynamically instead: by the chaos driver against its
model, the ``MANU_RACE`` schedule sweep, the crash-point tests and the
``MANU_CHECK=1`` runtime checks in the log layer (see ``log/broker.py``).

Rule families (each independently toggleable):

==========================  ==================================================
``layering``                the import graph must follow the architecture DAG
``timestamp-discipline``    no raw arithmetic on packed LSN ints outside TSO
                            (runtime twin: the broker's monotonicity check)
``determinism``             the virtual clock is the only time/random source
``error-hygiene``           public API raises ``ManuError``; no bare except
``frozen-record``           WAL/binlog records are immutable once constructed
==========================  ==================================================

Retired rules and the runtime check that replaced each (DESIGN.md §6b):

==================================  ==========================================
``pubsub-topology``                 ``MANU_CHECK``: the broker checks each
                                    ``publish``/``subscribe`` caller against
                                    ``repro.log.topology``
``durability-replay-unguarded``     ``MANU_CHECK``: the broker pushes every
                                    data entry twice
``durability-ack-before-durable``   ``MANU_CHECK``: ``AckFuture.set_result``
                                    refuses rows not yet on their channel
``raceorder-detached``              every loop event runs detached
                                    (``EventLoop.detached``)
``raceorder-hidden-coupling``       ``tests/test_boundaries.py``
==================================  ==========================================

Any finding can be suppressed in place::

    something_flagged()  # manu-lint: disable=determinism -- justification

Run the suite with ``python -m repro.analysis`` (see ``--help``), or from
code via :func:`run_analysis`.
"""

from repro.analysis.base import Finding, Rule, Suppression
from repro.analysis.engine import AnalysisReport, all_rules, run_analysis

__all__ = [
    "AnalysisReport",
    "Finding",
    "Rule",
    "Suppression",
    "all_rules",
    "run_analysis",
]
