"""manu-crash: crash-consistency rules over the recovered durability model.

Two rule families, both driven by :mod:`repro.analysis.recovery`:

``durability-ack-before-durable``
    A client-facing write entry (``insert``/``delete``/``upsert`` in the
    api/cluster/nodes/log layers whose closure reaches a WAL publish) must
    not return a value or resolve a future on any path before the publish
    has executed.  This is the invariant the group-commit rework must
    preserve: batching the publish may not move it after the ack.

``durability-replay-unguarded``
    Restart replays each channel from the recorded flushed offset, and a
    channel handoff replays it to a node that may have already applied a
    prefix.  Delivery handlers therefore re-see records; any
    order/duplication-sensitive effect (``append``/``extend`` on component
    state) must sit behind an LSN/offset progress guard or be declared
    idempotent in ``recovery.IDEMPOTENT_HANDLERS``.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.base import Finding, Project, Rule
from repro.analysis.recovery import build_durability_model

DURABILITY_ACK = "durability-ack-before-durable"
DURABILITY_REPLAY = "durability-replay-unguarded"


class AckBeforeDurableRule(Rule):
    id = DURABILITY_ACK
    description = ("client-visible write success (return / future "
                   "resolution) must be dominated by the record's WAL "
                   "publish on every path")
    paper_ref = ("§3.3 write path: a write is acknowledged only after "
                 "the loggers make it durable in the WAL")

    def check_project(self, project: Project) -> Iterable[Finding]:
        model = build_durability_model(project)
        for entry in model.write_entries:
            for ack in entry.acks:
                if ack.dominated:
                    continue
                event = ("success return" if ack.kind == "return"
                         else "future resolution")
                yield Finding(
                    rule=self.id, path=entry.func.module, line=ack.line,
                    message=(f"{entry.func.qualname}() reaches a "
                             f"{event} not dominated by its WAL "
                             "publish: a crash after the ack loses an "
                             "acknowledged write"),
                    hint=("publish to the WAL before returning/resolving "
                          "on every path, or return a zero-effect result "
                          "under a justified suppression"))


class ReplayUnguardedRule(Rule):
    id = DURABILITY_REPLAY
    description = ("WAL delivery handlers must guard duplication-"
                   "sensitive effects with an LSN/offset progress check "
                   "(restart and channel handoff replay records)")
    paper_ref = ("§3.3 recovery: channels replay from recorded flushed "
                 "offsets; re-applied records must converge")

    def check_project(self, project: Project) -> Iterable[Finding]:
        model = build_durability_model(project)
        seen: set[tuple[str, int]] = set()
        for handler in sorted(model.handlers,
                              key=lambda h: (h.func.module,
                                             h.func.qualname)):
            if handler.declared:
                continue
            for effect in handler.effects:
                if effect.guarded:
                    continue
                anchor = (effect.func.module, effect.site.lineno)
                if anchor in seen:
                    continue
                seen.add(anchor)
                yield effect.func.ctx.finding(
                    self.id, effect.site.node,
                    f"{effect.target}.{effect.site.name}(...) in "
                    f"{effect.func.qualname}() runs on WAL delivery "
                    f"(handler {handler.func.qualname}()) without a "
                    "progress guard: replay double-applies it",
                    hint=("skip records at or below the applied "
                          "LSN/offset watermark before the effect, or "
                          "declare the handler in "
                          "recovery.IDEMPOTENT_HANDLERS with a reason"))


DURABILITY_RULES = (AckBeforeDurableRule, ReplayUnguardedRule)
