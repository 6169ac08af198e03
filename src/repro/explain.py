"""Rollback traces, taken from outside the program.

:func:`audited` installs wrappers around the three places a DEFINED-RB
shim undoes work -- :meth:`~repro.core.shim.DefinedShim._rollback`,
``_unsend_outputs`` and ``_retract_pruned`` -- for the duration of a
``with`` block, and yields the list it appends one :class:`Record` to per
rollback, per output unsent and per pruned retraction::

    with audited() as records:
        result = run_scenario(get_scenario("flap-storm@40"), "defined", 1)
    rollbacks = [r for r in records if r.kind == ROLLBACK]

Nothing under ``src/`` knows it is being traced: outside the block the
shim's methods are the originals, so the trace costs nothing when it is
not installed and cannot move a fingerprint when it is.  The wrappers
read state and call the original with the same arguments; they never
write.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, NamedTuple, Optional

from repro.core.shim import DefinedShim

#: A rollback: the shim rewound its history to ``index``.
ROLLBACK = "rollback"
#: One output a rollback or a crash retracted, handed to the unsend
#: planner (it is unsent, or counted late when older than the window).
UNSEND = "unsend"
#: An unsend that found its target already pruned from the history
#: window: the tag is excised from the execution log, the state is not
#: rolled back.
RETRACTION = "retraction"

#: Rollback causes (:attr:`Record.cause`), read from the arguments of
#: ``_rollback(index, new_entries, removed_uids)``: a message that sorted
#: below delivered history (a straggler); an external event that did; a
#: higher-uid copy of a delivered message (an anti-message race: new
#: entries *and* removed uids); an unsend alone; a due timer (neither).
CAUSES = ("msg", "ext", "redelivery", "unsend", "timer")


def rollback_cause(new_entries, removed_uids) -> str:
    """The :data:`CAUSES` name of a rollback called with these arguments."""
    if new_entries:
        return "redelivery" if removed_uids else new_entries[0].kind
    return "unsend" if removed_uids else "timer"


class Record(NamedTuple):
    """One undo step of one shim."""

    kind: str
    node: str
    #: The node's current group (virtual time) when the step ran.
    group: int
    time_us: int
    #: :data:`ROLLBACK`: the history index rolled back to;
    #: :data:`RETRACTION`: the excised tag's delivery-log index;
    #: :data:`UNSEND`: ``None``.
    index: Optional[int]
    #: :data:`ROLLBACK`: history entries rewound, ``len(history) - index``;
    #: ``None`` otherwise.
    depth: Optional[int]
    #: When the undone thing happened: the anchor entry's delivery
    #: (rollback), the output's send (unsend), the pruned entry's delivery
    #: (retraction).
    since_us: int
    #: The latest instant the history window's fossil-collection bound
    #: allows the step at: ``since_us`` plus the window for a rollback or
    #: an unsend, the pruned entry's expiry for a retraction.
    deadline_us: int
    #: :data:`ROLLBACK`: one of :data:`CAUSES`; ``None`` otherwise.
    cause: Optional[str] = None


@contextmanager
def audited() -> Iterator[List[Record]]:
    """Trace every :class:`DefinedShim` that undoes work inside the block."""
    records: List[Record] = []
    rollback = DefinedShim._rollback
    unsend = DefinedShim._unsend_outputs
    retract = DefinedShim._retract_pruned

    def traced_rollback(self, index, new_entries, removed_uids):
        now, history = self.sim.now, self.history
        since = history[index].delivered_at_us
        records.append(Record(
            ROLLBACK, self.node.node_id, self.vt, now, index,
            len(history) - index, since, since + self.window_us(),
            rollback_cause(new_entries, removed_uids),
        ))
        rollback(self, index, new_entries, removed_uids)

    def traced_unsend(self, retracted):
        retracted = list(retracted)
        node, group, now = self.node.node_id, self.vt, self.sim.now
        window = self.window_us()
        records.extend(
            Record(UNSEND, node, group, now, None, None, msg.sent_at_us,
                   msg.sent_at_us + window)
            for msg in retracted
        )
        unsend(self, retracted)

    def traced_retract(self, uids):
        node, group, now = self.node.node_id, self.vt, self.sim.now
        for uid in uids:
            log_index, delivered_at, expiry = self._pruned_uid_log[uid]
            records.append(Record(
                RETRACTION, node, group, now, log_index, None, delivered_at, expiry,
            ))
        retract(self, uids)

    DefinedShim._rollback = traced_rollback
    DefinedShim._unsend_outputs = traced_unsend
    DefinedShim._retract_pruned = traced_retract
    try:
        yield records
    finally:
        DefinedShim._rollback = rollback
        DefinedShim._unsend_outputs = unsend
        DefinedShim._retract_pruned = retract
