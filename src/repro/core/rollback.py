"""Rollback and ordered replay: what DEFINED-RB and DEFINED-LS share,
and what the DDOS baseline reuses without ever rewinding.

The pure logic is separated out so the invariants can be property-tested
in isolation: output identity (:func:`output_id`: is this re-emission
the message already on the wire?), anti-message collection
(:func:`collect_unsends`: what must we unsend, to whom?), replay
planning (which inputs are re-delivered?) and the replay order itself (:func:`ordered_replay`: the next due timer
against the next input).

:class:`ReplayStack` is the one copy of the stateful half -- annotate an
outgoing message, checkpoint, rewind to a history index, hand an entry to
the daemon -- under both the shim (:mod:`repro.core.shim`, which adds
speculation, the anti-message transport and cost accounting) and the
lockstep node (:mod:`repro.core.lockstep`, which adds the barrier
protocol).  The DDOS baseline (:mod:`repro.baselines.ddos`) is the
subclass that never rewinds: it takes the annotation rule, the timer
table and the daemon dispatch, and holds each entry back until its key
order is safe instead of delivering speculatively.

**Lazy cancellation** (Jefferson, *Virtual Time*, 1985) is the third step
of every rewind under both stacks: *keep, re-execute, then unsend the
remainder*.  :meth:`ReplayStack._rewind` keeps the rewound suffix's
outputs as a map identity -> message; a re-executed ``send()`` whose
identity is in the map adopts the old message (same uid, nothing
transmitted); whatever is left when the replay ends
(:meth:`ReplayStack._end_replay`) is what the re-execution no longer
produces, and only that is unsent.  Retracting every output first and
re-sending identical copies under fresh uids would cost each neighbour up
to two rollbacks for a message whose content never changed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.checkpoint import Checkpoint
from repro.core.history import DeliveredHistory, HistoryEntry
from repro.core.ordering import OrderingFunction
from repro.core.recorder import SendIdentity
from repro.core.statestore import StateStore, StoreContractViolation
from repro.core.virtual_time import TimerTable
from repro.simnet.messages import Annotation, Message
from repro.simnet.node import Node, Stack

#: What lazy cancellation compares: a :data:`SendIdentity` plus
#: ``(delay_us, chain, canonical payload repr)``.  It must cover every
#: annotation field that shapes downstream ordering keys: a re-execution
#: can re-emit the "same" logical message with a corrected delay estimate
#: (its causal parent changed), and keeping the old copy would leave the
#: receiver holding the stale annotation.
OutputId = Tuple[str, str, int, int, int, str, str, int, int, str]


def send_identity(msg: Message) -> SendIdentity:
    """The recording's name for ``msg`` (what a drop record carries)."""
    a = msg.annotation
    assert a is not None
    return (a.sender, a.origin, a.seq, a.sub, a.group, msg.dst, msg.protocol)


def output_id(msg: Message) -> OutputId:
    a = msg.annotation
    assert a is not None
    return send_identity(msg) + (a.delay_us, a.chain, msg.canonical_payload_repr())


def collect_unsends(retracted: Iterable[Message]) -> Dict[str, List[int]]:
    """Anti-message plan: per-neighbor lists of message uids to unsend.

    ``retracted`` are emitted messages the final execution does not
    contain -- the outputs of a rewound suffix that its re-execution did
    not reproduce, or everything a crashed node's open groups emitted --
    which must be rolled back at their receivers: the cascading process
    of Figure 3.  The one place either stack turns outputs into unsends.

    The per-neighbor lists come back **canonical** (sorted; uids are
    globally unique so duplicates cannot occur), satisfying
    :class:`~repro.simnet.messages.Unsend`'s constructor contract without
    another canonicalization pass on the rollback hot path.
    """
    plan: Dict[str, List[int]] = {}
    for msg in retracted:
        plan.setdefault(msg.dst, []).append(msg.uid)
    for uids in plan.values():
        uids.sort()
    return plan


def plan_replay(
    rolled: Sequence[HistoryEntry],
    new_entries: Sequence[HistoryEntry],
    removed_uids: Set[int],
) -> List[HistoryEntry]:
    """Inputs to re-deliver after a rollback, in ordering-function order.

    * rolled-back *messages* are replayed unless an anti-message removed
      them (``removed_uids``);
    * rolled-back *external events* are always replayed (the world
      happened; only our processing of it is being redone);
    * rolled-back *timer* firings are NOT replay inputs -- restoring the
      checkpoint re-arms the timer table, and the shim's replay loop
      re-fires due timers interleaved by their keys;
    * ``new_entries`` (the out-of-order arrival that triggered the
      rollback, if it was a message or external event) are merged in.

    Entries are reset (checkpoints/outputs cleared) and returned sorted.
    """
    inputs: List[HistoryEntry] = []
    for entry in rolled:
        if entry.kind == "timer":
            continue
        if entry.kind == "msg" and entry.msg is not None and entry.msg.uid in removed_uids:
            continue
        inputs.append(entry)
    inputs.extend(new_entries)
    for entry in inputs:
        entry.reset_for_replay()
    inputs.sort(key=lambda e: e.key)
    for earlier, later in zip(inputs, inputs[1:]):
        if earlier.key == later.key:
            raise ValueError(f"replay plan contains duplicate key {earlier.key}")
    return inputs


def ordered_replay(
    timers: TimerTable,
    vt: int,
    ordering: OrderingFunction,
    node_id: str,
    inputs: Iterable[HistoryEntry],
) -> Iterator[HistoryEntry]:
    """The entries to deliver next, one at a time, in ordering-function order.

    ``inputs`` is key-sorted.  Before every step the timer table is asked
    again for its earliest due timer -- the delivery the caller just made
    may have armed, cancelled or popped one -- and that timer is yielded
    as a fresh ``"timer"`` entry if its key sorts before the next input;
    otherwise the input is.  Ends when neither is left; with no inputs it
    yields every due timer.  The caller must deliver (or otherwise pop)
    each timer entry before asking for the next.
    """
    pending = iter(inputs)
    next_input = next(pending, None)
    while True:
        due = timers.next_due(vt)
        if due is not None:
            expiry, seq, timer_key = due
            key = ordering.timer_key(expiry, node_id, seq)
            if next_input is None or key < next_input.key:
                yield HistoryEntry(
                    kind="timer", key=key, group=expiry, seq=seq, timer_key=timer_key
                )
                continue
        if next_input is None:
            return
        yield next_input
        next_input = next(pending, None)


class ReplayStack(Stack):
    """A stack that delivers in ordering-function order and can go back.

    Every delivery is appended to :attr:`history` with the checkpoint
    taken just before it; :meth:`_rewind` truncates the history at an
    index, puts daemon, timers, counters and the delivery log back to
    that entry's checkpoint and keeps the removed entries' outputs, after
    which the caller re-delivers whatever :meth:`_replay_order` yields
    and retracts what :meth:`_end_replay` hands back.

    Subclasses set ``hop_cost_us`` and ``spill_bound_us`` (the shim from
    its deployment, the lockstep node from the recording: annotations
    must agree bit for bit).
    """

    #: Bound on causal chain length within one group (Section 2.2: "We
    #: further bound the length of each causal chain within a
    #: timestep").  Production and replay must agree on it, and the
    #: recording does not carry it: it is a protocol constant.
    chain_bound = 64
    hop_cost_us: int
    spill_bound_us: int
    #: The node's checkpoint store and timer table, bound by :meth:`_boot`
    #: (a stack that never calls it, DDOS, builds its own table).
    _store: StateStore
    timers: TimerTable

    def __init__(self, node: Node, ordering: OrderingFunction) -> None:
        super().__init__(node)
        self.ordering = ordering
        self.vt = 0
        self.history = DeliveredHistory()
        self._origin_seq = 0
        self._sub_seq = 0
        self._current_entry: Optional[HistoryEntry] = None
        #: Between :meth:`_rewind` and :meth:`_end_replay`: the rewound
        #: outputs no re-executed ``send()`` has adopted yet, by identity.
        #: ``None`` whenever no rewound suffix is being replayed.
        self._kept: Optional[Dict[OutputId, Message]] = None

    # ------------------------------------------------------------------
    # app-facing API shared by both stacks
    # ------------------------------------------------------------------
    def set_timer(self, delay_units: int, key: str) -> None:
        self.timers.set(key, self._event_group(), delay_units)

    def cancel_timer(self, key: str) -> None:
        self.timers.cancel(key)

    def time_units(self) -> int:
        return self.vt

    def _event_group(self) -> int:
        """Group that timers armed, and messages originated, right now
        belong to: that of the event being processed, not the beacon
        count at the instant the processing physically ran.  A group-g
        event can be delivered after beacon g+1 (late crossing, or during
        a replay); basing its timers on the live count would make
        expiries depend on wall-clock accidents and break determinism.
        Outside any event (boot traffic) it is the current virtual time.
        """
        entry = self._current_entry
        return entry.group if entry is not None else self.vt

    def _outgoing(
        self,
        dst: str,
        protocol: str,
        payload,
        parent: Optional[Message],
        size_bytes: int,
        link_estimate_us: int,
    ) -> Message:
        """The annotated message a daemon's ``send()`` stands for: a child
        of ``parent``'s causal chain, or a new origination."""
        node_id = self.node.node_id
        hop_estimate = link_estimate_us + self.hop_cost_us
        if parent is not None and parent.annotation is not None:
            pa = parent.annotation
            self._sub_seq += 1
            annotation = pa.extended(
                link_delay_us=hop_estimate,
                sub=self._sub_seq,
                over_chain_bound=pa.chain + 1 > self.chain_bound,
                sender=node_id,
                spill_bound_us=self.spill_bound_us,
            )
        else:
            self._origin_seq += 1
            entry = self._current_entry
            delay_us = (entry.origin_offset_us if entry is not None else 0) + hop_estimate
            # origin, seq, delay_us, group, chain, sub, sender
            annotation = Annotation(
                node_id, self._origin_seq, delay_us, self._event_group(), 0, 0, node_id
            )
        msg = Message(
            src=node_id,
            dst=dst,
            protocol=protocol,
            payload=payload,
            annotation=annotation,
            size_bytes=size_bytes,
        )
        # origination freezes the payload (store contract): render and
        # intern its canonical repr now, so every later identity use --
        # delivery tags, output ids, replay -- reuses one string
        msg.canonical_payload_repr()
        return msg

    def _boot(self) -> None:
        """Fresh history, timer table and counters for a (re)boot.

        The daemon's state store becomes the node's one checkpoint store:
        daemon namespaces + timer table are then captured by a single
        store version per delivery (a stack with no daemon gets an empty
        store of its own).  Reboots drop the old run's snapshots along
        with the history.
        """
        self.history = DeliveredHistory()
        store = self.daemon.store if self.daemon is not None else StateStore()
        store.reset()
        self._store = store
        self.timers = TimerTable(store)
        self._origin_seq = 0
        self._sub_seq = 0
        self._current_entry = None
        self._kept = None

    def _take_checkpoint(self) -> Checkpoint:
        # one store version covers daemon state + timers; the two
        # counters ride alongside (plain ints, no copying needed)
        try:
            version = self._store.snapshot()
        except StoreContractViolation as exc:
            raise self._attributed(exc) from exc
        return Checkpoint(version, (self._origin_seq, self._sub_seq))

    def _attributed(self, exc: StoreContractViolation) -> StoreContractViolation:
        """``exc`` (sanitize mode) plus the delivery whose handler ran
        last here: with a checkpoint before every delivery, a live value
        mutated in place was mutated by that handler."""
        log = self.delivery_log
        last = f"delivery {log[-1]!r}" if log else "before the first delivery"
        return StoreContractViolation(
            f"{exc} (node {self.node.node_id!r}, last handler run: {last})"
        )

    def _rewind(self, index: int) -> List[HistoryEntry]:
        """Undo ``history[index:]``: state and delivery log go back to
        just before that entry.  Returns the removed entries; what they
        emitted stays on the wire, kept for the replay to adopt."""
        rolled = self.history.truncate_from(index)
        self._kept = {output_id(msg): msg for entry in rolled for msg in entry.outputs}
        base = rolled[0]
        checkpoint = base.checkpoint
        assert checkpoint is not None
        try:
            self._store.restore(checkpoint.version)
        except StoreContractViolation as exc:
            raise self._attributed(exc) from exc
        self._origin_seq, self._sub_seq = checkpoint.counters
        if base.log_index >= 0:
            del self.delivery_log[base.log_index:]
        return rolled

    def _adopt(self, msg: Message) -> Optional[Message]:
        """The kept output that ``msg`` reproduces byte for byte, taken
        out of the map; ``None`` if there is none.  The caller records it
        as the current entry's output and sends nothing."""
        return self._kept.pop(output_id(msg), None) if self._kept else None

    def _end_replay(self) -> List[Message]:
        """Close the replay (a :meth:`_rewind`, if there was anything to
        rewind).  Returns the kept outputs nothing re-emitted, for the
        caller to unsend."""
        retracted = list(self._kept.values()) if self._kept else []
        self._kept = None
        return retracted

    def _replay_order(self, inputs: Iterable[HistoryEntry]) -> Iterator[HistoryEntry]:
        return ordered_replay(
            self.timers, self.vt, self.ordering, self.node.node_id, inputs
        )

    def _execute(self, entry: HistoryEntry, checkpoint: Checkpoint) -> None:
        """Deliver ``entry`` as the next element of the ordered history."""
        entry.checkpoint = checkpoint
        entry.delivered_at_us = self.sim.now
        entry.log_index = len(self.delivery_log)
        self.history.append(entry)
        self._invoke(entry, entry.tag())

    def _invoke(self, entry: HistoryEntry, tag: str) -> None:
        """Log ``tag`` and hand ``entry`` to the daemon."""
        self.log_delivery(tag)
        self.node.stats.deliveries += 1
        if entry.kind == "timer":
            # Popped *after* the checkpoint so a rewind past this firing
            # re-arms it and the replay order re-fires it deterministically.
            self.timers.pop(entry.timer_key, entry.seq)
        self._current_entry = entry
        try:
            if self.daemon is not None:
                if entry.kind == "msg":
                    self.daemon.on_message(entry.msg)
                elif entry.kind == "ext":
                    self.daemon.on_external(entry.event)
                else:
                    self.daemon.on_timer(entry.timer_key)
        finally:
            self._current_entry = None
