"""DEFINED-LS: lockstep execution of a debugging network (Section 2.3).

A debugging network replays a partial recording produced by a DEFINED-RB
production run.  A :class:`LockstepCoordinator` (the paper's "runtime
coordinator") drives all nodes through alternating **transmission** and
**processing** phases, synchronized by a distributed-semaphore barrier:
the coordinator broadcasts a phase-begin control message and every node
answers with a *marker* when it has nothing further to do in the phase.
One recorded group of external events is replayed at a time; when a full
transmission+processing cycle moves no messages, the group is complete
and the next group begins (groups with no recorded events still execute,
because timer-driven traffic such as periodic announcements exists in
every group).

Message delivery order inside each node uses **exactly the same ordering
function as the production network**, which is what makes the replay
reproduce the production execution (Theorem 1).

**A soundness refinement.**  The paper's prose processes each wave of
arrivals as it lands.  Within a group, however, a later wave can carry a
message whose ordering key is *smaller* than one already processed (three
fast hops can beat two slow ones in ``d_i``), and a wave-at-a-time replay
would then diverge from DEFINED-RB's (key-sorted) production order.  We
therefore process each group *optimistically with group-local re-
execution*: every node checkpoints at group start, processes its known
inputs in key order, and -- should a later wave violate that order --
restores the group checkpoint, retracts the outputs that are no longer
produced (anti-messages over the reliable transport), and re-processes
the full input set.  Output retraction is differential: logically
identical re-emissions keep their uid and are not resent, so the group
reaches a fixpoint in at most diameter-many cycles.  The final per-node
order is the key-sorted full input set -- precisely DEFINED-RB's final
order -- making Theorem 1 hold mechanically (and testably).

Losses cannot perturb this: all traffic rides the reliable transport of
:mod:`repro.simnet.transport` ("The nodes use TCP ... which is necessary
for determinism").  Messages the production network could not deliver
(down link / dead router) are suppressed from replay via the recording's
*drop set*.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.checkpoint import Checkpoint
from repro.core.history import HistoryEntry
from repro.core.ordering import OptimizedOrdering, OrderingFunction, OrderKey
from repro.core.recorder import RecordedEvent, Recording
from repro.core.statestore import SnapshotStrategy, StateStore
from repro.core.virtual_time import TimerTable
from repro.simnet.events import ExternalEvent, LINK_DOWN, LINK_UP, NODE_DOWN, NODE_UP
from repro.simnet.messages import Annotation, Message, Unsend
from repro.simnet.network import Network
from repro.simnet.node import Node, Stack
from repro.simnet.transport import ReliableTransport

#: Synthetic "node id" under which network-level topology events are
#: recorded (they have no observing daemon; the coordinator applies them
#: to the debugging network's logical topology at group start).
NET_EVENTS_NODE = "__net__"

#: Output identity used for differential retransmission: logically equal
#: re-emissions are recognized and keep their uid.
OutputId = Tuple[str, int, int, int, str, str, str]


class LockstepStack(Stack):
    """DEFINED-LS stack for one debugging-network node."""

    def __init__(
        self,
        node: Node,
        ordering: OrderingFunction,
        recording: Recording,
        chain_bound: int = 64,
        rto_us: int = 50_000,
        poll_us: int = 2_000,
        snapshots: "SnapshotStrategy | str" = SnapshotStrategy.COW,
    ) -> None:
        super().__init__(node)
        self.ordering = ordering
        self.drops = recording.drops
        self.chain_bound = chain_bound
        self.poll_us = poll_us
        #: Group checkpoints go through a store-backed daemon's state
        #: store (one version per group, restored per re-execution cycle);
        #: must match the production shims for differential runs, though
        #: either mechanism replays identically.
        self.snapshot_strategy = SnapshotStrategy.of(snapshots)
        self._store: Optional[StateStore] = None
        #: Must equal the production shims' values: annotations (hence
        #: ordering keys and drop identities) are recomputed here and have
        #: to match bit for bit.  Delay estimates come from the recording
        #: (they are production-measured configuration); the debugging
        #: network's own link characteristics are irrelevant to them.
        self.hop_cost_us = recording.hop_cost_us
        self._delay_estimates = recording.delay_estimates
        #: Chain-delay spill bound: the *production* beacon interval, from
        #: the recording (the debugging network's own interval is
        #: irrelevant -- annotations must match production bit for bit).
        self.spill_bound_us = recording.spill_bound_us
        self.transport = ReliableTransport(
            node.node_id, node.network, self._on_logical, rto_us=rto_us
        )
        self.coordinator: Optional["LockstepCoordinator"] = None
        self.active = True
        self.logical_down_links: Set[frozenset] = set()

        self.vt = 0
        self.timers = TimerTable()
        self._origin_seq = 0
        self._sub_seq = 0

        # --- current-group state -------------------------------------
        self._group_checkpoint: Optional[Checkpoint] = None
        self._group_log_index = 0
        self._inputs: Dict[OrderKey, HistoryEntry] = {}
        self._uid_to_key: Dict[int, OrderKey] = {}
        self._future: List[Message] = []
        self._annihilate: Set[int] = set()
        self._emitted: Dict[OutputId, int] = {}
        self._send_buffer: List[Message] = []
        self._unsend_buffer: Dict[str, List[int]] = {}
        self._new_outputs: List[Tuple[OutputId, Message]] = []
        self._collecting = False
        self._current_entry: Optional[HistoryEntry] = None
        self._dirty = True
        self._processed_once = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.vt = (
            self.coordinator.current_group
            if self.coordinator is not None and self.coordinator.current_group >= 0
            else 0
        )
        store = getattr(self.daemon, "store", None) if self.daemon is not None else None
        if store is not None:
            store.reset()
            store.strategy = self.snapshot_strategy
        self._store = store
        self.timers = TimerTable(store=store)
        self._origin_seq = 0
        self._sub_seq = 0
        self._inputs.clear()
        self._uid_to_key.clear()
        self._emitted = {}
        self._unsend_buffer = {}
        self._dirty = True
        self._processed_once = False
        if self.daemon is not None:
            self.daemon.on_start()

    # ------------------------------------------------------------------
    # app-facing API (mirrors DefinedShim so daemons are oblivious)
    # ------------------------------------------------------------------
    def send(
        self,
        dst: str,
        protocol: str,
        payload,
        parent: Optional[Message] = None,
        size_bytes: int = 64,
    ) -> None:
        link_estimate = self._delay_estimates.get(f"{self.node.node_id}>{dst}")
        if link_estimate is None:
            link_estimate = self.node.network.avg_link_delay_us(self.node.node_id, dst)
        hop_estimate = link_estimate + self.hop_cost_us
        if parent is not None and parent.annotation is not None:
            pa = parent.annotation
            self._sub_seq += 1
            annotation = pa.extended(
                link_delay_us=hop_estimate,
                sub=self._sub_seq,
                over_chain_bound=pa.chain + 1 > self.chain_bound,
                sender=self.node.node_id,
                spill_bound_us=self.spill_bound_us,
            )
        else:
            self._origin_seq += 1
            group = (
                self._current_entry.group if self._current_entry is not None else self.vt
            )
            offset = (
                self._current_entry.origin_offset_us
                if self._current_entry is not None
                else 0
            )
            annotation = Annotation(
                origin=self.node.node_id,
                seq=self._origin_seq,
                delay_us=offset + hop_estimate,
                group=group,
                chain=0,
                sub=0,
                sender=self.node.node_id,
            )
        identity = (
            annotation.sender,
            annotation.origin,
            annotation.seq,
            annotation.sub,
            annotation.group,
            dst,
            protocol,
        )
        if identity in self.drops:
            return  # the production network never delivered this message
        msg = Message(
            src=self.node.node_id,
            dst=dst,
            protocol=protocol,
            payload=payload,
            annotation=annotation,
            size_bytes=size_bytes,
        )
        # origination freezes the payload (store contract); the interned
        # repr is shared by the output id below and every delivery tag
        msg.canonical_payload_repr()
        if self._collecting:
            # The differential-retransmission identity must cover every
            # annotation field that shapes downstream ordering keys: a
            # later re-execution can re-emit the "same" logical message
            # with a corrected delay estimate (its causal parent changed),
            # and treating that as unchanged would leave receivers holding
            # the stale annotation -- diverging from production.
            out_id = identity + (
                annotation.delay_us,
                annotation.chain,
                msg.canonical_payload_repr(),
            )
            self._new_outputs.append((out_id, msg))
        else:
            # boot-time traffic: emitted once, never retracted
            msg.uid = self.node.network.next_uid()
            self._send_buffer.append(msg)

    def set_timer(self, delay_units: int, key: str) -> None:
        # same rule as the production shim: expiries are based on the
        # group of the event being processed, never on wall-clock accident
        base = (
            self._current_entry.group if self._current_entry is not None else self.vt
        )
        self.timers.set(key, base, delay_units)

    def cancel_timer(self, key: str) -> None:
        self.timers.cancel(key)

    def time_units(self) -> int:
        return self.vt

    def neighbors(self) -> List[str]:
        """Adjacency under the *replayed* (logical) topology state."""
        out = []
        for other in self.node.network.all_neighbors(self.node.node_id):
            if frozenset((self.node.node_id, other)) in self.logical_down_links:
                continue
            out.append(other)
        return out

    # ------------------------------------------------------------------
    # node-facing API
    # ------------------------------------------------------------------
    def on_wire(self, msg: Message) -> None:
        self.transport.on_wire(msg)

    def on_external(self, event: ExternalEvent) -> None:  # pragma: no cover
        raise RuntimeError(
            "a debugging network has no live external events; "
            "inject them through the recording"
        )

    # ------------------------------------------------------------------
    # coordinator protocol
    # ------------------------------------------------------------------
    def _on_coordinator(self, payload: Dict[str, Any]) -> None:
        kind = payload["type"]
        if kind == "group":
            self._begin_group(payload["group"], payload["events"])
            self._marker(payload, count=0)
        elif kind == "transmit":
            self._do_transmission(payload)
        elif kind == "process":
            count = self._do_processing()
            self._marker(payload, count=count)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown coordinator message {kind!r}")

    def _marker(self, payload: Dict[str, Any], count: int) -> None:
        assert self.coordinator is not None
        self.node.stats.control_packets_sent += 1
        self.sim.schedule(
            self.coordinator.delay_to(self.node.node_id),
            self.coordinator.on_marker,
            self.node.node_id,
            payload["type"],
            count,
            label=f"marker:{self.node.node_id}",
        )

    # ------------------------------------------------------------------
    # group handling
    # ------------------------------------------------------------------
    def _begin_group(self, group: int, events: List[RecordedEvent]) -> None:
        self.vt = group
        # the previous group quiesced: its inputs are final and their
        # effects are baked into the state the new group checkpoint will
        # capture -- drop them so they are not replayed into this group
        self._inputs = {}
        self._uid_to_key = {}
        still_future: List[Message] = []
        for msg in self._future:
            assert msg.annotation is not None
            if msg.annotation.group == group:
                self._add_input_msg(msg)
            else:
                still_future.append(msg)
        self._future = still_future
        for rev in events:
            entry = HistoryEntry(
                kind="ext",
                key=self.ordering.external_key(group, self.node.node_id, rev.seq),
                event=rev.to_external_event(),
                group=group,
                seq=rev.seq,
                origin_offset_us=rev.offset_us,
            )
            self._inputs[entry.key] = entry
        self._group_checkpoint = self._take_checkpoint()
        if self._store is not None:
            # the previous group's checkpoint can never be restored again
            self._store.release_before(self._group_checkpoint.app_state)
        self._group_log_index = len(self.delivery_log)
        self._emitted = {}
        self._processed_once = False
        self._dirty = True

    def _take_checkpoint(self) -> Checkpoint:
        if self._store is not None:
            return Checkpoint(
                app_state=self._store.snapshot(),
                shim_state=(self._origin_seq, self._sub_seq, None),
            )
        app_state = self.daemon.snapshot() if self.daemon is not None else None
        shim_state = (self._origin_seq, self._sub_seq, self.timers.snapshot())
        return Checkpoint(app_state=app_state, shim_state=shim_state)

    def rebase_checkpoint(self) -> None:
        """Re-anchor the group checkpoint at the *current* state.

        Used by the interactive debugger after a state modification: the
        troubleshooter's edit becomes part of the baseline instead of
        being wiped by the next re-execution.
        """
        self._group_checkpoint = self._take_checkpoint()
        if self._store is not None:
            self._store.release_before(self._group_checkpoint.app_state)
        self._group_log_index = len(self.delivery_log)
        self._emitted = {}

    # ------------------------------------------------------------------
    # transmission phase
    # ------------------------------------------------------------------
    def _do_transmission(self, payload: Dict[str, Any]) -> None:
        count = 0
        for dst in sorted(self._unsend_buffer):
            uids = sorted(self._unsend_buffer[dst])
            self.node.stats.unsends_sent += 1
            self.transport.send_message(
                Message(
                    src=self.node.node_id,
                    dst=dst,
                    protocol="_unsend",
                    payload=Unsend(uids=tuple(uids)),
                    size_bytes=16 + 8 * len(uids),
                )
            )
            count += 1
        self._unsend_buffer = {}
        for msg in self._send_buffer:
            self.transport.send_message(msg)
            count += 1
        self._send_buffer = []
        self._await_idle(payload, count)

    def _await_idle(self, payload: Dict[str, Any], count: int) -> None:
        """Send the marker once every frame has been acknowledged
        (Section 2.3: "a node sends a marker packet when it has no
        further messages to send")."""
        if self.transport.idle():
            self._marker(payload, count=count)
        else:
            self.sim.schedule(
                self.poll_us,
                self._await_idle,
                payload,
                count,
                label=f"idlepoll:{self.node.node_id}",
            )

    # ------------------------------------------------------------------
    # processing phase
    # ------------------------------------------------------------------
    def _do_processing(self) -> int:
        if not self.active:
            return 0
        if self._processed_once and not self._dirty:
            # nothing re-executed, but traffic queued earlier (e.g. boot
            # sends) still keeps the group open until flushed
            return len(self._send_buffer) + len(self._unsend_buffer)
        count = self._reprocess_group()
        self._processed_once = True
        self._dirty = False
        # The marker must count queued outgoing traffic, not just
        # deliveries: a node whose inputs were ALL retracted re-executes
        # zero events yet still owes unsends -- if the coordinator closed
        # the group on a (sent=0, processed=0) cycle with those queued,
        # they would never be flushed and the replay would keep messages
        # the production execution retracted.
        return count + len(self._send_buffer) + len(self._unsend_buffer)

    def _reprocess_group(self) -> int:
        assert self._group_checkpoint is not None
        if self._store is not None:
            self._store.restore(self._group_checkpoint.app_state)
            self._origin_seq, self._sub_seq, _ = self._group_checkpoint.shim_state
        else:
            if self.daemon is not None:
                self.daemon.restore(self._group_checkpoint.app_state)
            self._origin_seq, self._sub_seq, timer_snap = self._group_checkpoint.shim_state
            self.timers.restore(timer_snap)
        del self.delivery_log[self._group_log_index:]

        self._new_outputs = []
        self._collecting = True
        count = 0
        pending = deque(sorted(self._inputs.values(), key=lambda e: e.key))
        try:
            while True:
                due = self.timers.next_due(self.vt)
                timer_entry = None
                if due is not None:
                    expiry, seq, timer_key = due
                    timer_entry = HistoryEntry(
                        kind="timer",
                        key=self.ordering.timer_key(expiry, self.node.node_id, seq),
                        group=expiry,
                        seq=seq,
                        timer_key=timer_key,
                    )
                next_input = pending[0] if pending else None
                if timer_entry is not None and (
                    next_input is None or timer_entry.key < next_input.key
                ):
                    chosen = timer_entry
                else:
                    if next_input is None:
                        break
                    chosen = pending.popleft()
                self._deliver(chosen)
                count += 1
        finally:
            self._collecting = False
        self._diff_outputs()
        return count

    def _deliver(self, entry: HistoryEntry) -> None:
        self.log_delivery(entry.tag())
        self.node.stats.deliveries += 1
        if entry.kind == "timer":
            self.timers.pop(entry.timer_key)
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

    def _diff_outputs(self) -> None:
        """Differential retransmission: unsend what is no longer produced,
        send what is new, keep logically-identical outputs untouched."""
        new_map: Dict[OutputId, Message] = {}
        for out_id, msg in self._new_outputs:
            if out_id in new_map:
                raise RuntimeError(f"duplicate output identity {out_id}")
            new_map[out_id] = msg
        result: Dict[OutputId, int] = {}
        for out_id, uid in sorted(self._emitted.items()):
            if out_id not in new_map:
                dst = out_id[5]  # (sender, origin, seq, sub, group, dst, ...)
                self._unsend_buffer.setdefault(dst, []).append(uid)
        # walk the emission-ordered list, not new_map: uid allocation
        # order must follow the daemon's deterministic output order
        for out_id, msg in self._new_outputs:
            if out_id in self._emitted:
                result[out_id] = self._emitted[out_id]
            else:
                msg.uid = self.node.network.next_uid()
                self._send_buffer.append(msg)
                result[out_id] = msg.uid
        self._emitted = result
        self._new_outputs = []

    # ------------------------------------------------------------------
    # receive path (from the reliable transport)
    # ------------------------------------------------------------------
    def _on_logical(self, msg: Message) -> None:
        if msg.protocol == "_unsend":
            self.node.stats.unsends_received += 1
            unsend: Unsend = msg.payload
            for uid in unsend.uids:
                self._remove_uid(uid)
            return
        if msg.uid in self._annihilate:
            self._annihilate.discard(msg.uid)
            self.node.stats.annihilated += 1
            return
        if msg.annotation is None:
            raise ValueError(f"unannotated message in debugging network: {msg.describe()}")
        group = msg.annotation.group
        if group == self.vt:
            self._add_input_msg(msg)
        elif group > self.vt:
            self._future.append(msg)
        else:
            raise RuntimeError(
                f"stale message for group {group} arrived during group "
                f"{self.vt} at {self.node.node_id}: {msg.describe()}"
            )

    def _remove_uid(self, uid: int) -> None:
        key = self._uid_to_key.pop(uid, None)
        if key is not None:
            entry = self._inputs.get(key)
            if entry is not None and entry.msg is not None and entry.msg.uid == uid:
                del self._inputs[key]
                self._dirty = True
                return
        for i, msg in enumerate(self._future):
            if msg.uid == uid:
                del self._future[i]
                return
        self._annihilate.add(uid)

    def _add_input_msg(self, msg: Message) -> None:
        assert msg.annotation is not None
        key = self.ordering.key(msg.annotation)
        old = self._inputs.get(key)
        if old is not None and old.msg is not None:
            # two copies of one logical message: keep the newer (higher
            # uid); the reliable per-peer FIFO makes this unreachable in
            # practice, but the shim-side race taught us to be explicit
            if msg.uid <= old.msg.uid:
                return
            self._uid_to_key.pop(old.msg.uid, None)
        entry = HistoryEntry(kind="msg", key=key, msg=msg, group=msg.annotation.group)
        self._inputs[key] = entry
        self._uid_to_key[msg.uid] = key
        self._dirty = True

    # ------------------------------------------------------------------
    # debugger introspection
    # ------------------------------------------------------------------
    def pending_inputs(self) -> List[HistoryEntry]:
        """Current group's known inputs, in ordering-function order."""
        return sorted(self._inputs.values(), key=lambda e: e.key)

    def group_deliveries(self) -> List[str]:
        """Delivery tags produced in the current group so far."""
        return list(self.delivery_log[self._group_log_index:])


class LockstepCoordinator:
    """The runtime coordinator of Section 2.3.

    Drives a debugging network through group replay.  All coordination
    travels with realistic latency (shortest-path delay from the
    coordinator node) and is counted as control traffic, which is what
    the step response time of Figures 6c/8c measures.
    """

    def __init__(
        self,
        network: Network,
        recording: Recording,
        ordering: Optional[OrderingFunction] = None,
        coordinator_node: Optional[str] = None,
    ) -> None:
        self.network = network
        self.recording = recording
        self.ordering = ordering if ordering is not None else OptimizedOrdering()
        ids = network.node_ids()
        if not ids:
            raise ValueError("cannot coordinate an empty network")
        self.coordinator_node = coordinator_node if coordinator_node else ids[0]
        self._delays = network.delay_matrix().get(self.coordinator_node, {})
        self.stacks: Dict[str, LockstepStack] = {}
        self._by_group = recording.by_group()
        self.horizon = recording.horizon_group
        self.current_group = -1
        self.next_group = 0
        self.in_group = False
        self.cycle = 0
        self.finished = False
        self.steps_executed = 0
        self._expected: Set[str] = set()
        self._counts: Dict[str, int] = {}
        self._phase_done = False
        #: Callables ``coordinator -> bool`` evaluated after every cycle;
        #: any True pauses execution (see :mod:`repro.core.debugger`).
        self.break_predicates: List[Callable[["LockstepCoordinator"], bool]] = []
        self.paused_on: Optional[Callable] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, daemon_factory, **stack_kwargs) -> None:
        """Instantiate lockstep stacks + daemons on every node."""

        def factory(node: Node) -> LockstepStack:
            stack = LockstepStack(
                node, ordering=self.ordering, recording=self.recording, **stack_kwargs
            )
            stack.coordinator = self
            self.stacks[node.node_id] = stack
            return stack

        self.network.attach(factory, daemon_factory)

    def start(self) -> None:
        """Boot all daemons (their boot traffic enters group 0)."""
        self.network.start()

    def delay_to(self, node_id: str) -> int:
        return self._delays.get(node_id, 0)

    # ------------------------------------------------------------------
    # barrier machinery
    # ------------------------------------------------------------------
    def _broadcast(self, payloads: Dict[str, Dict[str, Any]]) -> None:
        self._expected = set(payloads)
        self._counts = {}
        self._phase_done = not self._expected
        for node_id, payload in sorted(payloads.items()):
            self.network.sim.schedule(
                self.delay_to(node_id),
                self._deliver_ctrl,
                node_id,
                payload,
                label=f"barrier:{node_id}",
            )

    def _deliver_ctrl(self, node_id: str, payload: Dict[str, Any]) -> None:
        self.network.nodes[node_id].stats.control_packets_received += 1
        self.stacks[node_id]._on_coordinator(payload)

    def on_marker(self, node_id: str, phase: str, count: int) -> None:
        self._counts[node_id] = count
        if set(self._counts) >= self._expected:
            self._phase_done = True

    def _run_until_phase_done(self) -> None:
        guard = 0
        while not self._phase_done:
            if not self.network.sim.step():
                raise RuntimeError("lockstep deadlock: no events but phase incomplete")
            guard += 1
            if guard > 5_000_000:  # pragma: no cover - safety bound
                raise RuntimeError("lockstep livelock suspected")

    def _active_nodes(self) -> List[str]:
        return [nid for nid, stack in sorted(self.stacks.items()) if stack.active]

    # ------------------------------------------------------------------
    # group replay
    # ------------------------------------------------------------------
    def _start_group(self) -> None:
        group = self.next_group
        self.next_group += 1
        self.current_group = group
        self.cycle = 0
        events = self._by_group.get(group, [])
        self._apply_topology_events([e for e in events if e.node == NET_EVENTS_NODE])
        per_node: Dict[str, List[RecordedEvent]] = {}
        for ev in events:
            if ev.node != NET_EVENTS_NODE:
                per_node.setdefault(ev.node, []).append(ev)
        payloads = {
            nid: {"type": "group", "group": group, "events": per_node.get(nid, [])}
            for nid in self._active_nodes()
        }
        self._broadcast(payloads)
        self._run_until_phase_done()
        self.in_group = True

    def _apply_topology_events(self, events: List[RecordedEvent]) -> None:
        for ev in events:
            if ev.kind in (LINK_DOWN, LINK_UP):
                pair = frozenset(ev.target)
                for stack in self.stacks.values():
                    if ev.kind == LINK_DOWN:
                        stack.logical_down_links.add(pair)
                    else:
                        stack.logical_down_links.discard(pair)
            elif ev.kind == NODE_DOWN:
                self.stacks[ev.target].active = False
            elif ev.kind == NODE_UP:
                stack = self.stacks[ev.target]
                stack.active = True
                stack.start()

    def advance_cycle(self) -> Tuple[int, int]:
        """Run one transmission+processing cycle (one debugger "step").

        Returns (messages sent, events processed) network-wide.  When both
        are zero the current group has quiesced and the next call starts
        the next group.
        """
        if self.finished:
            return (0, 0)
        if not self.in_group:
            self._start_group()
        start_us = self.network.sim.now
        active = self._active_nodes()
        self._broadcast({nid: {"type": "transmit", "cycle": self.cycle} for nid in active})
        self._run_until_phase_done()
        sent = sum(self._counts.values())
        self._broadcast({nid: {"type": "process", "cycle": self.cycle} for nid in active})
        self._run_until_phase_done()
        processed = sum(self._counts.values())
        self.cycle += 1
        self.steps_executed += 1
        self.network.run_stats.step_times_us.append(self.network.sim.now - start_us)
        if sent == 0 and processed == 0:
            self.in_group = False
            if self.next_group > self.horizon:
                self.finished = True
        self.paused_on = None
        for predicate in self.break_predicates:
            if predicate(self):
                self.paused_on = predicate
                break
        return sent, processed

    def run_group(self, max_cycles: int = 100_000) -> int:
        """Replay until the current group quiesces.  Returns cycles run."""
        ran = 0
        target = self.next_group if not self.in_group else self.current_group
        while not self.finished and ran < max_cycles:
            self.advance_cycle()
            ran += 1
            if self.paused_on is not None:
                break
            if not self.in_group and self.current_group >= target:
                break
        return ran

    def run_all(self, max_cycles: int = 10_000_000) -> int:
        """Replay the entire recording (or until a breakpoint pauses us)."""
        ran = 0
        while not self.finished and ran < max_cycles:
            self.advance_cycle()
            ran += 1
            if self.paused_on is not None:
                break
        return ran

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def group_deliveries(self) -> Dict[str, List[str]]:
        return {nid: stack.group_deliveries() for nid, stack in sorted(self.stacks.items())}
