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
therefore process each group *optimistically with suffix re-execution*,
under the history discipline DEFINED-RB keeps per window
(:class:`~repro.core.rollback.ReplayStack`): a node processes its known
inputs in key order, recording each in a per-group
:class:`~repro.core.history.DeliveredHistory` with the checkpoint taken
just before it, and remembers the smallest key a later wave adds,
replaces or retracts.  The next processing phase rewinds to the first
processed entry at or after that key -- restoring *its* checkpoint and
cutting the delivery log and the collected outputs there -- and
processes only the inputs from that point on; when nothing processed
sorts at or after the key, nothing is restored.  Output retraction is
lazy cancellation, the discipline DEFINED-RB rolls back under
(:mod:`repro.core.rollback`): the rewound suffix's outputs are kept, a
logically identical re-emission adopts the kept message's uid and is not
resent, and only what the re-execution no longer produces is retracted
(anti-messages over the reliable transport), so the group reaches a
fixpoint in at most diameter-many cycles.

Re-executing only the suffix is sound because the processed sequence,
timers included, is strictly increasing by key (``DeliveredHistory.
append`` asserts it): each step delivers the smaller of the earliest due
timer and the first pending input, so a step whose key is below the
smallest changed key saw the same state, the same due timer and the same
head of the pending queue as it would in a from-scratch run over the new
input set, hence is identical to it and need not be repeated.  After
every processing phase a node's history, state, log and outputs
therefore equal those of a from-scratch key-sorted run over the group's
current inputs (``tests/test_lockstep.py`` checks exactly that, cycle by
cycle, against a full re-execution), and the final per-node order is the
key-sorted full input set -- precisely DEFINED-RB's final order --
making Theorem 1 hold mechanically (and testably).

Losses cannot perturb this: all traffic rides the reliable transport of
:mod:`repro.simnet.transport` ("The nodes use TCP ... which is necessary
for determinism").  Messages the production network could not deliver
(down link / dead router) are suppressed from replay via the recording's
*drop set*.

**What the barrier simulates.**  A node's transmit marker leaves at the
first instant of a ``poll_us`` grid at which every frame it sent is
acknowledged.  Neither the polls nor the ACKs are engine events: the
transport accounts each ACK when its frame arrives and reports the key
at which the node's last frame was cleared, and
:meth:`LockstepStack._await_idle` computes the grid instant from it,
ordering a tie with a poll exactly as the engine would have.  The
simulated step times and every packet counter are those of the
poll-and-ACK simulation (``tests/golden/ls-replay-seed1.digest`` pins
them); what remains as events are busy nodes' phase-begins, frames,
retransmission timers that can fire, and one completion per phase.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.history import DeliveredHistory, HistoryEntry
from repro.core.ordering import OptimizedOrdering, OrderingFunction, OrderKey
from repro.core.recorder import RecordedEvent, Recording
from repro.core.rollback import ReplayStack, collect_unsends, send_identity
from repro.simnet.events import ExternalEvent, LINK_DOWN, LINK_UP, NODE_DOWN, NODE_UP
from repro.simnet.messages import Message, Unsend
from repro.simnet.network import Network
from repro.simnet.node import Node
from repro.simnet.transport import EventKey, ReliableTransport

#: Synthetic "node id" under which network-level topology events are
#: recorded (they have no observing daemon; the coordinator applies them
#: to the debugging network's logical topology at group start).
NET_EVENTS_NODE = "__net__"

#: The two phase-begin kinds a node handles (:meth:`LockstepStack.
#: _on_coordinator`); group-begins are applied by the coordinator itself.
TRANSMIT = "transmit"
PROCESS = "process"


class LockstepStack(ReplayStack):
    """DEFINED-LS stack for one debugging-network node."""

    def __init__(
        self,
        node: Node,
        ordering: OrderingFunction,
        recording: Recording,
        chain_bound: int = 64,
        rto_us: int = 50_000,
        poll_us: int = 2_000,
    ) -> None:
        super().__init__(node, ordering)
        self.drops = recording.drops
        self.chain_bound = chain_bound
        self.poll_us = poll_us
        #: Must equal the production shims' values: annotations (hence
        #: ordering keys and drop identities) are recomputed here and have
        #: to match bit for bit.  Delay estimates come from the recording
        #: (they are production-measured configuration); the debugging
        #: network's own link characteristics are irrelevant to them.
        self.hop_cost_us = recording.hop_cost_us
        #: The link term of d_i per neighbour, bound once: the recorded
        #: estimate, else (a recording that carries none) this network's.
        me, network = node.node_id, node.network
        self._link_estimates: Dict[str, int] = {}
        for dst in network.all_neighbors(me):
            estimate = recording.delay_estimates.get(f"{me}>{dst}")
            self._link_estimates[dst] = (
                estimate if estimate is not None else network.avg_link_delay_us(me, dst)
            )
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

        # --- current-group state (``history`` holds what was processed)
        self._group_log_index = 0
        self._inputs: Dict[OrderKey, HistoryEntry] = {}
        self._uid_to_key: Dict[int, OrderKey] = {}
        self._future: List[Message] = []
        self._annihilate: Set[int] = set()
        self._send_buffer: List[Message] = []
        self._unsend_buffer: Dict[str, List[int]] = {}
        #: Smallest ordering key added, replaced or retracted since the
        #: last processing phase; ``None`` when the inputs are unchanged.
        #: A group opens with ``()``, which sorts below every key: its
        #: due timers fire even if it never receives an input.
        self._changed_from: Optional[tuple] = ()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.vt = (
            self.coordinator.current_group
            if self.coordinator is not None and self.coordinator.current_group >= 0
            else 0
        )
        self._boot()
        self._inputs.clear()
        self._uid_to_key.clear()
        self._unsend_buffer = {}
        self._changed_from = ()
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
        msg = self._outgoing(
            dst, protocol, payload, parent, size_bytes, self._link_estimates[dst]
        )
        if send_identity(msg) in self.drops:
            return  # the production network never delivered this message
        entry = self._current_entry
        if entry is not None:
            kept = self._adopt(msg)
            if kept is not None:
                entry.outputs.append(kept)  # already on the wire: same uid
                return
            entry.outputs.append(msg)
        # else boot-time traffic: emitted once, never retracted.  Uids
        # are allocated here, in the daemon's deterministic output order
        msg.uid = self.node.network.next_uid()
        self._send_buffer.append(msg)

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
    def _on_coordinator(self, kind: str) -> None:
        if kind == TRANSMIT:
            self._do_transmission()
        else:
            self._marker(self._do_processing(), self.sim.now)

    def _marker(self, count: int, sent_us: int) -> None:
        """Account one marker packet sent at ``sent_us`` and tell the
        coordinator when it lands."""
        assert self.coordinator is not None
        self.node.stats.control_packets_sent += 1
        self.coordinator.on_marker(
            count, sent_us + self.coordinator.delay_to(self.node.node_id)
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
        self.rebase_checkpoint()
        self._changed_from = ()

    def rebase_checkpoint(self) -> None:
        """Make the *current* state the baseline no re-execution goes below.

        Every group starts this way: nothing the previous group processed
        can be rewound to again, so the history and the per-delivery
        checkpoints behind it are dropped.  The interactive debugger calls
        it after a state modification for the same reason: the
        troubleshooter's edit becomes part of the baseline instead of
        being wiped by a rewind to a checkpoint taken before it.
        """
        self.history = DeliveredHistory()
        self._store.reset()
        self._group_log_index = len(self.delivery_log)

    # ------------------------------------------------------------------
    # phase work
    # ------------------------------------------------------------------
    def phase_idle(self, kind: str) -> bool:
        """True when a ``kind`` phase-begin would find nothing to do here.

        An idle node's handler would only answer a count-0 marker, so the
        coordinator accounts it when it broadcasts instead of delivering
        the phase-begin as an engine event.  That is sound only if the
        answer, evaluated at broadcast, still holds when the phase-begin
        would have arrived ``delay_to(node)`` later -- and nothing in
        between can make an idle node busy:

        * the send and unsend buffers fill only in the node's own
          processing (:meth:`_do_processing`), which runs in its own
          phase-begin handler, never in anybody else's;
        * ``transport.idle()`` turns false only through the node's own
          sends (in :meth:`_do_transmission`) and true again once the
          last of their ACKs is accounted -- no later than the poll that
          sends the node's marker; frames it receives meanwhile make it
          send ACKs, which are untracked;
        * inputs (``_changed_from``) arrive only in transmit phases: a
          process phase begins after every node's transmit marker, each
          sent only once its transport was idle, so every frame was
          received and every reorder buffer drained, and a late
          duplicate is dropped by the transport before it reaches
          :meth:`_on_logical`.

        A transmit phase has work when a buffer is non-empty or frames
        await acknowledgement; a process phase when the inputs changed or
        a buffer is non-empty (:meth:`_do_processing` counts queued
        traffic into the marker).
        """
        if self._send_buffer or self._unsend_buffer:
            return False
        if kind == TRANSMIT:
            return self.transport.idle()
        return self._changed_from is None

    def _do_transmission(self) -> None:
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
        self._await_idle(count)

    def _await_idle(self, count: int) -> None:
        """Send the marker once every frame has been acknowledged
        (Section 2.3: "a node sends a marker packet when it has no
        further messages to send").

        The node checks on a grid: now (``t0``), then every ``poll_us``,
        at ``t0 + j * poll_us``.  No poll is an engine event.  The
        transport reports the key ``(time, seq, origin)`` at which its
        last frame was cleared (:meth:`ReliableTransport.set_on_idle`),
        and the marker is accounted as sent at the first grid instant
        whose poll would have run after that key -- the poll that would
        have seen the transport idle.

        Keys at different instants order by time.  At one instant they
        order by sequence number, i.e. by when each was reserved: the
        poll at ``t0 + j * poll_us`` would have been scheduled by the
        poll before it, the first one by this very event, after its
        sends.  So a key on grid instant ``j`` precedes poll ``j`` iff
        its sequence number was reserved before poll ``j - 1`` ran: for
        ``j == 1`` iff it is below the number reserved here as the first
        poll's, and otherwise iff its *origin* -- the key of the event
        that reserved it (an ACK's is its frame's arrival, a frame's or
        a timeout's is its send) -- precedes poll ``j - 1``, the same
        question one step earlier.  Origins precede what they reserve,
        so the chain ends at an instant off the grid or at ``j == 1``.
        An ACK landing exactly on a grid instant is thus ordered against
        that poll as the engine orders events: it counts at that poll
        when its frame arrived before the previous one (an ACK delay
        above ``poll_us``, or equal to it when the frame itself beat that
        poll), and one poll later otherwise.

        The marker is accounted when the transport reports, ahead of
        that instant.  If it is the phase's last, the coordinator's
        completion event takes its sequence number then rather than at
        the poll; that number orders it only against events landing
        exactly when the phase ends.
        """
        if self.transport.idle():
            self._marker(count, self.sim.now)
            return
        t0, first_poll = self.sim.now, self.sim.reserve_seq()

        def on_idle(key: EventKey) -> None:
            self._marker(count, self._poll_after(key, t0, first_poll))

        self.transport.set_on_idle(on_idle)

    def _poll_after(self, key: EventKey, t0: int, first_poll: int) -> int:
        """The first grid instant ``t0 + j * poll_us`` (``j >= 1``) whose
        poll runs after the event at ``key`` (see :meth:`_await_idle`)."""
        poll_us = self.poll_us
        j = max(1, -((t0 - key[0]) // poll_us))
        at, i = key, j
        while at[0] == t0 + i * poll_us and i > 1:
            origin = at[2]
            assert origin is not None  # only a first send has none, at t0
            at, i = origin, i - 1
        poll_at = t0 + i * poll_us
        precedes = at[0] < poll_at or (at[0] == poll_at and at[1] < first_poll)
        return t0 + (j if precedes else j + 1) * poll_us

    def _do_processing(self) -> int:
        if not self.active:
            return 0
        count = 0
        if self._changed_from is not None:
            count = self._reexecute_from(self._changed_from)
            self._changed_from = None
        # The marker must count queued outgoing traffic, not just
        # deliveries: a node whose inputs were ALL retracted re-executes
        # zero events yet still owes unsends -- if the coordinator closed
        # the group on a (sent=0, processed=0) cycle with those queued,
        # they would never be flushed and the replay would keep messages
        # the production execution retracted.  Traffic queued earlier
        # (e.g. boot sends) keeps the group open the same way.
        return count + len(self._send_buffer) + len(self._unsend_buffer)

    def _reexecute_from(self, key: tuple) -> int:
        """Rewind to the first processed entry at or after ``key`` and
        process everything from there on.  Returns the deliveries made."""
        history = self.history
        index = history.lower_bound(key)
        if index < len(history):
            self._rewind(index)
        last = history[-1].key if len(history) else ()
        pending = sorted(
            (e for e in self._inputs.values() if e.key > last), key=lambda e: e.key
        )
        count = 0
        for entry in self._replay_order(pending):
            entry.outputs = []
            self._execute(entry, self._take_checkpoint())
            count += 1
        for dst, uids in sorted(collect_unsends(self._end_replay()).items()):
            self._unsend_buffer.setdefault(dst, []).extend(uids)
        return count

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
                self._inputs_changed(key)
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
        self._inputs_changed(key)

    def _inputs_changed(self, key: OrderKey) -> None:
        if self._changed_from is None or key < self._changed_from:
            self._changed_from = key

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
    the step response time of Figures 6c/8c measures.  A phase-begin is
    an engine event only for a node with work in the phase
    (:meth:`LockstepStack.phase_idle`); those events' order -- arrival
    time, then node id -- fixes the order busy nodes process in, hence
    uid allocation.  Everything else is accounted, not simulated: an
    idle node's phase-begin and its count-0 marker are counted as control
    packets and the marker's arrival computed at broadcast, group-begins
    are applied to every node at broadcast, and every marker is folded
    into a running sum, so a phase costs its busy nodes' events plus one
    completion event at the latest marker's arrival.
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
        self._expected = 0
        self._reported = 0
        self._marker_sum = 0
        self._last_marker_us = 0
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
    def _open_phase(self, expected: int) -> None:
        self._expected = expected
        self._reported = 0
        self._marker_sum = 0
        self._last_marker_us = 0
        self._phase_done = not expected

    def _broadcast(self, kind: str, nodes: List[str]) -> None:
        """Begin a ``kind`` phase on ``nodes`` (sorted): an engine event
        for each node with work, a count-0 marker now for the rest."""
        self._open_phase(len(nodes))
        sim = self.network.sim
        for node_id in nodes:
            if self.stacks[node_id].phase_idle(kind):
                self._account_round_trip(node_id)
            else:
                sim.schedule(self.delay_to(node_id), self._deliver_ctrl, node_id, kind)

    def _account_round_trip(self, node_id: str) -> None:
        """Account a phase-begin handled at broadcast (an idle node's, or
        a group-begin) and its count-0 marker: both control packets, and
        the marker landing when the round trip to ``node_id`` would have
        ended."""
        stats = self.network.nodes[node_id].stats
        stats.control_packets_received += 1
        stats.control_packets_sent += 1
        self.on_marker(0, self.network.sim.now + 2 * self.delay_to(node_id))

    def _deliver_ctrl(self, node_id: str, kind: str) -> None:
        self.network.nodes[node_id].stats.control_packets_received += 1
        self.stacks[node_id]._on_coordinator(kind)

    def on_marker(self, count: int, arrives_us: int) -> None:
        """A marker carrying ``count``, reaching the coordinator at
        ``arrives_us``.

        Markers carry a count and nothing else, so they are accounted
        here rather than simulated one event each: when the last expected
        node has reported, a single completion event at the latest
        arrival ends the phase -- the instant the last marker would have
        been delivered."""
        self._reported += 1
        self._marker_sum += count
        self._last_marker_us = max(self._last_marker_us, arrives_us)
        if self._reported == self._expected:
            sim = self.network.sim
            sim.schedule(self._last_marker_us - sim.now, self._end_phase)

    def _end_phase(self) -> None:
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
        # A group-begin reads no clock and sends nothing, and no frame is
        # in flight after a barrier (every transport is idle, so every
        # frame was received and released), so it is applied to every
        # node here; only its round trip's packets and time are accounted.
        active = self._active_nodes()
        self._open_phase(len(active))
        for nid in active:
            self.stacks[nid]._begin_group(group, per_node.get(nid, []))
            self._account_round_trip(nid)
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
        self._broadcast(TRANSMIT, active)
        self._run_until_phase_done()
        sent = self._marker_sum
        self._broadcast(PROCESS, active)
        self._run_until_phase_done()
        processed = self._marker_sum
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
