"""DEFINED-RB: the per-node user-space shim (Sections 2.2 and 3).

The shim interposes between the control-plane daemon and the network,
wrapping message sending, message receiving, and timer calls.  It makes
the node's execution deterministic with an *optimistic* protocol:

1. every arrival is delivered to the daemon speculatively, after taking
   a checkpoint: at once, or -- a message of the node's current group --
   once its estimate ``d_i`` says it should have arrived (the *playout
   hold*, below);
2. every arrival is also checked against the deterministic ordering
   function over the sliding history window;
3. if the arrival should have been delivered *earlier* than something
   already delivered, the node rolls back: restore the checkpoint from
   the divergence point, *keep* the messages emitted since, replay the
   inputs in the correct order, then "unsend" the kept messages the
   replay did not emit again (anti-messages, which cascade at the
   receivers).

Step 3 is Time Warp's *lazy cancellation* (see :mod:`repro.core.rollback`):
a re-executed ``send()`` that reproduces a kept message byte for byte
adopts its uid and transmits nothing, so a rollback that changes no
output costs the neighbours nothing.  A kept message is adopted only if
it is **deliverable now** (link and both endpoints up, the test every
send makes): when a rollback straddles a link flap, the final execution
must record the re-emission as dropped and retract the copy sent while
the link was up, exactly as retract-everything would -- and a kept
message keeps the recorded outcome of the transmission that actually
happened, so :meth:`Recorder.record_send`'s last-outcome-wins stays
truthful without re-recording it.  :meth:`DefinedShim.on_crash` still
retracts everything: the daemon is dead, nothing re-executes.

Timers are virtualized: the daemon's timers live in a checkpointed
:class:`~repro.core.virtual_time.TimerTable` keyed to beacon-driven
virtual time, and timer firings flow through the same ordering/rollback
machinery as messages (they occupy ``major=-1`` slots in each group, i.e.
a group's timers are ordered before the group's messages).

**Playout hold.**  A message of the current group arriving before
``group opening + d_i +`` :data:`HOLD_SLACK_US` waits until then, and a
group's due timers fire at ``opening +`` :data:`HOLD_SLACK_US`, not at
the beacon.  An arrival earlier than its estimate would otherwise be
delivered ahead of inputs that sort below it and are still in flight,
each one a rollback.  The hold changes no ordering key and nothing the
replay reads, so nothing new is recorded; it only moves when inputs run.
A message past its instant, or of a past group, and every external event
and unsend are admitted at once.  A crash treats a held input as an
arrival the daemon has not yet run: a release finding its node down, or
rebooted since, does nothing.

The shim also implements the partial-recording hooks: external events are
tagged (group, origin-sequence) and logged, and sends that the physical
network cannot deliver (down link / dead peer) are logged as *drops* so
the lockstep replay, which runs over reliable transport, suppresses them.
"""

from __future__ import annotations

import bisect
import random
import warnings
from typing import Optional, Set

from repro.core.checkpoint import (
    Checkpoint,
    CheckpointStrategy,
    MemoryIntercept,
    baseline_processing_model,
)
from repro.core.groups import CHAIN_ALLOWANCE_US
from repro.core.history import HistoryEntry, WindowHeadroomStats
from repro.core.ordering import OptimizedOrdering, OrderingFunction
from repro.core.recorder import Recorder
from repro.core.rollback import (
    ReplayStack,
    collect_unsends,
    plan_replay,
    send_identity,
)
from repro.simnet.events import ExternalEvent
from repro.simnet.messages import Message, Unsend
from repro.simnet.node import Node


#: The playout hold's slack (module docstring): how long after its
#: estimated arrival a current-group message, and after its group's
#: opening a due timer, is held.  At 20 ms, holds moved send instants
#: across link events and so moved recorded drop sets and fingerprints.
HOLD_SLACK_US = 5_000


def default_window_us(network) -> int:
    """The default history-retention window for a network: 2x the max
    propagation time plus slack (the paper's footnote 3 uses mean +
    4 sigma; we add two beacon intervals and a 500 ms guard).

    Module-level so the window-envelope mapper (:mod:`repro.envelope`)
    can derive its ``--windows auto`` ladder from the same formula the
    shims will apply.
    """
    return (
        2 * network.max_propagation_us()
        + 2 * network.time_unit_us
        + 500_000
    )


class HistoryWindowWarning(UserWarning):
    """The sliding history window's slack ran out: an arrival sorted
    below an already-pruned entry, so its deterministic ordering cannot
    be guaranteed (it is delivered unordered and counted in
    ``late_deliveries``).

    This is a *misconfiguration signal*, not a transient: the window
    (:meth:`DefinedShim.window_us`) is too small for the deployment's
    jitter/propagation envelope.  ``deficit_us`` is a lower bound on how
    much more window would have been needed to cover this arrival --
    re-run with ``window_us >= window_us + deficit_us`` (or reduce the
    injected jitter).
    """

    def __init__(
        self,
        node_id: str,
        window_us: int,
        deficit_us: Optional[int],
        late_count: int,
    ) -> None:
        self.node_id = node_id
        self.window_us = window_us
        self.deficit_us = deficit_us
        self.late_count = late_count
        deficit = (
            f"short by >= {deficit_us}us"
            if deficit_us is not None
            else "deficit unknown (pruned entry predates measurement)"
        )
        super().__init__(
            f"history window exhausted at node {node_id}: arrival sorts "
            f"below the pruned window (window_us={window_us}, {deficit}; "
            f"late delivery #{late_count}); raise window_us or reduce "
            "delivery jitter"
        )


class DefinedShim(ReplayStack):
    """DEFINED-RB stack for one production-network node."""

    def __init__(
        self,
        node: Node,
        ordering: Optional[OrderingFunction] = None,
        strategy: Optional[CheckpointStrategy] = None,
        recorder: Optional[Recorder] = None,
        window_us: Optional[int] = None,
    ) -> None:
        super().__init__(node, ordering if ordering is not None else OptimizedOrdering())
        #: What checkpoints *cost* (the paper's fork variants); they are
        #: always *taken* as versions of the node's store.
        self.strategy = strategy if strategy is not None else MemoryIntercept()
        self.recorder = recorder
        self._window_us_override = window_us
        #: Deterministic per-hop estimate folded into d_i on top of the
        #: measured average link delay.  The paper measures link delays
        #: store-and-forward, which includes the receiver's processing
        #: time; omitting it would make long causal chains systematically
        #: later than their estimates and turn every flood into rollbacks.
        self.hop_cost_us = int(80 + self.strategy.delivery_mu)
        #: Chain-delay spill bound: one beacon interval.  An annotation
        #: whose accumulated d_i crosses it is deterministically assigned
        #: to the next group phase (see :meth:`Annotation.extended`), so
        #: the estimate stays honest -- a message is always tagged with
        #: the group phase it is *predicted to arrive in*.  Without the
        #: bound, long floods under super-beacon jitter carry estimates a
        #: whole phase stale, and their keys sort below a full group of
        #: delivered traffic at every receiver: rollback cascades then
        #: reach deeper than the history window and the replay diverges
        #: with zero slack deficits (the PR-4 Theorem-1 hole).
        self.spill_bound_us = node.network.time_unit_us

        self._ext_seq = 0
        self._annihilate_pending: Set[int] = set()
        #: Messages tagged with a group our beacon has not opened yet.
        #: Delivering them speculatively would be *guaranteed* wrong
        #: whenever that group has due timers (their keys sort first), so
        #: they wait -- at most one beacon-propagation skew -- and drain in
        #: arrival order when the beacon lands.  This is what keeps the
        #: optimized ordering's rollback count at the paper's "rare" level.
        self._future_buffer: list = []
        self._send_delay_us = 0
        self._group_open_us = 0
        #: Distinguishes the cold boot from a reboot (node_up after a
        #: node_down): a rebooting node must rejoin at the *current*
        #: group, not at virtual time 0.
        self._booted_once = False
        #: Bumped by every (re)boot: a held input released into a later
        #: boot than the one it arrived in is dropped, as the crash
        #: dropped it.
        self._boot_epoch = 0
        #: Arrival times of recent beacons (group -> sim time), kept for
        #: the crash protocol's group-closure test; pruned alongside the
        #: history window.
        self._beacon_seen_at: dict = {}
        self._window_us: Optional[int] = None
        self._cost_rng: Optional[random.Random] = None
        #: Arrivals that sorted below an already-pruned entry; determinism
        #: cannot be guaranteed for them (window mis-sized).  Counted so
        #: experiments can assert it stayed at zero.
        self.late_deliveries = 0
        #: Slack deficit of every *measured* late delivery, cumulative
        #: across reboots.  Warnings only surface the first/escalating
        #: deficits; the full distribution feeds :meth:`headroom_stats`
        #: and, through it, the window-envelope mapper's suggestion.
        self.deficit_samples_us: list = []
        #: Late deliveries whose pruned predecessor predates measurement:
        #: late for sure, deficit unknown.  Tracked separately instead of
        #: appending a fabricated 0 sample, which dragged the quantiles
        #: toward 0 and made ``envelope --suggest`` optimistic.
        self.deficit_unmeasured = 0
        #: While a late arrival is being delivered *outside* the ordered
        #: window, this floors the group that timers armed (and messages
        #: originated) by its processing are tagged with.  Without the
        #: floor they would inherit the arrival's stale group and re-enter
        #: the ordered machinery with keys sorting below delivered
        #: history -- crashing a rollback replay instead of just counting
        #: the one late delivery.
        self._unordered_floor: Optional[int] = None
        #: Largest slack deficit already reported via
        #: :class:`HistoryWindowWarning`; warnings are emitted on the
        #: first late delivery and on every deficit escalation, not per
        #: event -- a misconfigured run must not pay O(late_deliveries)
        #: warning traffic on its delivery hot path.
        self._reported_deficit_us: Optional[int] = None
        #: uid -> (delivery-log index, delivery time, expiry) of message
        #: entries pruned from the history window.  An unsend normally
        #: retracts its targets via the live history; one that arrives
        #: *after* its target was pruned (a rollback cascade outran the
        #: window) would otherwise leave the tag in the execution log
        #: forever -- a permanent fingerprint orphan that no counter
        #: records.  The map lets the retraction still happen, and the
        #: event is counted as a window deficit (the state rollback itself
        #: is unrecoverable: the checkpoint was released with the entry).
        #:
        #: **Fossil collection.**  Entries are dropped once no unsend can
        #: reach them, by this forward invariant.  Let ``W`` be the window
        #: (one per deployment: every shim of a network is built with the
        #: same one) and ``D`` the largest one-link average delay.
        #:
        #: (I) Every anti-message naming an output ``m`` leaves its
        #: sender no later than ``m.sent_at_us + W``.  Base: nothing has
        #: been unsent.  Step: :meth:`_unsend_outputs` is the one emitter
        #: (rollbacks and :meth:`on_crash` alike), and it drops every
        #: output older than ``W`` from the plan, counting it late.
        #:
        #: (II) It arrives no later than ``m.sent_at_us + W + D``, the
        #: entry's *expiry*: unsends go over
        #: :meth:`Network.transmit_deterministic` with the sender's
        #: average delay to ``m.dst`` -- no loss, no queueing, at most
        #: ``D``.
        #:
        #: (III) So at a prune at time ``now``, an entry whose expiry is
        #: ``< now`` can never be hit again: any unsend still to come
        #: arrives after ``now``, past the expiry, contradicting (II).
        #: :meth:`_prune_window` drops those entries and never inserts
        #: one that has already expired.  An entry whose expiry equals
        #: ``now`` stays until the next prune, because an unsend may
        #: still arrive later at this same instant.  The map therefore
        #: holds what was sent within ``W + D`` plus one beacon interval,
        #: not the whole run.
        #:
        #: The bound is keyed on ``sent_at_us``, not on the age of the
        #: delivery that emitted ``m``.  Under lazy cancellation a
        #: re-execution that adopts ``m`` keeps its uid and send time but
        #: re-delivers the emitting entry with a fresh ``delivered_at_us``,
        #: and ``keep_min`` keeps a quiet node's last entry rollback-able
        #: at any age.  A chain of rollbacks could therefore retract ``m``
        #: arbitrarily late, and only the output's own age bounds both
        #: cases.
        self._pruned_uid_log: dict = {}
        #: ``W + D`` above: how long after an output's send an unsend
        #: naming it can still arrive (bound on first prune).
        self._unsend_reach_us: Optional[int] = None
        #: Retractions the window no longer covers, counted into
        #: ``late_deliveries`` and the deficits too: unsends whose target
        #: had already been pruned here, and outputs this node did not
        #: unsend because they were older than the window.  Both are the
        #: same misconfiguration signal, seen from the retraction side.
        self.pruned_retractions = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot (or reboot, after a node_up event) the shim and daemon.

        A cold boot starts at virtual time 0 (all origins boot into group
        0 together).  A *reboot* performs the rejoin handshake first:
        learn the current group number from the beacon service (modelled
        as a deterministic query; a real deployment reads it off the next
        beacon or any annotated packet) and boot into *that* group.
        Booting at a stale virtual time would tag the boot traffic with a
        long-closed group, making it unorderably late at every receiver
        -- exactly the nondeterminism DEFINED exists to rule out.  The
        node's ``node_up`` observation is recorded at the rejoin group,
        and the lockstep replay reboots it at that same group
        (``LockstepStack.start`` uses the coordinator's current group).
        """
        reboot = self._booted_once
        self._booted_once = True
        self._boot_epoch += 1
        self.vt = 0
        self._boot()
        self._annihilate_pending.clear()
        self._future_buffer = []
        self._send_delay_us = 0
        self._beacon_seen_at = {}
        self._pruned_uid_log = {}
        if reboot:
            if self.recorder is not None and self.recorder.group_provider is not None:
                self.vt = self.recorder.group_provider()
            self._group_open_us = self.sim.now
        if self.daemon is not None:
            self.daemon.on_start()

    def _closed_before(self) -> int:
        """First group *not* provably complete at this node right now.

        Group ``g`` is complete (closed) once the beacon opening ``g+1``
        was observed at least one conservative hold ago -- the same bound
        the stop-and-wait DDOS baseline uses: worst-case propagation plus
        :data:`~repro.core.groups.CHAIN_ALLOWANCE_US` -- so no group-``g``
        message can still be in flight toward us.  Anything from the
        returned group onward may have unseen traffic pending.
        """
        hold_us = self.node.network.max_propagation_us() + CHAIN_ALLOWANCE_US
        cutoff = self.vt  # the current group is never closed
        while cutoff > 0:
            opened = self._beacon_seen_at.get(cutoff)
            if opened is not None and self.sim.now - opened >= hold_us:
                break  # group cutoff-1 is closed
            cutoff -= 1
        return cutoff

    def on_crash(self) -> None:
        """Quantize a fail-stop to a closed group boundary.

        The recording (and therefore the lockstep replay) kills a node at
        the granularity of a group: the replayed node processes *none* of
        the groups from its recorded ``node_down`` onward, and *all* of
        every earlier group.  Physically, though, the daemon dies
        mid-group: it has processed part of the open groups' traffic --
        and possibly answered it -- while more of that traffic is still
        in flight.  The shim interposes in user space and outlives the
        daemon, so it closes the gap the same way a rollback would: it
        retracts every delivery from the first non-closed group onward
        (truncating the execution log back to that boundary) and
        anti-messages everything those deliveries emitted.  It then
        retags the recorded ``node_down`` with that group, so the replay
        deactivates the node at exactly the retraction boundary -- which
        is what makes crash scenarios reproduce bit-for-bit even when
        the crash lands next to a group boundary with flood traffic in
        flight.
        """
        cutoff = self._closed_before()
        if self.recorder is not None:
            self.recorder.retag_topology_event(
                "node_down", self.node.node_id, cutoff
            )
        index = None
        for i, entry in enumerate(self.history.entries):
            if entry.group >= cutoff:
                index = i
                break
        if index is None:
            return
        rolled = self.history.truncate_from(index)
        base = rolled[0]
        if base.log_index >= 0:
            del self.delivery_log[base.log_index:]
        # no restore, no replay: the daemon is dead, so nothing will
        # re-emit these and every one of them is retracted
        self._unsend_outputs(msg for entry in rolled for msg in entry.outputs)

    # ------------------------------------------------------------------
    # app-facing API
    # ------------------------------------------------------------------
    def send(
        self,
        dst: str,
        protocol: str,
        payload,
        parent: Optional[Message] = None,
        size_bytes: int = 64,
    ) -> None:
        network = self.node.network
        link, src_node, dst_node, model, _jitter, _fifo = network.route(
            self.node.node_id, dst
        )
        msg = self._outgoing(dst, protocol, payload, parent, size_bytes, model.avg_us)
        deliverable = link.up and src_node.up and dst_node.up
        entry = self._current_entry
        kept = self._adopt(msg) if deliverable else None
        if kept is not None:
            # the copy on the wire is this message: same uid, nothing
            # sent, and its recorded outcome (delivered) stands
            entry.outputs.append(kept)
            return
        if self.recorder is not None:
            # every send's outcome is recorded, not just drops: the same
            # identity re-emitted by a rollback re-execution can flip
            # between deliverable and not when the rollback straddles a
            # link flap, and the replay must honor the *final* outcome
            self.recorder.record_send(send_identity(msg), deliverable)
        network.transmit(msg, extra_delay_us=self._send_delay_us)
        if deliverable and entry is not None:
            entry.outputs.append(msg)

    def _event_group(self) -> int:
        """As :meth:`ReplayStack._event_group`, except under an
        *unordered* (late) delivery.  Its group already fell off the
        history window: a timer based on it would expire into
        long-delivered groups and crash the ordered machinery, and an
        origination tagged with it would be unorderably late at every
        receiver, cascading one window miss across the network.  Both
        are floored to the current group instead (determinism for that
        arrival is forfeit either way -- it is counted late).
        """
        group = super()._event_group()
        if self._unordered_floor is not None:
            group = max(group, self._unordered_floor)
        return group

    # ------------------------------------------------------------------
    # node-facing API
    # ------------------------------------------------------------------
    def on_wire(self, msg: Message) -> None:
        if msg.protocol == "_beacon":
            self._on_beacon(msg.payload)
        elif msg.protocol == "_unsend":
            self._on_unsend(msg)
        elif msg.is_control:
            pass  # other control traffic is not for RB nodes
        else:
            self._on_data(msg)

    def on_external(self, event: ExternalEvent) -> None:
        group = self.vt
        seq = self._ext_seq
        self._ext_seq += 1
        # How far into the group the event landed.  Messages originated by
        # its processing start their d_i estimates from this offset: the
        # ordering function's arrival prediction assumes group-start
        # origins, and a mid-group event's flood genuinely arrives later
        # than the group's beacon-aligned traffic.  Deterministic (event
        # times and beacon arrivals are), and recorded for the replay.
        offset = max(0, self.sim.now - self._group_open_us)
        if self.recorder is not None:
            self.recorder.record_event(
                self.node.node_id, event, group, seq, self.sim.now,
                offset_us=offset,
            )
        entry = HistoryEntry(
            kind="ext",
            key=self.ordering.external_key(group, self.node.node_id, seq),
            event=event,
            group=group,
            seq=seq,
            origin_offset_us=offset,
        )
        self._admit(entry)

    # ------------------------------------------------------------------
    # beacons, timers, groups
    # ------------------------------------------------------------------
    def _on_beacon(self, group: int) -> None:
        if group <= self.vt:
            return
        self.vt = group
        self._group_open_us = self.sim.now
        self._beacon_seen_at[group] = self.sim.now
        if len(self._beacon_seen_at) > 16:
            for stale in [g for g in self._beacon_seen_at if g < group - 8]:
                del self._beacon_seen_at[stale]
        if self.timers.next_due(group) is not None:
            self.sim.push(
                self.sim.now + HOLD_SLACK_US, self._release_timers, self._boot_epoch
            )
        self._drain_future()
        self._prune_window()
        self._sample_memory()

    def _drain_future(self) -> None:
        """Admit (or hold) buffered messages whose group the beacon just
        opened, in their original arrival order."""
        ready = [m for m in self._future_buffer if m.annotation.group <= self.vt]
        if not ready:
            return
        self._future_buffer = [
            m for m in self._future_buffer if m.annotation.group > self.vt
        ]
        for msg in ready:
            self._admit_or_hold(msg)

    def _release_timers(self, epoch: int) -> None:
        """Fire the due timers held at a beacon (none, if a rollback's
        replay fired them already or the node crashed since)."""
        if epoch != self._boot_epoch or not self.node.up:
            return
        for entry in self._replay_order(()):
            self._admit(entry)

    # ------------------------------------------------------------------
    # admission: speculation + ordering check
    # ------------------------------------------------------------------
    def _on_data(self, msg: Message) -> None:
        if msg.uid in self._annihilate_pending:
            # an anti-message beat the message here; drop it on arrival
            self._annihilate_pending.discard(msg.uid)
            self.node.stats.annihilated += 1
            return
        if msg.annotation is None:
            raise ValueError(
                f"unannotated message {msg.describe()} reached a DEFINED-RB node"
            )
        if msg.annotation.group > self.vt:
            self._future_buffer.append(msg)
            return
        self._admit_or_hold(msg)

    def _admit_or_hold(self, msg: Message) -> None:
        """Admit ``msg`` now, or -- a current-group message ahead of its
        estimate -- at ``opening + d_i +`` :data:`HOLD_SLACK_US`."""
        annotation = msg.annotation
        if annotation.group == self.vt:
            release_us = self._group_open_us + annotation.delay_us + HOLD_SLACK_US
            if release_us > self.sim.now:
                self.sim.push(release_us, self._release, msg, self._boot_epoch)
                return
        self._admit_data(msg)

    def _release(self, msg: Message, epoch: int) -> None:
        if epoch == self._boot_epoch and self.node.up:
            self._admit_data(msg)

    def _admit_data(self, msg: Message) -> None:
        if msg.uid in self._annihilate_pending:
            self._annihilate_pending.discard(msg.uid)
            self.node.stats.annihilated += 1
            return
        entry = HistoryEntry(
            kind="msg",
            key=self.ordering.key(msg.annotation),
            msg=msg,
            group=msg.annotation.group,
        )
        index, exact = self.history.locate(entry.key)
        if exact:
            # Anti-message race: the upstream node rolled back and re-sent
            # this logical message, and the copies arrived out of send
            # order relative to the unsend.  Uids are globally increasing,
            # so the higher uid is the live version: replace a stale
            # delivery, or drop a stale arrival.
            held = self.history[index]
            assert held.kind == "msg" and held.msg is not None
            if msg.uid > held.msg.uid:
                self._rollback(index, [entry], removed_uids={held.msg.uid})
            else:
                # stale original outrun by its replacement: drop it here;
                # its unsend (still in flight) will find nothing to do
                self.node.stats.annihilated += 1
            return
        self._admit(entry, index)

    def _admit(self, entry: HistoryEntry, index: Optional[int] = None) -> None:
        """Deliver ``entry`` speculatively, or roll back to make room for
        it.  ``index`` is its insertion point, when the caller already
        located it."""
        if self.history.is_late(entry.key):
            # The window failed to cover this arrival; determinism is no
            # longer guaranteed for it.  Count it, surface the slack
            # deficit as a structured warning (window mis-sizing is a
            # configuration bug, not noise), and hand it straight to the
            # daemon outside the ordered window (crashing a production
            # router would be worse).  Experiments assert this stayed at 0.
            self.late_deliveries += 1
            deficit: Optional[int] = None
            pruned_at = self.history.last_pruned_at_us
            if pruned_at is not None and pruned_at >= 0:
                # the window would have needed to reach back to the
                # pruned predecessor's delivery; anything older is a
                # lower bound (the true predecessor may be older still)
                deficit = max(0, (self.sim.now - pruned_at) - self.window_us())
            self._record_window_deficit(deficit)
            self._deliver_unordered(entry)
            return
        if index is None:
            index = self.history.insertion_index(entry.key)
        if index == len(self.history):
            self._speculative_deliver(entry)
        else:
            new_inputs = [entry] if entry.kind != "timer" else []
            self._rollback(index, new_inputs, removed_uids=set())

    def _record_window_deficit(self, deficit: Optional[int]) -> None:
        """Count one window miss and surface first/escalating deficits.

        ``deficit=None`` means "late, but the pruned predecessor predates
        measurement": counted as unmeasured, never invented as a zero
        sample (that conflation skewed the headroom quantiles).
        """
        if deficit is None:
            self.deficit_unmeasured += 1
        else:
            self.deficit_samples_us.append(deficit)
        escalated = self._reported_deficit_us is None or (
            deficit is not None and deficit > self._reported_deficit_us
        )
        if escalated:
            self._reported_deficit_us = deficit or 0
            warnings.warn(
                HistoryWindowWarning(
                    node_id=self.node.node_id,
                    window_us=self.window_us(),
                    deficit_us=deficit,
                    late_count=self.late_deliveries,
                ),
                stacklevel=3,
            )

    def _speculative_deliver(self, entry: HistoryEntry) -> None:
        rng = self._costs()
        checkpoint_cost = self.strategy.delivery_cost_us(rng)
        processing_cost = baseline_processing_model(rng)
        self.node.stats.record_processing(checkpoint_cost + processing_cost)
        # Outputs leave after the *nominal* processing latency, which is
        # exactly the per-hop term folded into d_i.  Charging the sampled
        # cost instead would add hop-accumulated variance that the delay
        # estimates cannot see, turning flood waves into rollback storms.
        # The sampled distribution still feeds the Figure 7b statistics.
        self._deliver(entry, self._take_checkpoint(), extra_delay_us=self.hop_cost_us)

    def _deliver_unordered(self, entry: HistoryEntry) -> None:
        """Late-arrival escape hatch: bypass the ordered window entirely.

        The floor keeps the damage contained to this one delivery: timers
        and originations triggered by it are tagged with the *current*
        group, not the arrival's long-pruned one (see
        :meth:`_event_group`).
        """
        self._unordered_floor = self.vt
        try:
            self._invoke(entry, "late:" + entry.tag())
        finally:
            self._unordered_floor = None

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _deliver(
        self, entry: HistoryEntry, checkpoint: Checkpoint, extra_delay_us: int
    ) -> None:
        self._send_delay_us = extra_delay_us
        try:
            self._execute(entry, checkpoint)
        finally:
            self._send_delay_us = 0

    # ------------------------------------------------------------------
    # rollback
    # ------------------------------------------------------------------
    def _on_unsend(self, msg: Message) -> None:
        self.node.stats.unsends_received += 1
        unsend: Unsend = msg.payload
        uids = set(unsend.uids)
        if self._future_buffer:
            # messages still held in the future buffer are simply forgotten
            still_held = []
            for held in self._future_buffer:
                if held.uid in uids:
                    uids.discard(held.uid)
                    self.node.stats.annihilated += 1
                else:
                    still_held.append(held)
            self._future_buffer = still_held
        pruned_hits = sorted(u for u in uids if u in self._pruned_uid_log)
        if pruned_hits:
            self._retract_pruned(pruned_hits)
            uids -= set(pruned_hits)
        history = self.history
        index = len(history)
        for uid in unsend.uids:
            if uid in uids:
                hit = history.index_of_uid(uid)
                if hit is None:
                    # not yet arrived: annihilated on arrival
                    self._annihilate_pending.add(uid)
                elif hit < index:
                    index = hit
        if index < len(history):
            self._rollback(index, [], removed_uids=uids)

    def _retract_pruned(self, uids: list) -> None:
        """An unsend reached back *past* the pruned history window.

        The rollback cascade outran the retention window: the targeted
        deliveries' checkpoints and output records are gone, so the state
        rollback and the unsend cascade cannot happen -- determinism for
        this node is forfeit, exactly like a late arrival, and it is
        counted the same way (``late_deliveries`` + a slack deficit, so
        "verified" stays an honest claim).  What *can* still be honored
        is the execution log: the tags are excised so the fingerprint
        reflects the final execution instead of keeping orphans of a
        retracted causal chain forever.
        """
        hits = [self._pruned_uid_log.pop(u) for u in uids]
        removed = sorted(idx for idx, _at, _expiry in hits)
        now = self.sim.now
        for _idx, delivered_at, _expiry in hits:
            self.late_deliveries += 1
            self.pruned_retractions += 1
            self._record_window_deficit(
                max(0, (now - delivered_at) - self.window_us())
            )
        for i in reversed(removed):
            del self.delivery_log[i]
        # log indices of everything delivered after an excised tag shift
        # down; fix up the live history and the remaining pruned map
        def _shifted(index: int) -> int:
            return index - bisect.bisect_left(removed, index)

        for entry in self.history.entries:
            if entry.log_index >= 0:
                entry.log_index = _shifted(entry.log_index)
        self._pruned_uid_log = {
            u: (_shifted(idx), at, expiry)
            for u, (idx, at, expiry) in self._pruned_uid_log.items()
        }

    def _unsend_outputs(self, retracted) -> None:
        """Anti-message the retracted outputs a receiver may still hold.

        An output sent more than a window ago is **not** unsent: its
        receiver may have pruned the delivery already, and bounding every
        anti-message by its output's age is what lets the pruned map be
        fossil-collected (see ``_pruned_uid_log``).  The retraction is
        counted like a late arrival, with a deficit of how far the output
        outran the window, so "verified" stays an honest claim.
        """
        now = self.sim.now
        window = self.window_us()
        live = []
        for msg in retracted:
            age = now - msg.sent_at_us
            if age > window:
                self.late_deliveries += 1
                self.pruned_retractions += 1
                self._record_window_deficit(age - window)
            else:
                live.append(msg)
        plan = collect_unsends(live)
        network = self.node.network
        for dst in sorted(plan):
            self.node.stats.unsends_sent += 1
            unsend_msg = Message(
                src=self.node.node_id,
                dst=dst,
                protocol="_unsend",
                payload=Unsend(uids=tuple(plan[dst])),
                size_bytes=16 + 8 * len(plan[dst]),
            )
            # Control traffic rides a reliable channel (the paper assumes
            # TCP); deterministic average delay, immune to link loss.
            network.transmit_deterministic(
                unsend_msg, network.avg_link_delay_us(self.node.node_id, dst)
            )

    def _rollback(self, index, new_entries, removed_uids: Set[int]) -> None:
        if self._kept is not None:
            raise RuntimeError(
                "rollback triggered during replay; replay must be in-order"
            )
        # 1.-3. restore daemon + shim state from the divergence point,
        # retract the rolled-back deliveries from the execution log and
        # keep what they emitted for the replay to adopt
        rolled = self._rewind(index)
        emitted = len(self._kept)

        # 4. replay inputs in the correct order, interleaving due timers
        rng = self._costs()
        total_cost = self.strategy.restore_cost_us(rng)
        try:
            for chosen in self._replay_order(
                plan_replay(rolled, new_entries, removed_uids)
            ):
                total_cost += self.strategy.replay_cost_us(rng)
                self._deliver(chosen, self._take_checkpoint(), extra_delay_us=total_cost)
        finally:
            retracted = self._end_replay()

        # 5. anti-messages, in this same engine event: unsend only what
        # the replay did not emit again
        self._unsend_outputs(retracted)
        self.node.stats.record_rollback(
            total_cost,
            len(rolled),
            outputs_kept=emitted - len(retracted),
            outputs_retracted=len(retracted),
        )

    # ------------------------------------------------------------------
    # window pruning + memory accounting
    # ------------------------------------------------------------------
    def window_us(self) -> int:
        """History retention window: the explicit override, or the
        network-derived default (:func:`default_window_us`)."""
        if self._window_us is None:
            if self._window_us_override is not None:
                self._window_us = self._window_us_override
            else:
                self._window_us = default_window_us(self.node.network)
        return self._window_us

    def headroom_stats(self) -> WindowHeadroomStats:
        """The slack-deficit distribution this node measured so far."""
        return WindowHeadroomStats.from_samples(
            self.window_us(),
            self.deficit_samples_us,
            unmeasured_count=self.deficit_unmeasured,
        )

    def _prune_window(self) -> None:
        now = self.sim.now
        if self._pruned_uid_log:
            # fossil collection: drop what no unsend can reach any more
            self._pruned_uid_log = {
                u: hit for u, hit in self._pruned_uid_log.items() if hit[2] >= now
            }
        cutoff = now - self.window_us()
        history = self.history
        if cutoff <= 0 or not history or history[0].delivered_at_us >= cutoff:
            return  # the oldest entry has not aged out: nothing to prune
        dropped: list = []
        pruned = history.prune_before_time(cutoff, collect=dropped)
        reach = self._unsend_reach_us
        if reach is None:
            reach = self._unsend_reach_us = (
                self.window_us() + self.node.network.max_link_delay_us()
            )
        for entry in dropped:
            if entry.kind == "msg" and entry.log_index >= 0:
                expiry = entry.msg.sent_at_us + reach
                if expiry >= now:
                    self._pruned_uid_log[entry.msg.uid] = (
                        entry.log_index, entry.delivered_at_us, expiry
                    )
        if pruned and history:
            # entries older than the window can never be rolled back to
            # again (Lemma 2): release their private copies in the store
            oldest = history[0].checkpoint
            if oldest is not None:
                self._store.release_before(oldest.version)

    def _sample_memory(self) -> None:
        # real shared-vs-private accounting: the live state is shared
        # with every checkpoint; the store's undo journals are the
        # private bytes the checkpoints actually instantiated
        virtual, physical = self.strategy.memory_bytes(
            len(self.history), self._store.private_bytes()
        )
        self.node.stats.record_memory(virtual, physical)

    def _costs(self) -> random.Random:
        if self._cost_rng is None:
            self._cost_rng = self.node.network.rng_stream(
                f"cost|{self.node.node_id}"
            )
        return self._cost_rng
