"""A DDOS-style stop-and-wait deterministic delivery stack.

DDOS (Hunt et al., ASPLOS 2013) achieves deterministic distributed
execution by *blocking*: when the application asks for the next message,
the runtime holds the read until it is sure no earlier message (in the
deterministic order) can still arrive.  No rollbacks, no checkpoints --
but every delivery waits out the worst-case skew, which is exactly why
the paper argues blocking "can slow down software that requires constant
communications, such as control-plane software" and builds DEFINED-RB on
speculation instead.

This stack delivers events in the *same* deterministic key order as
:class:`~repro.core.shim.DefinedShim` (group, d_i, n_i, s_i), but releases
each event only after a conservative hold: one maximum network propagation
time after arrival.  By then every message that could sort before it has
arrived, so in-order release is safe and the execution is deterministic
across seeds -- at the price of per-hop latency, which the ablation bench
(`benchmarks/test_ablations.py`) quantifies against DEFINED-RB.

Timers, annotations and the daemon dispatch are
:class:`~repro.core.rollback.ReplayStack`'s, as in the shim and the
lockstep node, so daemons run unmodified.  DDOS is the subclass that never
rewinds: it keeps no history and takes no checkpoints, and only the
release rule below is its own.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.core.groups import CHAIN_ALLOWANCE_US
from repro.core.history import HistoryEntry
from repro.core.ordering import OptimizedOrdering, OrderingFunction
from repro.core.rollback import ReplayStack
from repro.core.statestore import StateStore
from repro.core.virtual_time import TimerTable
from repro.simnet.events import ExternalEvent
from repro.simnet.messages import Message
from repro.simnet.node import Node


class DdosStack(ReplayStack):
    """Stop-and-wait deterministic delivery (no speculation)."""

    #: DDOS semantics: every communication step advances virtual time.  A
    #: group-g entry is only *released* once group g has closed, so its
    #: children must belong to the next group -- inheriting the group (as
    #: the speculative shim does) would create messages for an
    #: already-closed group.  This is also precisely why blocking
    #: determinism is slow for control planes: a k-hop causal chain costs
    #: k beacon intervals.
    chain_bound = 0
    #: No chain-delay spilling: every child already moves a group.
    spill_bound_us = 0
    hop_cost_us = 140

    def __init__(self, node: Node, ordering: Optional[OrderingFunction] = None) -> None:
        super().__init__(node, ordering if ordering is not None else OptimizedOrdering())
        # built once: the table and its sequence counter outlive reboots,
        # and nothing ever checkpoints it
        self.timers = TimerTable(StateStore())
        self._ext_seq = 0
        self._hold_us: Optional[int] = None
        # heap of (key, tie, entry)
        self._pending: List[Tuple[tuple, int, HistoryEntry]] = []
        self._tie = 0
        self._last_key: Optional[tuple] = None
        self.late_deliveries = 0
        self._booted_once = False
        #: Set by the harness to ``lambda: beacons.group`` so a rebooting
        #: stack can rejoin at the network's *current* group instead of
        #: virtual time 0 (mirrors the DEFINED shim's rejoin protocol).
        self.group_provider = None
        #: Smallest group whose traffic this incarnation can observe, and
        #: the sim time it booted: groups that closed before boot are
        #: releasable immediately (their messages were dropped while the
        #: node was down and can never arrive).
        self._min_group = 0
        self._boot_at_us = 0

    def hold_us(self) -> int:
        """Slack after a group's closing beacon before its messages are
        deemed complete: worst-case propagation plus
        :data:`~repro.core.groups.CHAIN_ALLOWANCE_US` (cached: the
        propagation bound walks the whole delay matrix)."""
        if self._hold_us is None:
            self._hold_us = self.node.network.max_propagation_us() + CHAIN_ALLOWANCE_US
        return self._hold_us

    def send(self, dst, protocol, payload, parent=None, size_bytes=64) -> None:
        network = self.node.network
        link_estimate_us = network.avg_link_delay_us(self.node.node_id, dst)
        network.transmit(
            self._outgoing(dst, protocol, payload, parent, size_bytes, link_estimate_us)
        )

    # ------------------------------------------------------------------
    # node-facing API
    # ------------------------------------------------------------------
    def start(self) -> None:
        reboot = self._booted_once
        self._booted_once = True
        self.vt = 0
        # the firings die with the incarnation; the origin, sub and timer
        # sequence counters keep running across the reboot
        for key, _armed in self.timers.snapshot()[0]:
            self.timers.cancel(key)
        self._pending = []
        self._last_key = None
        self._beacon_at = {0: 0}
        self._min_group = 0
        self._boot_at_us = 0
        if reboot:
            # Rejoin at the current group (beacon-service time is shared
            # deterministic state), not at virtual time 0: a time-0 reboot
            # would re-arm startup timers for long-closed groups and tag
            # originations with keys sorting below everything already
            # released network-wide.
            if self.group_provider is not None:
                self.vt = self.group_provider()
            self._min_group = self.vt
            self._boot_at_us = self.sim.now
            self._beacon_at = {self.vt: self.sim.now}
        if self.daemon is not None:
            self.daemon.on_start()

    def on_wire(self, msg: Message) -> None:
        if msg.protocol == "_beacon":
            if msg.payload > self.vt:
                self.vt = msg.payload
                self._beacon_at[msg.payload] = self.sim.now
                self._enqueue_due_timers()
                self._drain()
            return
        if msg.is_control:
            return
        if msg.annotation is None:
            raise ValueError("unannotated message reached a DDOS node")
        entry = HistoryEntry(
            kind="msg",
            key=self.ordering.key(msg.annotation),
            msg=msg,
            group=msg.annotation.group,
        )
        self._push(entry)

    def on_external(self, event: ExternalEvent) -> None:
        seq = self._ext_seq
        self._ext_seq += 1
        entry = HistoryEntry(
            kind="ext",
            key=self.ordering.external_key(self.vt, self.node.node_id, seq),
            event=event,
            group=self.vt,
            seq=seq,
        )
        self._push(entry)

    # ------------------------------------------------------------------
    # blocking release machinery
    # ------------------------------------------------------------------
    def _enqueue_due_timers(self) -> None:
        # a firing leaves the table when it is queued, so a re-arm before
        # its release is a new firing; all are taken before any is pushed
        # (a push can release entries, whose handlers may arm timers)
        due = []
        for entry in self._replay_order(()):
            self.timers.pop(entry.timer_key, entry.seq)
            due.append(entry)
        for entry in due:
            self._push(entry)

    def _push(self, entry: HistoryEntry) -> None:
        heapq.heappush(self._pending, (entry.key, self._tie, entry))
        self._tie += 1
        self._drain()

    def _schedule_drain(self, delay_us: int) -> None:
        self.sim.push(self.sim.now + delay_us, self._drain)

    def _safe_at(self, entry: HistoryEntry) -> Optional[int]:
        """Earliest time the head entry may be released.

        A group-*g* message is safe once group *g* has *closed*: the
        beacon opening *g+1* has been observed and a hold has elapsed, so
        no group-*g* message (with a possibly smaller key) is in flight.
        Timers and external events carry the group's smallest keys, so
        they only need the *previous* group closed.  ``None`` means the
        closing beacon has not even arrived yet.
        """
        close_group = entry.group if entry.kind == "msg" else entry.group - 1
        if close_group < self._min_group:
            # The group closed before this incarnation booted; anything
            # tagged with it that could still reach us already has (the
            # network dropped traffic to the node while it was down).
            return self._boot_at_us
        opened = self._beacon_at.get(close_group + 1)
        if opened is None:
            return None
        return opened + self.hold_us()

    def _drain(self) -> None:
        """Release, in key order, every head entry whose group has closed."""
        while self._pending:
            key, _tie, entry = self._pending[0]
            safe_at = self._safe_at(entry)
            if safe_at is None:
                return  # wait for the closing beacon; _drain reruns then
            if safe_at > self.sim.now:
                # nothing behind the head may jump the queue: that wait
                # is the stop-and-wait cost the ablation measures
                self._schedule_drain(safe_at - self.sim.now)
                return
            heapq.heappop(self._pending)
            if self._last_key is not None and key <= self._last_key:
                # the hold was not conservative enough for this arrival;
                # deliver anyway (dropping would break the protocol) and
                # count the ordering miss -- experiments assert zero
                self.late_deliveries += 1
            else:
                self._last_key = key
            self._invoke(entry, entry.tag())
