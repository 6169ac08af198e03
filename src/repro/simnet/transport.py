"""Reliable, ordered transport (the debugging network's "TCP").

Section 2.3: *"The nodes use TCP for communication in order to ensure that
messages are not lost, which is necessary for determinism."*  Production
networks may drop packets (a recorded external fact), but the DEFINED-LS
debugging network must not -- a lost barrier marker would wedge the
lockstep protocol and a lost data message would diverge from the recorded
execution.

:class:`ReliableTransport` implements a per-peer stop-and-wait-window ARQ
with per-message sequence numbers: every logical message is wrapped in a
``_rel`` frame, acknowledged with an ``_ack``, retransmitted on timeout,
de-duplicated, and released to the receiver strictly in send order.  The
wrapped :class:`~repro.simnet.messages.Message` travels intact (uid and
annotation included), which the lockstep replay relies on for
anti-message bookkeeping.

**ACKs and RTO timers are accounted, not simulated.**  A receiver
accounts a frame's ACK the moment the frame arrives
(:meth:`~repro.simnet.network.Network.account`: the ACK's uid, counters,
loss and delay draws and FIFO front, plus the engine sequence number its
arrival event would have had), and hands the sender its *landing key*
``(time, seq)``.  An ACK that lands before the frame's retransmission
timeout clears the frame right away, as its arrival event would have
done by then; only one that lands after the timeout is delivered as an
engine event at its key.  The timeout's key is reserved when the frame
is sent and goes on the engine's queue only if the frame or its ACK is
lost, or the ACK lands at or after the deadline.  Per-direction FIFO
delivery makes this exact: the first ACK accounted for a frame is the
first to land, so a later one clears nothing an earlier one did not --
unless that earlier one is still in flight as an event, which then does
the clearing.  Every key a cleared frame reports (:meth:`ReliableTransport.
set_on_idle`) carries the key of the event that reserved its sequence
number, back to the send, so the lockstep barrier can order the moment a
node's transport went idle against the polls it no longer simulates.

The accounting assumes that a node of the debugging network stays up
while packets to it are in flight (node failures are replayed logically
there).  Link fault windows can reorder or duplicate packets, so on a
network with any, ACKs travel as ordinary packets.

Sends toward a *down* node are blackholed deliberately (no retransmit
storm): a dead router receives nothing in the production network either,
so the replay must not stall trying to reach it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.simnet.engine import EventHandle
from repro.simnet.messages import Message
from repro.simnet.network import Network

RELIABLE_PROTOCOL = "_rel"
ACK_PROTOCOL = "_ack"

#: An engine key ``(time_us, seq, origin)``: ``origin`` is the key of the
#: event during which ``seq`` was reserved (``None`` for a first send).
#: Two events at one instant run in ``seq`` order, i.e. in the order their
#: origins ran; the chain lets the lockstep barrier compare a key with an
#: event that never existed (see :meth:`LockstepStack._await_idle`).
EventKey = Tuple[int, int, Optional["EventKey"]]


class _Frame:
    """A reliable frame: per-peer sequence number + the wrapped message,
    the transport that sent it and the key of the event that did."""

    __slots__ = ("seq", "msg", "sender", "sent_at")

    def __init__(self, seq: int, msg: Message, sender: "ReliableTransport", sent_at: EventKey):
        self.seq = seq
        self.msg = msg
        self.sender = sender
        self.sent_at = sent_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_Frame(seq={self.seq}, proto={self.msg.protocol})"


class _Outstanding:
    """A frame awaiting its ACK: the latest transmission and its timeout."""

    __slots__ = ("msg", "frame", "attempt", "rto", "handle", "ack_in_flight")

    def __init__(self, msg: Message, frame: _Frame, rto: EventKey) -> None:
        self.msg = msg
        self.frame = frame
        self.attempt = 0
        #: The timeout's key; it is on the engine's queue iff ``handle``.
        self.rto = rto
        self.handle: Optional[EventHandle] = None
        #: An ACK for this frame is on its way as an engine event (and,
        #: per-direction FIFO, lands before any ACK accounted after it).
        self.ack_in_flight = False


class ReliableTransport:
    """Per-node reliable channel multiplexer.

    One instance lives inside each DEFINED-LS stack.  ``deliver`` is
    invoked exactly once per logical message, in per-sender FIFO order,
    regardless of loss or reordering on the underlying links.
    """

    def __init__(
        self,
        node_id: str,
        network: Network,
        deliver: Callable[[Message], None],
        rto_us: int = 100_000,
        max_retries: int = 100,
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.deliver = deliver
        self.rto_us = rto_us
        self.max_retries = max_retries
        self._stats = network.nodes[node_id].stats
        self._send_seq: Dict[str, int] = {}
        self._recv_next: Dict[str, int] = {}
        self._reorder: Dict[str, Dict[int, Message]] = {}
        self._outstanding: Dict[Tuple[str, int], _Outstanding] = {}
        #: Key of the latest clearing since the transport was last idle.
        self._cleared_at: Optional[EventKey] = None
        self._on_idle: Optional[Callable[[EventKey], None]] = None
        self.frames_sent = 0
        self.retransmissions = 0

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send_message(self, msg: Message) -> int:
        """Reliably send one logical message.  Returns its uid."""
        if msg.uid < 0:
            msg.uid = self.network.next_uid()
        dst = msg.dst
        seq = self._send_seq.get(dst, 0)
        self._send_seq[dst] = seq + 1
        sim = self.network.sim
        self._transmit(dst, seq, msg, 0, (sim.now, sim.current_seq, None))
        return msg.uid

    def send(self, dst: str, protocol: str, payload: Any, size_bytes: int = 64) -> int:
        """Convenience wrapper building the logical message in place."""
        return self.send_message(
            Message(
                src=self.node_id,
                dst=dst,
                protocol=protocol,
                payload=payload,
                size_bytes=size_bytes,
            )
        )

    def _transmit(self, dst: str, seq: int, msg: Message, attempt: int, now: EventKey) -> None:
        """Send (``attempt`` 0) or resend ``msg`` during the event ``now``."""
        if attempt > self.max_retries:
            raise RuntimeError(
                f"reliable transport {self.node_id}->{dst} gave up after "
                f"{self.max_retries} retries (seq={seq}); the debugging "
                "network is partitioned"
            )
        if not self.network.nodes[dst].up:
            # Blackhole toward a dead router; do not stall the replay.
            if self._outstanding.pop((dst, seq), None) is not None:
                self._cleared(now)
            return
        if not self._outstanding:
            self._cleared_at = None
        frame = _Frame(seq, msg, self, now)
        wire = Message(
            src=self.node_id,
            dst=dst,
            protocol=RELIABLE_PROTOCOL,
            payload=frame,
            size_bytes=msg.size_bytes + 8,
        )
        arrival = self.network.transmit_timed(wire)
        self.frames_sent += 1
        if attempt > 0:
            self.retransmissions += 1
        sim = self.network.sim
        rto = (sim.now + self.rto_us, sim.reserve_seq(), now)
        entry = self._outstanding.get((dst, seq))
        if entry is None:
            entry = self._outstanding[dst, seq] = _Outstanding(msg, frame, rto)
        else:  # a retransmission, from the timeout that just fired
            entry.frame, entry.rto, entry.handle = frame, rto, None
            entry.attempt = attempt
        if arrival is None or arrival >= rto[0]:
            self._arm(dst, seq, entry)

    def _arm(self, dst: str, seq: int, entry: _Outstanding) -> None:
        """Put ``entry``'s timeout on the engine's queue, at its key."""
        deadline, rto_seq, _origin = entry.rto
        entry.handle = self.network.sim.schedule_reserved(
            deadline, rto_seq, self._on_timeout, dst, seq
        )

    def _on_timeout(self, dst: str, seq: int) -> None:
        entry = self._outstanding.get((dst, seq))
        if entry is not None:
            self._transmit(dst, seq, entry.msg, entry.attempt + 1, entry.rto)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def on_wire(self, msg: Message) -> bool:
        """Feed a raw packet in.  Returns True if it was consumed here."""
        sim = self.network.sim
        if msg.protocol == ACK_PROTOCOL:
            seq, origin = msg.payload
            self._on_ack(msg.src, seq, (sim.now, sim.current_seq, origin))
            return True
        if msg.protocol != RELIABLE_PROTOCOL:
            return False
        frame: _Frame = msg.payload
        arrived = (sim.now, sim.current_seq, frame.sent_at)
        ack = Message(
            src=self.node_id,
            dst=msg.src,
            protocol=ACK_PROTOCOL,
            payload=(frame.seq, arrived),
            size_bytes=8,
        )
        frame.sender._acknowledged(frame, ack, self.network.account(ack))
        expected = self._recv_next.get(msg.src, 0)
        if frame.seq < expected:
            return True  # duplicate of something already released
        buf = self._reorder.setdefault(msg.src, {})
        buf[frame.seq] = frame.msg
        while expected in buf:
            logical = buf.pop(expected)
            expected += 1
            self._recv_next[msg.src] = expected
            self.deliver(logical)
        return True

    def _acknowledged(
        self, frame: _Frame, ack: Message, landing: Optional[Tuple[int, int]]
    ) -> None:
        """The peer sent ``ack`` for ``frame``; it lands at ``landing``
        (``None``: lost, or travelling as an ordinary packet)."""
        entry = self._outstanding.get((ack.src, frame.seq))
        if landing is not None:
            time_us, seq = landing
            if entry is None or entry.ack_in_flight:
                # cleared by an earlier ACK (FIFO: it lands first), so this
                # one lands on nothing, which only the counters see
                self._stats.control_packets_received += 1
            elif time_us < entry.rto[0]:
                self._stats.control_packets_received += 1
                self._on_ack(ack.src, frame.seq, (time_us, seq, ack.payload[1]))
                return
            else:  # lands at or after the timeout, which fires first
                entry.ack_in_flight = True
                self.network.deliver_at(ack, time_us, seq)
        # unless cleared above, this transmission times out as it would
        # have: its timeout goes on the queue (and an ACK event landing
        # before the deadline cancels it, as it always did)
        if entry is not None and entry.frame is frame and entry.handle is None:
            self._arm(ack.src, frame.seq, entry)

    def _on_ack(self, src: str, seq: int, key: EventKey) -> None:
        entry = self._outstanding.pop((src, seq), None)
        if entry is not None:
            if entry.handle is not None:
                entry.handle.cancel()
            self._cleared(key)

    def _cleared(self, key: EventKey) -> None:
        """A frame was cleared at ``key``; report the latest such key once
        none is left outstanding."""
        if self._cleared_at is None or key[:2] > self._cleared_at[:2]:
            self._cleared_at = key
        if not self._outstanding and self._on_idle is not None:
            callback, self._on_idle = self._on_idle, None
            callback(self._cleared_at)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def idle(self) -> bool:
        """True when no frame awaits an acknowledgement still to be sent
        or still to land after its timeout."""
        return not self._outstanding

    def set_on_idle(self, callback: Callable[[EventKey], None]) -> None:
        """Call ``callback`` once, when the last outstanding frame is
        cleared, with the key at which the transport went idle: the
        latest key at which any of the frames was cleared."""
        self._on_idle = callback

    def outstanding_count(self) -> int:
        return len(self._outstanding)
