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
(:meth:`~repro.simnet.network.Network.account`: the send pass every
packet takes -- the ACK's uid, counters, loss and delay draws and FIFO
front -- except that the engine sequence number its arrival event would
have had is reserved instead of pushed), and hands the sender its
*landing key* ``(time, seq)``.  An ACK that lands before the frame's
retransmission timeout clears the frame right away, as its arrival
event would have done by then; only one that lands after the timeout
is delivered as an engine event at its key.  So an ACK becomes a
:class:`~repro.simnet.messages.Message` only when it travels, as that
event or as an ordinary packet (below); otherwise it is just its
fields.  The timeout's key is reserved when the frame is sent and goes
on the engine's queue only if the frame or its ACK is lost, or the ACK
lands at or after the deadline.  Per-direction FIFO
delivery makes this exact: the first ACK accounted for a frame is the
first to land, so a later one clears nothing an earlier one did not --
unless that earlier one is still in flight as an event, which then does
the clearing.  The transport reports the instant its last frame was
cleared (:meth:`ReliableTransport.set_on_idle`), at which the lockstep
barrier sends the node's marker.

The accounting assumes that a node of the debugging network stays up
while packets to it are in flight (node failures are replayed logically
there).  Link fault windows can reorder or duplicate packets, so on a
network with any, ACKs travel as ordinary packets.

Sends toward a *down* node are blackholed deliberately (no retransmit
storm): a dead router receives nothing in the production network either,
so the replay must not stall trying to reach it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.simnet.engine import EventHandle
from repro.simnet.messages import Message
from repro.simnet.network import Network

RELIABLE_PROTOCOL = "_rel"
ACK_PROTOCOL = "_ack"

#: Retransmission timeout of a frame, in microseconds.
RTO_US = 50_000
#: Give up on a frame after this many retransmissions: the debugging
#: network is partitioned.
MAX_RETRIES = 100

#: An engine key ``(time_us, seq)``, reserved for an event that may never
#: be scheduled (:meth:`~repro.simnet.engine.Simulator.reserve_seq`).
EventKey = Tuple[int, int]


class _Frame:
    """A reliable frame: per-peer sequence number + the wrapped message
    and the transport that sent it."""

    __slots__ = ("seq", "msg", "sender")

    def __init__(self, seq: int, msg: Message, sender: "ReliableTransport"):
        self.seq = seq
        self.msg = msg
        self.sender = sender

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
        self, node_id: str, network: Network, deliver: Callable[[Message], None]
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.deliver = deliver
        self.rto_us = RTO_US
        self._stats = network.nodes[node_id].stats
        self._send_seq: Dict[str, int] = {}
        self._recv_next: Dict[str, int] = {}
        self._reorder: Dict[str, Dict[int, Message]] = {}
        self._outstanding: Dict[Tuple[str, int], _Outstanding] = {}
        #: Instant of the latest clearing since the transport was last idle.
        self._cleared_at = 0
        self._on_idle: Optional[Callable[[int], None]] = None
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
        self._transmit(dst, seq, msg, 0)
        return msg.uid

    def _transmit(self, dst: str, seq: int, msg: Message, attempt: int) -> None:
        """Send (``attempt`` 0) or resend ``msg``."""
        sim = self.network.sim
        if attempt > MAX_RETRIES:
            raise RuntimeError(
                f"reliable transport {self.node_id}->{dst} gave up after "
                f"{MAX_RETRIES} retries (seq={seq}); the debugging "
                "network is partitioned"
            )
        if not self.network.nodes[dst].up:
            # Blackhole toward a dead router; do not stall the replay.
            if self._outstanding.pop((dst, seq), None) is not None:
                self._cleared(sim.now)
            return
        if not self._outstanding:
            self._cleared_at = 0
        frame = _Frame(seq, msg, self)
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
        rto = (sim.now + self.rto_us, sim.reserve_seq())
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
        deadline, rto_seq = entry.rto
        entry.handle = self.network.sim.schedule_reserved(
            deadline, rto_seq, self._on_timeout, dst, seq
        )

    def _on_timeout(self, dst: str, seq: int) -> None:
        entry = self._outstanding.get((dst, seq))
        if entry is not None:
            self._transmit(dst, seq, entry.msg, entry.attempt + 1)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def on_wire(self, msg: Message) -> bool:
        """Feed a raw packet in.  Returns True if it was consumed here."""
        if msg.protocol == ACK_PROTOCOL:
            self._on_ack(msg.src, msg.payload, self.network.sim.now)
            return True
        if msg.protocol != RELIABLE_PROTOCOL:
            return False
        frame: _Frame = msg.payload
        frame.sender._acknowledged(
            frame, self.network.account(self.node_id, msg.src, ACK_PROTOCOL, frame.seq, 8)
        )
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

    def _acknowledged(self, frame: _Frame, landing: Optional[Tuple[int, int, int]]) -> None:
        """The frame's receiver sent an ACK for ``frame``, whose payload is
        the frame's sequence number; it lands at ``landing`` = ``(time,
        seq, uid)`` (``None``: lost, or travelling as an ordinary
        packet)."""
        peer = frame.msg.dst
        entry = self._outstanding.get((peer, frame.seq))
        if landing is not None:
            time_us, seq, uid = landing
            if entry is None or entry.ack_in_flight:
                # cleared by an earlier ACK (FIFO: it lands first), so this
                # one lands on nothing, which only the counters see
                self._stats.control_packets_received += 1
            elif time_us < entry.rto[0]:
                self._stats.control_packets_received += 1
                self._on_ack(peer, frame.seq, time_us)
                return
            else:  # lands at or after the timeout, which fires first
                entry.ack_in_flight = True
                self.network.deliver_at(
                    Message(
                        peer, self.node_id, ACK_PROTOCOL, frame.seq, uid=uid, size_bytes=8,
                        sent_at_us=self.network.sim.now,
                    ),
                    time_us,
                    seq,
                )
        # unless cleared above, this transmission times out as it would
        # have: its timeout goes on the queue (and an ACK event landing
        # before the deadline cancels it, as it always did)
        if entry is not None and entry.frame is frame and entry.handle is None:
            self._arm(peer, frame.seq, entry)

    def _on_ack(self, src: str, seq: int, at_us: int) -> None:
        entry = self._outstanding.pop((src, seq), None)
        if entry is not None:
            if entry.handle is not None:
                entry.handle.cancel()
            self._cleared(at_us)

    def _cleared(self, at_us: int) -> None:
        """A frame was cleared at ``at_us``; report the latest such instant
        once none is left outstanding."""
        if at_us > self._cleared_at:
            self._cleared_at = at_us
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

    def set_on_idle(self, callback: Callable[[int], None]) -> None:
        """Call ``callback`` once, when the last outstanding frame is
        cleared, with the instant at which the transport went idle: the
        latest instant at which any of the frames was cleared."""
        self._on_idle = callback
