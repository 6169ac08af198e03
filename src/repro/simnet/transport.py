"""Reliable, ordered transport (the debugging network's "TCP").

Section 2.3: *"The nodes use TCP for communication in order to ensure that
messages are not lost, which is necessary for determinism."*  Production
networks may drop packets (a recorded external fact), but the DEFINED-LS
debugging network must not -- a lost barrier marker would wedge the
lockstep protocol and a lost data message would diverge from the recorded
execution.

:class:`ReliableTransport` implements a per-peer stop-and-wait-window ARQ
with per-message sequence numbers: every logical message is wrapped in a
``_rel`` frame, acknowledged with ``_ack`` frames, retransmitted on
timeout, de-duplicated, and released to the receiver strictly in send
order.  The wrapped :class:`~repro.simnet.messages.Message` travels intact
(uid and annotation included), which the lockstep replay relies on for
anti-message bookkeeping.

Sends toward a *down* node are blackholed deliberately (no retransmit
storm): a dead router receives nothing in the production network either,
so the replay must not stall trying to reach it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.simnet.engine import EventHandle
from repro.simnet.messages import Message
from repro.simnet.network import Network

RELIABLE_PROTOCOL = "_rel"
ACK_PROTOCOL = "_ack"


@dataclass
class _Frame:
    """A reliable frame: per-peer sequence number + the wrapped message."""

    seq: int
    msg: Message

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_Frame(seq={self.seq}, proto={self.msg.protocol})"


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
        self._send_seq: Dict[str, int] = {}
        self._recv_next: Dict[str, int] = {}
        self._reorder: Dict[str, Dict[int, Message]] = {}
        self._outstanding: Dict[Tuple[str, int], Tuple[Message, EventHandle, int]] = {}
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
        self._transmit(dst, seq, msg, attempt=0)
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

    def _transmit(self, dst: str, seq: int, msg: Message, attempt: int) -> None:
        if attempt > self.max_retries:
            raise RuntimeError(
                f"reliable transport {self.node_id}->{dst} gave up after "
                f"{self.max_retries} retries (seq={seq}); the debugging "
                "network is partitioned"
            )
        if not self.network.nodes[dst].up:
            # Blackhole toward a dead router; do not stall the replay.
            self._outstanding.pop((dst, seq), None)
            return
        frame = _Frame(seq=seq, msg=msg)
        wire = Message(
            src=self.node_id,
            dst=dst,
            protocol=RELIABLE_PROTOCOL,
            payload=frame,
            size_bytes=msg.size_bytes + 8,
        )
        self.network.transmit(wire)
        self.frames_sent += 1
        if attempt > 0:
            self.retransmissions += 1
        handle = self.network.sim.schedule(
            self.rto_us, self._on_timeout, dst, seq, msg, attempt
        )
        self._outstanding[(dst, seq)] = (msg, handle, attempt)

    def _on_timeout(self, dst: str, seq: int, msg: Message, attempt: int) -> None:
        if (dst, seq) not in self._outstanding:
            return  # acked in the meantime
        self._transmit(dst, seq, msg, attempt + 1)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def on_wire(self, msg: Message) -> bool:
        """Feed a raw packet in.  Returns True if it was consumed here."""
        if msg.protocol == ACK_PROTOCOL:
            self._on_ack(msg.src, msg.payload)
            return True
        if msg.protocol != RELIABLE_PROTOCOL:
            return False
        frame: _Frame = msg.payload
        self._send_ack(msg.src, frame.seq)
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

    def _send_ack(self, dst: str, seq: int) -> None:
        ack = Message(
            src=self.node_id,
            dst=dst,
            protocol=ACK_PROTOCOL,
            payload=seq,
            size_bytes=8,
        )
        self.network.transmit(ack)

    def _on_ack(self, src: str, seq: int) -> None:
        entry = self._outstanding.pop((src, seq), None)
        if entry is not None:
            entry[1].cancel()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def idle(self) -> bool:
        """True when no frames await acknowledgement."""
        return not self._outstanding

    def outstanding_count(self) -> int:
        return len(self._outstanding)
