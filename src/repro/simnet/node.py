"""Nodes and protocol stacks.

A :class:`Node` is a host in the simulated network.  It owns two layers:

* a **daemon** -- the control-plane software (an OSPF/BGP/RIP
  implementation from :mod:`repro.routing`), and
* a **stack** -- the layer between the daemon and the wire.

The stack is where DEFINED lives.  Five stacks are provided across the
code base, all implementing the same :class:`Stack` interface:

* :class:`VanillaStack` (here) -- no instrumentation; messages are
  delivered in arrival order and timers fire on the (jittered) system
  clock.  This models an uninstrumented XORP/Quagga deployment and is the
  baseline in every figure.
* :class:`repro.core.shim.DefinedShim` -- DEFINED-RB.
* :class:`repro.core.lockstep.LockstepStack` -- DEFINED-LS.
* :class:`repro.baselines.ddos.DdosStack` -- the DDOS-style stop-and-wait
  baseline: deterministic by blocking instead of speculating.
* :class:`repro.baselines.logging_replay.LoggingStack` -- the vanilla
  stack plus a comprehensive log of every internal event (the log-volume
  baseline).

Daemons never talk to the network or the simulator directly; they only use
the :class:`Stack` API.  This is the paper's "user-space shim layer"
boundary: function wrappers around message sending, message receiving, and
timer calls.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.fingerprint import DeliveryLog
from repro.simnet.events import ExternalEvent
from repro.simnet.messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.network import Network


class Stack(abc.ABC):
    """Interface between a control-plane daemon and the network.

    The *app-facing* half (``send`` / ``set_timer`` / ``cancel_timer`` /
    ``time_units`` / ``neighbors``) is everything a daemon may use.  The
    *node-facing* half (``start`` / ``on_wire`` / ``on_external``) is
    driven by the :class:`Node` and the network.
    """

    def __init__(self, node: "Node") -> None:
        self.node = node
        #: The network's engine (a network keeps one for its lifetime).
        self.sim = node.network.sim
        #: Ordered log of events delivered to the daemon, as stable string
        #: tags.  The set of per-node logs is the run's *fingerprint*:
        #: two runs with equal fingerprints are the same execution in the
        #: sense of Netzer and Miller's lemma (Lemma 1).  The log keeps a
        #: rolling per-node digest so fingerprinting at run end is O(1)
        #: per node (see :class:`repro.core.fingerprint.DeliveryLog`).
        self.delivery_log: DeliveryLog = DeliveryLog()

    # ------------------------------------------------------------------
    # app-facing API
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def send(
        self,
        dst: str,
        protocol: str,
        payload: Any,
        parent: Optional[Message] = None,
        size_bytes: int = 64,
    ) -> None:
        """Send ``payload`` to the adjacent node ``dst``.

        ``parent`` marks the *immediate causal relationship* of Section 3:
        daemons pass the message they are currently processing so the shim
        can propagate (n_i, s_i, d_i) annotations and know what to unsend
        on rollback.  ``parent=None`` marks an *originated* message (caused
        by an external event or a timer).
        """

    @abc.abstractmethod
    def set_timer(self, delay_units: int, key: str) -> None:
        """Arm (or re-arm) the named timer ``delay_units`` virtual-time
        units in the future.  One unit corresponds to one beacon interval
        (250 ms by default)."""

    @abc.abstractmethod
    def cancel_timer(self, key: str) -> None:
        """Disarm the named timer.  Cancelling an unarmed timer is a no-op."""

    @abc.abstractmethod
    def time_units(self) -> int:
        """Current time in virtual-time units.  Under DEFINED this is the
        beacon-driven deterministic virtual clock (Section 3)."""

    def neighbors(self) -> List[str]:
        """Identifiers of nodes adjacent over currently-up links."""
        return self.node.network.live_neighbors(self.node.node_id)

    # ------------------------------------------------------------------
    # node-facing API
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def start(self) -> None:
        """Boot the stack and the daemon."""

    @abc.abstractmethod
    def on_wire(self, msg: Message) -> None:
        """A packet arrived from the network."""

    @abc.abstractmethod
    def on_external(self, event: ExternalEvent) -> None:
        """An external event was observed at this node."""

    def on_crash(self) -> None:
        """The node is about to fail-stop (``node_down``).

        Called while the node is still up, immediately before liveness
        flips.  The default is a true fail-stop (no goodbye); stacks that
        survive their daemon (the DEFINED shim interposes in user space)
        may use it to quantize the observable death to a deterministic
        boundary."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def log_delivery(self, tag: str) -> None:
        self.delivery_log.append(tag)

    @property
    def daemon(self):
        return self.node.daemon


class Node:
    """A host: daemon + stack + liveness state."""

    def __init__(self, node_id: str, network: "Network") -> None:
        self.node_id = node_id
        self.network = network
        self.up = True
        self.stack: Optional[Stack] = None
        self.daemon = None
        #: This node's counters in the network's :class:`RunStats`.
        self.stats = network.run_stats.node(node_id)

    def start(self) -> None:
        if self.stack is None:
            raise RuntimeError(f"node {self.node_id} has no stack attached")
        self.stack.start()

    def deliver(self, msg: Message) -> None:
        """Called by the network when a packet arrives."""
        if not self.up or self.stack is None:
            return
        if msg.protocol == "_beacon":
            self.stats.beacons_received += 1
        elif msg.is_control:
            self.stats.control_packets_received += 1
        else:
            self.stats.data_packets_received += 1
        self.stack.on_wire(msg)

    def observe_external(self, event: ExternalEvent) -> None:
        """Called by the network when an external event touches this node."""
        if not self.up or self.stack is None:
            return
        self.stack.on_external(event)

    def set_up(self, up: bool) -> None:
        self.up = up

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.node_id} {'up' if self.up else 'DOWN'}>"


class VanillaStack(Stack):
    """The uninstrumented baseline stack.

    Messages are delivered to the daemon immediately in arrival order --
    which, because link jitter differs run to run (seed to seed), makes
    the *ordering* of deliveries nondeterministic.  Timers fire on the
    simulated wall clock with a small jittered skew, making *timing*
    nondeterministic as well.  These are exactly the two classes of
    nondeterministic bugs the paper targets (Section 1).
    """

    def __init__(
        self,
        node: "Node",
        timer_jitter_us: int = 20_000,
        proc_model=None,
    ) -> None:
        super().__init__(node)
        self.timer_jitter_us = timer_jitter_us
        #: Optional callable ``rng -> cost_us`` modelling the daemon's
        #: baseline per-message processing time (the "XORP" lines of
        #: Figure 7b).  ``None`` means zero-cost processing.
        self.proc_model = proc_model
        self._timers: Dict[str, Any] = {}
        self._rng: Optional[random.Random] = None
        self._cost_rng: Optional[random.Random] = None
        self._send_delay_us = 0

    def _timer_rng(self) -> random.Random:
        if self._rng is None:
            self._rng = self.node.network.rng_stream(f"timer|{self.node.node_id}")
        return self._rng

    # -- app-facing ----------------------------------------------------
    def send(
        self,
        dst: str,
        protocol: str,
        payload: Any,
        parent: Optional[Message] = None,
        size_bytes: int = 64,
    ) -> None:
        msg = Message(
            src=self.node.node_id,
            dst=dst,
            protocol=protocol,
            payload=payload,
            size_bytes=size_bytes,
        )
        self.node.network.transmit(msg, extra_delay_us=self._send_delay_us)

    def set_timer(self, delay_units: int, key: str) -> None:
        self.cancel_timer(key)
        unit_us = self.node.network.time_unit_us
        jitter = 0
        if self.timer_jitter_us:
            # symmetric skew: real event loops fire early or late around
            # the nominal deadline; a one-sided jitter would accumulate
            # into a systematic drift for frequently re-armed timers
            jitter = self._timer_rng().randint(
                -self.timer_jitter_us, self.timer_jitter_us
            )
        handle = self.sim.schedule(
            max(0, delay_units * unit_us + jitter), self._fire_timer, key
        )
        self._timers[key] = handle

    def cancel_timer(self, key: str) -> None:
        handle = self._timers.pop(key, None)
        if handle is not None:
            handle.cancel()

    def time_units(self) -> int:
        return self.sim.now // self.node.network.time_unit_us

    # -- node-facing ----------------------------------------------------
    def start(self) -> None:
        if self.daemon is not None:
            self.daemon.on_start()

    def _proc_cost_us(self) -> int:
        if self.proc_model is None:
            return 0
        if self._cost_rng is None:
            self._cost_rng = self.node.network.rng_stream(
                f"cost|{self.node.node_id}"
            )
        return int(self.proc_model(self._cost_rng))

    def on_wire(self, msg: Message) -> None:
        if msg.is_control:
            return  # vanilla nodes ignore DEFINED control traffic
        self.log_delivery(f"msg:{msg.protocol}:{msg.src}:{_payload_tag(msg.payload)}")
        self.node.stats.deliveries += 1
        cost = self._proc_cost_us()
        if cost:
            self.node.stats.record_processing(cost)
        if self.daemon is not None:
            self._send_delay_us = cost
            try:
                self.daemon.on_message(msg)
            finally:
                self._send_delay_us = 0

    def on_external(self, event: ExternalEvent) -> None:
        self.log_delivery(f"ext:{event.kind}:{event.target!r}")
        if self.daemon is not None:
            self.daemon.on_external(event)

    def _fire_timer(self, key: str) -> None:
        if not self.node.up:
            return
        self._timers.pop(key, None)
        self.log_delivery(f"timer:{key}")
        if self.daemon is not None:
            self.daemon.on_timer(key)


def _payload_tag(payload: Any) -> str:
    """A stable, order-insensitive string tag for a message payload."""
    try:
        return repr(payload)
    except Exception:  # pragma: no cover - defensive
        return f"<{type(payload).__name__}>"
