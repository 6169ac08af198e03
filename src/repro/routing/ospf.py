"""A link-state routing daemon (the reproduction's "XORP OSPF 1.6").

Implements the parts of OSPF the paper's evaluation exercises:

* periodic **hello** traffic to statically configured neighbors (the
  paper stresses the design by shrinking XORP's hello/retransmit
  intervals to 1 second);
* **LSA origination** on interface events: a link failure or repair,
  observed as an external event at both endpoints, bumps the router's
  LSA sequence number and floods a fresh LSA -- the "withdraw message
  when a link goes down" origination of Section 2.2;
* **reliable flooding**: LSAs are acknowledged hop-by-hop and
  retransmitted on a timer until acked, mirroring XORP's retransmit
  machinery.  The optional ``forward_delay_units`` reproduces the 1 s
  propagation delay XORP's default configuration introduces between
  receiving an LSA and flooding it onward (the paper removes that delay
  to make DEFINED's overhead visible in Figure 6b; we default to the
  removed-delay configuration for the same reason);
* **SPF**: two-way-checked adjacency from the LSDB, Dijkstra with
  deterministic tie-breaks, hop-count metric.  The routing table is a
  *derived view* of the LSDB: computed on first read
  (:meth:`OspfDaemon.routing_distances`, :meth:`OspfDaemon.state`),
  dropped whenever the LSDB can have changed (LSA install, which every
  boot begins with; any store rewind) and never checkpointed -- a
  rollback restores the LSDB and the table follows.  Flooding decides on
  LSA sequence numbers and interface state alone and never reads the
  table, so deliveries that nobody probes run no Dijkstra at all (real
  OSPF holds SPF behind a delay timer for the same reason).

Causal marking: LSAs flooded onward pass the incoming LSA as ``parent``;
LSAs originated by interface events or retransmit timers are new causal
chains (``parent=None``), exactly the Section 3 contract.

Checkpointing happens on *every* delivery (Section 3), so all mutable
protocol state lives in namespaces of
``self.store`` (immutable values, sorted iteration, write-barrier
mutation), and the shim checkpoints it copy-on-write by store version --
O(dirty keys) per delivery instead of a deepcopy of the whole LSDB.
Reading the routing table never writes to the store, so probing between
deliveries cannot move journals, memory samples or fingerprints.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from repro.routing.base import Daemon
from repro.routing.spf import dijkstra
from repro.simnet.events import ExternalEvent, LINK_DOWN, LINK_UP
from repro.simnet.messages import Message
from repro.simnet.node import Stack

PROTO_HELLO = "ospf_hello"
PROTO_LSA = "ospf_lsa"
PROTO_ACK = "ospf_ack"

#: Virtual-time units between a router's hellos.
HELLO_INTERVAL_UNITS = 4
#: Virtual-time units before an unacknowledged LSA is sent again.
RETRANSMIT_UNITS = 4

#: LSA payloads are plain tuples so their repr (used in delivery-log tags)
#: is deterministic: ("lsa", router, seq, (sorted live neighbor ids)).
LsaPayload = Tuple[str, str, int, Tuple[str, ...]]


class OspfDaemon(Daemon):
    """Link-state routing daemon."""

    def __init__(
        self,
        node_id: str,
        stack: Stack,
        neighbors: List[str],
        forward_delay_units: int = 0,
    ) -> None:
        super().__init__(node_id, stack)
        self.neighbors = sorted(neighbors)
        self.forward_delay_units = forward_delay_units

        # mutable protocol state: namespaced sub-stores, all checkpointed
        self.live_interfaces = self.store.namespace("live_interfaces")
        self.lsdb = self.store.namespace("lsdb")
        self.pending_acks = self.store.namespace("pending_acks")
        self.delayed_floods = self.store.namespace("delayed_floods")
        self._meta = self.store.namespace("meta")
        self._meta["my_seq"] = 0
        self._meta["hello_count"] = 0
        #: ``(distances, first_hops)`` over the current LSDB, or ``None``
        #: when the LSDB may have changed since they were computed.
        self._spf: Optional[Tuple[Dict[str, int], Dict[str, Optional[str]]]] = None
        self.lsdb.add_listener(self._drop_spf)  # the store rewound the LSDB

    # ------------------------------------------------------------------
    # scalar counters (namespace-backed so checkpoints cover them)
    # ------------------------------------------------------------------
    @property
    def my_seq(self) -> int:
        return self._meta["my_seq"]

    @my_seq.setter
    def my_seq(self, value: int) -> None:
        self._meta["my_seq"] = value

    @property
    def hello_count(self) -> int:
        return self._meta["hello_count"]

    @hello_count.setter
    def hello_count(self, value: int) -> None:
        self._meta["hello_count"] = value

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """The protocol state plus the derived routing table
        (``distances`` / ``first_hops``)."""
        distances, first_hops = self._spf_tables()
        return {
            "live_interfaces": self.live_interfaces.as_dict(),
            "lsdb": self.lsdb.as_dict(),
            "my_seq": self.my_seq,
            "pending_acks": self.pending_acks.as_dict(),
            "delayed_floods": self.delayed_floods.as_dict(),
            "distances": dict(distances),
            "first_hops": dict(first_hops),
            "hello_count": self.hello_count,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self.live_interfaces.replace({n: True for n in self.neighbors})
        self.lsdb.clear()
        self.my_seq = 0
        self.pending_acks.clear()
        self.delayed_floods.clear()
        self.hello_count = 0
        self._originate_lsa(parent=None)
        # Deterministic per-router hello phase: real routers' hello timers
        # are not synchronized, and a network-wide hello wave in every
        # k-th group would collide with any event landing in that group.
        phase = (
            int.from_bytes(hashlib.sha256(self.node_id.encode()).digest()[:4], "big")
            % HELLO_INTERVAL_UNITS
        )
        self.stack.set_timer(1 + phase, "hello")

    # ------------------------------------------------------------------
    # LSA origination and flooding
    # ------------------------------------------------------------------
    def _my_links(self) -> Tuple[str, ...]:
        return tuple(n for n in self.neighbors if self.live_interfaces.get(n, False))

    def _originate_lsa(self, parent: Optional[Message]) -> None:
        self.my_seq += 1
        payload: LsaPayload = ("lsa", self.node_id, self.my_seq, self._my_links())
        self._install_lsa(self.node_id, self.my_seq, self._my_links())
        for neighbor in self._my_links():
            self._send_lsa(neighbor, payload, parent)

    def _send_lsa(self, dst: str, payload: LsaPayload, parent: Optional[Message]) -> None:
        _, router, seq, _links = payload
        self.pending_acks[(dst, router, seq)] = True
        self.send(dst, PROTO_LSA, payload, parent=parent, size_bytes=96)
        self.stack.set_timer(RETRANSMIT_UNITS, f"rexmit|{dst}|{router}|{seq}")

    def _install_lsa(self, router: str, seq: int, links: Tuple[str, ...]) -> bool:
        current = self.lsdb.get(router)
        if current is not None and current[0] >= seq:
            return False
        self.lsdb[router] = (seq, tuple(sorted(links)))
        self._drop_spf()
        return True

    def _drop_spf(self) -> None:
        self._spf = None

    def _spf_tables(self) -> Tuple[Dict[str, int], Dict[str, Optional[str]]]:
        """``(distances, first_hops)`` over the current LSDB, keys sorted;
        computed on the first read after the LSDB may have changed."""
        if self._spf is None:
            lsdb = self.lsdb.as_dict()
            # two-way check: both ends must claim the adjacency
            adjacency = {
                router: {
                    other: 1 for other in links
                    if other in lsdb and router in lsdb[other][1]
                }
                for router, (_seq, links) in lsdb.items()
            }
            distances, first_hops = dijkstra(adjacency, self.node_id)
            self._spf = (
                dict(sorted(distances.items())), dict(sorted(first_hops.items()))
            )
        return self._spf

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        if msg.protocol == PROTO_HELLO:
            return  # liveness signal only; failure detection is event-driven
        if msg.protocol == PROTO_ACK:
            _, router, seq = msg.payload
            self.pending_acks.pop((msg.src, router, seq), None)
            self.stack.cancel_timer(f"rexmit|{msg.src}|{router}|{seq}")
            return
        if msg.protocol == PROTO_LSA:
            payload: LsaPayload = msg.payload
            _, router, seq, links = payload
            self.send(msg.src, PROTO_ACK, ("ack", router, seq), parent=msg, size_bytes=32)
            if self._install_lsa(router, seq, links):
                self._flood_onward(payload, exclude=msg.src, parent=msg)
            return
        raise ValueError(f"OSPF daemon got unknown protocol {msg.protocol!r}")

    def _flood_onward(self, payload: LsaPayload, exclude: str, parent: Optional[Message]) -> None:
        if self.forward_delay_units > 0:
            # XORP's default 1 s propagation delay: park the LSA and flood
            # it when the delay timer fires.
            _, router, seq, _links = payload
            self.delayed_floods[(router, seq)] = (payload, exclude)
            self.stack.set_timer(self.forward_delay_units, f"fwd|{router}|{seq}")
            return
        for neighbor in self._my_links():
            if neighbor != exclude:
                self._send_lsa(neighbor, payload, parent)

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def on_timer(self, key: str) -> None:
        if key == "hello":
            self.hello_count += 1
            for neighbor in self._my_links():
                self.send(neighbor, PROTO_HELLO, ("hello", self.node_id), size_bytes=24)
            self.stack.set_timer(HELLO_INTERVAL_UNITS, "hello")
            return
        if key.startswith("rexmit|"):
            _, dst, router, seq_s = key.split("|")
            seq = int(seq_s)
            if (dst, router, seq) in self.pending_acks and self.live_interfaces.get(dst):
                entry = self.lsdb.get(router)
                if entry is not None and entry[0] == seq:
                    payload: LsaPayload = ("lsa", router, seq, entry[1])
                    self._send_lsa(dst, payload, parent=None)
            return
        if key.startswith("fwd|"):
            _, router, seq_s = key.split("|")
            parked = self.delayed_floods.pop((router, int(seq_s)), None)
            if parked is not None:
                payload, exclude = parked
                entry = self.lsdb.get(router)
                if entry is not None and entry[0] == payload[2]:
                    for neighbor in self._my_links():
                        if neighbor != exclude:
                            self._send_lsa(neighbor, payload, parent=None)
            return
        raise ValueError(f"OSPF daemon got unknown timer {key!r}")

    # ------------------------------------------------------------------
    # external events (interface changes)
    # ------------------------------------------------------------------
    def on_external(self, event: ExternalEvent) -> None:
        if event.kind in (LINK_DOWN, LINK_UP):
            a, b = event.target
            other = b if a == self.node_id else a
            if other not in self.live_interfaces:
                return
            up = event.kind == LINK_UP
            if self.live_interfaces[other] == up:
                return
            self.live_interfaces[other] = up
            if not up:
                # drop retransmit obligations toward the dead interface
                for (dst, router, seq) in [k for k in self.pending_acks if k[0] == other]:
                    self.pending_acks.pop((dst, router, seq), None)
                    self.stack.cancel_timer(f"rexmit|{dst}|{router}|{seq}")
            else:
                # database exchange on adjacency (re)formation: push our
                # LSDB to the neighbor so a healed partition resynchronizes
                # (the stand-in for OSPF's DBD/LSR machinery).
                for router in self.lsdb:
                    if router == self.node_id:
                        continue  # our own LSA is re-originated below anyway
                    seq, links = self.lsdb[router]
                    self._send_lsa(other, ("lsa", router, seq, links), parent=None)
            self._originate_lsa(parent=None)

    # ------------------------------------------------------------------
    # evaluation hooks
    # ------------------------------------------------------------------
    def routing_distances(self) -> Dict[str, int]:
        """Hop distances this router currently believes (the convergence
        harness compares these to ground truth)."""
        return dict(self._spf_tables()[0])
