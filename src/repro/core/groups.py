"""Beacons and group numbers (Section 2.2).

DEFINED-RB divides time into *timesteps*: one node periodically broadcasts
beacons carrying strictly increasing group numbers; external events are
tagged with the group current at the observing node, internal messages
inherit their causal parent's group, and the ordering function is applied
per group.  Beacons also drive virtual time: one unit per beacon
(Section 3), 250 ms apart by default.

**Leader election.**  The paper delegates fault tolerance to classical
leader-election algorithms [Lynch 96].  We model the election's *outcome*
rather than its message exchange: at every beacon interval the live node
with the smallest identifier acts as the beacon source, and the group
counter survives leader changes because any new leader has observed the
previous leader's beacons.  This keeps the reproduction focused on the
paper's contribution while preserving the property the election provides
(beaconing continues, monotonically, across failures).

**Propagation.**  Beacons travel on a deterministic distribution tree:
each node receives the beacon after the shortest-path delay (over
measured average link delays) from the leader.  Determinism here is
load-bearing -- group tagging of external events must not depend on the
jitter seed, or DEFINED-RB's execution would not be reproducible.
Footnote 2 of the paper discusses exactly this sensitivity (and the
subnetwork remedy for very large diameters).

A tick's beacons cost one engine event per *arrival instant*, not one
per node (:meth:`~repro.simnet.network.Network.fan_out_deterministic`):
every node hears the beacon at the same depth, so without clock skew a
tick is one event, and each distinct skew adds one.  The order within an
instant is unchanged -- node-id order -- because one event per node,
scheduled back to back in node-id order, held consecutive sequence
numbers at the same time: nothing could run between them.
"""

from __future__ import annotations

from typing import Optional

from repro.simnet.messages import Message
from repro.simnet.network import Network

#: How long after beacon *g+1* a causal chain tagged group *g* can keep
#: extending (until the chain bound reassigns its children).  One
#: worst-case propagation time plus this allowance after that beacon is
#: the hold that closes group *g*: no group-*g* message can still be in
#: flight.  The shim's crash protocol and the DDOS baseline's release
#: rule both close groups by it.
CHAIN_ALLOWANCE_US = 100_000


class BeaconService:
    """Periodic group-number broadcast for a DEFINED-RB network.

    One beacon per virtual-time unit (Section 3): the period is the
    network's ``time_unit_us``.
    """

    def __init__(self, network: Network, recorder=None) -> None:
        self.network = network
        self.interval_us = network.time_unit_us
        if self.interval_us <= 0:
            raise ValueError("beacon interval must be positive")
        self.recorder = recorder
        self.group = 0
        self.beacons_sent = 0
        self._handle = None
        self._stopped = False

    def current_leader(self) -> Optional[str]:
        """The live node with the smallest id (modelled election outcome)."""
        for node_id in self.network.node_ids():
            if self.network.nodes[node_id].up:
                return node_id
        return None

    def start(self) -> None:
        """Begin beaconing.  Group 0 is implicit from time zero; the first
        beacon (group 1) goes out after one interval."""
        self._stopped = False
        self._handle = self.network.sim.schedule(self.interval_us, self._tick)

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        if self._stopped:
            return
        leader = self.current_leader()
        if leader is not None:
            self.group += 1
            if self.recorder is not None:
                self.recorder.note_group(self.group)
            # Uniform distribution-tree depth: every node observes the
            # beacon at the same instant (leader's max propagation).  The
            # uniform arrival matters: timers across the network fire
            # simultaneously, so timer-originated message waves satisfy
            # the ordering function's common-case assumption that
            # "originating nodes send out messages at roughly the same
            # time" (Section 2.2).  Staggered beacon arrival would turn
            # every hello wave into systematic rollbacks -- the
            # sensitivity footnote 2 warns about.
            delays = self.network.delay_matrix()[leader]
            depth = max(delays.values()) if delays else 0
            skews = self.network.clock_skew_us
            sends = []
            # nodes missing from ``delays`` are partitioned from the
            # leader (footnote 2) and receive nothing
            for node_id in sorted(delays):
                beacon = Message(
                    src=leader,
                    dst=node_id,
                    protocol="_beacon",
                    payload=self.group,
                    size_bytes=16,
                )
                # Per-node clock skew (chaos DSL): a skewed node observes
                # every beacon a constant offset late (positive) or early
                # (negative), shifting which group its external events are
                # tagged with.  Group tagging stays deterministic -- the
                # skew is configuration, not a jitter draw -- and replay
                # is unaffected because recordings carry group numbers.
                delay = depth + skews.get(node_id, 0) if skews else depth
                sends.append((beacon, max(0, delay)))
            self.network.fan_out_deterministic(sends)
            self.beacons_sent += len(sends)
        self._handle = self.network.sim.schedule(self.interval_us, self._tick)
