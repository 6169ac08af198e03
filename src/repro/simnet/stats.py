"""Per-node statistics used by the evaluation harness.

The paper's figures are all distributions over per-node or per-event
measurements: control packets per node (Fig 6a/8a), convergence times
(Fig 6b/8b/8d), per-step response times (Fig 6c/8c), rollback and
non-rollback processing overheads (Fig 7a/7b), and memory (Fig 7c).  The
counters here are the raw material for those distributions.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class NodeStats:
    """Counters accumulated by one node during a run."""

    node: str = ""

    # --- wire traffic -------------------------------------------------
    data_packets_sent: int = 0
    data_packets_received: int = 0
    control_packets_sent: int = 0
    control_packets_received: int = 0
    beacons_received: int = 0
    bytes_sent: int = 0

    # --- DEFINED-RB behaviour ------------------------------------------
    deliveries: int = 0
    rollbacks: int = 0
    messages_rolled_back: int = 0
    #: Of the outputs rolled-back deliveries had emitted: re-emitted
    #: identically by the replay and left on the wire (lazy cancellation)
    #: vs. unsent because the replay no longer produced them.
    outputs_kept: int = 0
    outputs_retracted: int = 0
    unsends_sent: int = 0
    unsends_received: int = 0
    annihilated: int = 0

    # --- modelled costs (simulated microseconds) -----------------------
    processing_samples_us: List[int] = field(default_factory=list)
    rollback_samples_us: List[int] = field(default_factory=list)

    # --- memory accounting (bytes) --------------------------------------
    #: One (virtual, physical) sample per beacon tick (Figure 7c).  The
    #: values are ~100 MB, past the small-int cache, so they are packed
    #: as signed 64-bit machine ints: 8 bytes a sample, no boxed ``int``.
    virtual_memory_samples: array = field(default_factory=lambda: array("q"))
    physical_memory_samples: array = field(default_factory=lambda: array("q"))

    def total_packets(self) -> int:
        """Packets this node handled (sent + received), control included."""
        return (
            self.data_packets_sent
            + self.data_packets_received
            + self.control_packets_sent
            + self.control_packets_received
        )

    def record_processing(self, cost_us: int) -> None:
        self.processing_samples_us.append(cost_us)

    def record_rollback(
        self, cost_us: int, depth: int, outputs_kept: int = 0, outputs_retracted: int = 0
    ) -> None:
        self.rollbacks += 1
        self.messages_rolled_back += depth
        self.outputs_kept += outputs_kept
        self.outputs_retracted += outputs_retracted
        self.rollback_samples_us.append(cost_us)

    def record_memory(self, virtual_bytes: int, physical_bytes: int) -> None:
        self.virtual_memory_samples.append(virtual_bytes)
        self.physical_memory_samples.append(physical_bytes)


@dataclass
class RunStats:
    """Network-wide statistics for one experiment run."""

    per_node: Dict[str, NodeStats] = field(default_factory=dict)
    step_times_us: List[int] = field(default_factory=list)

    def node(self, node_id: str) -> NodeStats:
        if node_id not in self.per_node:
            self.per_node[node_id] = NodeStats(node=node_id)
        return self.per_node[node_id]

    def packets_per_node(self) -> List[int]:
        """The Fig 6a metric: one number per node (sorted node order)."""
        return [self.per_node[nid].total_packets() for nid in sorted(self.per_node)]

    def total_rollbacks(self) -> int:
        return sum(s.rollbacks for s in self.per_node.values())

    def total_deliveries(self) -> int:
        """Daemon invocations, rolled-back and re-executed ones included."""
        return sum(s.deliveries for s in self.per_node.values())

    def total_control_packets(self) -> int:
        return sum(
            s.control_packets_sent + s.control_packets_received
            for s in self.per_node.values()
        )

    def all_processing_samples(self) -> List[int]:
        out: List[int] = []
        for nid in sorted(self.per_node):
            out.extend(self.per_node[nid].processing_samples_us)
        return out

    def all_rollback_samples(self) -> List[int]:
        out: List[int] = []
        for nid in sorted(self.per_node):
            out.extend(self.per_node[nid].rollback_samples_us)
        return out
