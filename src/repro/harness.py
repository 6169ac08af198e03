"""Experiment drivers: one entry point per evaluation activity.

The benchmark suite (and the examples) are thin wrappers around this
module.  Three layers:

* :func:`build_ospf_network` -- wire a topology, a daemon and one of
  the four stacks (vanilla / DEFINED-RB / DDOS / comprehensive-logging);
  :func:`build_ls_coordinator` wires the DEFINED-LS debugging network;
* :func:`run_production` -- drive an external-event workload through a
  production network, measuring per-event convergence times and
  per-node/per-event packet overheads (Figures 6a/6b, 8a/8b/8d), and
  capturing the DEFINED partial recording;
* :func:`run_ls_replay` -- replay a recording through a DEFINED-LS
  debugging network, measuring per-step response times (Figures 6c/8c)
  and returning the replay fingerprint for Theorem-1 checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.ddos import DdosStack
from repro.baselines.logging_replay import ComprehensiveLog, LoggingStack
from repro.core.checkpoint import baseline_processing_model, strategy_by_name
from repro.core.groups import BeaconService
from repro.core.history import WindowHeadroomStats
from repro.core.lockstep import LockstepCoordinator
from repro.core.ordering import make_ordering
from repro.core.recorder import Recorder, Recording
from repro.core.shim import DefinedShim
from repro.routing.ospf import OspfDaemon
from repro.routing.spf import expected_distances
from repro.simnet.engine import SECOND
from repro.simnet.events import EventSchedule, ExternalEvent
from repro.simnet.network import Network
from repro.simnet.node import Node, VanillaStack
from repro.topology import TopologyGraph, to_network

#: Convergence polling resolution.  Simulated control planes converge in
#: tens of milliseconds (failure detection is instantaneous here), so the
#: resolution must be fine enough to expose DEFINED-RB's rollback tail.
SLICE_US = 10_000

#: Per-event convergence deadline before we declare non-convergence.
CONVERGENCE_TIMEOUT_US = 30 * SECOND


@dataclass
class ProductionResult:
    """Everything a production-network run produces."""

    mode: str
    network: Network
    #: The topology the run was built on (a replay reuses it).
    graph: TopologyGraph
    recording: Optional[Recording]
    fingerprint: str
    logs: Dict[str, Tuple[str, ...]]
    convergence_times_us: List[int] = field(default_factory=list)
    unconverged_events: int = 0
    packets_per_node_per_event: List[int] = field(default_factory=list)
    late_deliveries: int = 0
    rollbacks: int = 0
    #: Daemon invocations the run made, rolled-back and re-executed ones
    #: included; against the committed deliveries in ``logs`` it is the
    #: useful-delivery ratio (``ReplayResult`` has the LS twin).
    executed_deliveries: int = 0
    #: Slack-deficit distribution pooled across every DEFINED-RB node
    #: (``defined`` mode only): the measured history-window headroom.
    headroom: Optional[WindowHeadroomStats] = None
    #: Per-node headroom for the nodes that actually went late: the
    #: envelope mapper uses these to recommend per-node windows instead
    #: of letting one noisy node inflate everyone's.
    node_headroom: Dict[str, WindowHeadroomStats] = field(default_factory=dict)
    comprehensive_log: Optional[ComprehensiveLog] = None
    wall_seconds: float = 0.0

    def processing_samples(self) -> List[int]:
        return self.network.run_stats.all_processing_samples()

    def rollback_samples(self) -> List[int]:
        return self.network.run_stats.all_rollback_samples()


def ospf_daemon_factory(graph: TopologyGraph, forward_delay_units: int = 0) -> Callable:
    """Daemon factory closing over the topology's static adjacency
    (hello and retransmit intervals are :mod:`repro.routing.ospf`'s
    constants)."""
    adjacency = {n: sorted(peers) for n, peers in graph.adjacency().items()}

    def factory(node_id: str, stack) -> OspfDaemon:
        return OspfDaemon(
            node_id,
            stack,
            neighbors=adjacency[node_id],
            forward_delay_units=forward_delay_units,
        )

    return factory


def build_ospf_network(
    graph: TopologyGraph,
    mode: str = "defined",
    seed: int = 0,
    jitter_us: int = 200,
    ordering: str = "OO",
    strategy: str = "MI",
    daemon_factory: Optional[Callable] = None,
    window_us: Optional[int] = None,
    tuning=None,
) -> Tuple[Network, Optional[Recorder], Optional[BeaconService], Optional[ComprehensiveLog]]:
    """Instantiate a production network in one of the four modes.

    Modes: ``vanilla`` (uninstrumented baseline), ``defined``
    (DEFINED-RB), ``ddos`` (stop-and-wait baseline), ``logging``
    (vanilla + comprehensive recording).  ``strategy`` selects the
    checkpoint *cost model* (MI/TF/PF/TM).  ``tuning`` is an
    optional :class:`repro.simnet.faults.NetworkTuning` (chaos DSL clock
    skew / link faults), installed before the mode-specific lossless
    checks so gray-failure windows are rejected for instrumented modes.
    """
    net = to_network(graph, seed=seed, jitter_us=jitter_us)
    net.install_tuning(tuning)
    factory = daemon_factory or ospf_daemon_factory(graph)
    recorder: Optional[Recorder] = None
    beacons: Optional[BeaconService] = None
    comp_log: Optional[ComprehensiveLog] = None

    if mode == "vanilla":
        net.attach(
            lambda node: VanillaStack(node, proc_model=baseline_processing_model),
            factory,
        )
    elif mode == "logging":
        comp_log = ComprehensiveLog()
        net.attach(
            lambda node: LoggingStack(
                node, comp_log, proc_model=baseline_processing_model
            ),
            factory,
        )
    elif mode == "defined":
        net.assert_lossless("DEFINED-RB")
        recorder = Recorder()
        def defined_stack(node: Node) -> DefinedShim:
            return DefinedShim(
                node,
                ordering=make_ordering(ordering),
                strategy=strategy_by_name(strategy),
                recorder=recorder,
                window_us=window_us,
            )

        net.attach(defined_stack, factory)
        beacons = BeaconService(net, recorder=recorder)
        recorder.group_provider = lambda: beacons.group
        net.event_tap = lambda event: recorder.record_topology(event)
        # the recording must carry the shims' per-hop estimate and the
        # measured link-delay configuration to the replay
        any_stack = next(iter(net.nodes.values())).stack
        recorder.hop_cost_us = any_stack.hop_cost_us
        recorder.spill_bound_us = any_stack.spill_bound_us
        for link in net.links.values():
            recorder.delay_estimates[f"{link.a}>{link.b}"] = link.model.avg_us
            recorder.delay_estimates[f"{link.b}>{link.a}"] = link.model.avg_us
    elif mode == "ddos":
        net.assert_lossless("stop-and-wait determinism")
        order = make_ordering(ordering)

        def ddos_stack(node: Node) -> DdosStack:
            return DdosStack(node, ordering=order)

        net.attach(ddos_stack, factory)
        beacons = BeaconService(net)
        for node in net.nodes.values():
            node.stack.group_provider = lambda: beacons.group
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return net, recorder, beacons, comp_log


def _expected_routing(net: Network, graph: TopologyGraph) -> Dict[str, Dict[str, int]]:
    """Ground-truth SPF distances for every live router (computed once per
    topology change; polling then only compares dicts)."""
    link_state = {}
    for a, b, _d in graph.edges:
        link = net.link_between(a, b)
        link_state[(a, b)] = bool(link and link.up)
    nodes = [n for n in graph.nodes if net.nodes[n].up]
    return {
        node_id: expected_distances(link_state, nodes, node_id)
        for node_id in nodes
    }


def _network_converged(net: Network, expected: Dict[str, Dict[str, int]]) -> bool:
    """Every live router's SPF distances equal ground truth."""
    for node_id, want in expected.items():
        daemon = net.nodes[node_id].daemon
        if daemon is None:
            continue
        if daemon.routing_distances() != want:
            return False
    return True


def run_production(
    graph: TopologyGraph,
    schedule: EventSchedule,
    mode: str = "defined",
    seed: int = 0,
    jitter_us: int = 200,
    ordering: str = "OO",
    strategy: str = "MI",
    daemon_factory: Optional[Callable] = None,
    measure_convergence: bool = True,
    settle_us: int = 3 * SECOND,
    tail_us: int = 2 * SECOND,
    window_us: Optional[int] = None,
    tuning=None,
) -> ProductionResult:
    """Drive one workload through one production network.

    Events are applied at their scheduled times; after each event the
    network is polled (at :data:`SLICE_US` resolution) until it
    re-converges, yielding the Figure 6b/8b/8d convergence samples and the
    Figure 6a/8a per-node packet deltas.
    """
    wall_start = time.perf_counter()
    net, recorder, beacons, comp_log = build_ospf_network(
        graph,
        mode=mode,
        seed=seed,
        jitter_us=jitter_us,
        ordering=ordering,
        strategy=strategy,
        daemon_factory=daemon_factory,
        window_us=window_us,
        tuning=tuning,
    )
    if beacons is not None:
        beacons.start()
    # Simultaneous cold boot: all origins send "at roughly the same
    # time", which is precisely the regime the delay-sensitive ordering
    # is optimized for (Section 2.2).  Staggering boots would make boot
    # LSAs systematically late relative to their d_i estimates and turn
    # the initial flood into a rollback storm.
    net.start()
    events = schedule.sorted()
    if events:
        settle_us = min(settle_us, events[0].time_us)
    net.run(until_us=settle_us)

    convergence: List[int] = []
    unconverged = 0
    packet_deltas: List[int] = []
    for i, event in enumerate(events):
        if event.time_us < net.sim.now:
            raise ValueError(
                f"event at {event.time_us}us is in the past (now={net.sim.now})"
            )
        net.run(until_us=event.time_us)
        before = {
            nid: net.run_stats.node(nid).total_packets() for nid in net.node_ids()
        }
        net.apply_event(event)
        next_deadline = (
            events[i + 1].time_us if i + 1 < len(events) else event.time_us + CONVERGENCE_TIMEOUT_US
        )
        deadline = min(event.time_us + CONVERGENCE_TIMEOUT_US, next_deadline)
        if measure_convergence:
            expected = _expected_routing(net, graph)
            converged_at = None
            while net.sim.now < deadline:
                net.run(until_us=min(net.sim.now + SLICE_US, deadline))
                if _network_converged(net, expected):
                    converged_at = net.sim.now
                    break
            if converged_at is None:
                unconverged += 1
            else:
                convergence.append(converged_at - event.time_us)
        for nid in net.node_ids():
            packet_deltas.append(
                net.run_stats.node(nid).total_packets() - before[nid]
            )

    net.run(until_us=net.sim.now + tail_us)
    if beacons is not None:
        beacons.stop()
        if mode == "defined":
            # Drain to full quiescence: with delivery jitter above the
            # beacon interval, a one-interval grace period leaves
            # horizon-group traffic in flight when the sim halts -- the
            # replay (which always quiesces every group) would then
            # deliver messages production's truncated log never saw.
            # Once beaconing stops, virtual time is frozen (no timers
            # fire), so the remaining cascades are finite.
            net.run()
        else:
            # let in-flight beacons and any final rollbacks settle
            net.run(until_us=net.sim.now + net.time_unit_us)

    late = 0
    rollbacks = net.run_stats.total_rollbacks()
    effective_window: Optional[int] = None
    deficit_samples: List[int] = []
    unmeasured = 0
    node_headroom: Dict[str, WindowHeadroomStats] = {}
    for node_id in sorted(net.nodes):
        stack = net.nodes[node_id].stack
        if isinstance(stack, (DefinedShim, DdosStack)):
            late += stack.late_deliveries
        if isinstance(stack, DefinedShim):
            deficit_samples.extend(stack.deficit_samples_us)
            unmeasured += stack.deficit_unmeasured
            w = stack.window_us()
            effective_window = w if effective_window is None else max(effective_window, w)
            if stack.late_deliveries:
                node_headroom[node_id] = stack.headroom_stats()
    headroom = (
        WindowHeadroomStats.from_samples(
            effective_window, deficit_samples, unmeasured_count=unmeasured
        )
        if effective_window is not None
        else None
    )

    logs = net.delivery_logs()
    return ProductionResult(
        mode=mode,
        network=net,
        graph=graph,
        recording=recorder.recording() if recorder is not None else None,
        fingerprint=net.execution_fingerprint(),
        logs=logs,
        convergence_times_us=convergence,
        unconverged_events=unconverged,
        packets_per_node_per_event=packet_deltas,
        late_deliveries=late,
        rollbacks=rollbacks,
        executed_deliveries=net.run_stats.total_deliveries(),
        headroom=headroom,
        node_headroom=node_headroom,
        comprehensive_log=comp_log,
        wall_seconds=time.perf_counter() - wall_start,
    )


@dataclass
class ReplayResult:
    """Everything a DEFINED-LS replay produces."""

    coordinator: LockstepCoordinator
    network: Network
    fingerprint: str
    logs: Dict[str, Tuple[str, ...]]
    step_times_us: List[int]
    cycles: int
    #: Daemon invocations the replay made, re-executed suffixes included;
    #: against the committed deliveries in ``logs`` it is the LS
    #: counterpart of DEFINED-RB's useful-delivery ratio.
    executed_deliveries: int = 0
    wall_seconds: float = 0.0


def build_ls_coordinator(
    graph: TopologyGraph,
    recording: Recording,
    ordering: str = "OO",
    seed: int = 1_000,
    jitter_us: int = 200,
    daemon_factory: Optional[Callable] = None,
) -> LockstepCoordinator:
    """The started DEFINED-LS debugging network for ``recording``:
    ``graph``'s links with ``jitter_us`` of jitter, a lockstep stack and
    a daemon (OSPF by default) on every node.  Every replay, scripted
    (:func:`run_ls_replay`) or interactive (``repro debug``), runs on
    this network."""
    net = to_network(graph, seed=seed, jitter_us=jitter_us)
    coordinator = LockstepCoordinator(net, recording, ordering=make_ordering(ordering))
    coordinator.attach(daemon_factory or ospf_daemon_factory(graph))
    coordinator.start()
    return coordinator


def run_ls_replay(
    graph: TopologyGraph,
    recording: Recording,
    ordering: str = "OO",
    seed: int = 1_000,
    jitter_us: int = 200,
    daemon_factory: Optional[Callable] = None,
) -> ReplayResult:
    """Replay a partial recording in a lockstep debugging network."""
    wall_start = time.perf_counter()
    coordinator = build_ls_coordinator(
        graph, recording, ordering, seed, jitter_us, daemon_factory
    )
    net = coordinator.network
    cycles = coordinator.run_all()
    logs = net.delivery_logs()
    return ReplayResult(
        coordinator=coordinator,
        network=net,
        fingerprint=net.execution_fingerprint(),
        logs=logs,
        step_times_us=list(net.run_stats.step_times_us),
        cycles=cycles,
        executed_deliveries=net.run_stats.total_deliveries(),
        wall_seconds=time.perf_counter() - wall_start,
    )


def flappable_links(graph: TopologyGraph) -> List[Tuple[str, str]]:
    """Links whose endpoints both keep another adjacency when it drops --
    the eligibility rule shared by every flap-workload generator."""
    degree: Dict[str, int] = {}
    for a, b, _d in graph.edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    return [(a, b) for a, b, _d in graph.edges if degree[a] >= 2 and degree[b] >= 2]


def burst_schedule(
    graph: TopologyGraph,
    events_per_second: int,
    n_events: int,
    start_us: int = 2 * SECOND,
    seed: int = 0,
) -> EventSchedule:
    """A fixed-rate link-flap burst for the Figure 8d event-rate sweep."""
    import random as _random

    rng = _random.Random(f"burst|{graph.name}|{events_per_second}|{seed}")
    eligible = flappable_links(graph)
    if not eligible:
        raise ValueError("no flappable links")
    gap = SECOND // events_per_second
    schedule = EventSchedule()
    down: set = set()
    t = start_us
    for _ in range(n_events):
        flappable_up = [lk for lk in eligible if lk not in down]
        if flappable_up and (not down or rng.random() < 0.5):
            link = flappable_up[rng.randrange(len(flappable_up))]
            schedule.add(ExternalEvent(time_us=t, kind="link_down", target=link))
            down.add(link)
        else:
            link = sorted(down)[rng.randrange(len(down))]
            schedule.add(ExternalEvent(time_us=t, kind="link_up", target=link))
            down.discard(link)
        t += gap
    # repair everything so the network can converge after the burst
    for link in sorted(down):
        schedule.add(ExternalEvent(time_us=t, kind="link_up", target=link))
        t += gap
    return schedule


def measure_burst_convergence(
    graph: TopologyGraph,
    events_per_second: int,
    n_events: int = 10,
    mode: str = "defined",
    seed: int = 0,
    **kwargs,
) -> int:
    """Figure 8d's metric: time from the last event of a fixed-rate burst
    until the whole network has re-converged."""
    schedule = burst_schedule(graph, events_per_second, n_events, seed=seed)
    net, recorder, beacons, _ = build_ospf_network(
        graph, mode=mode, seed=seed, **kwargs
    )
    if beacons is not None:
        beacons.start()
    net.start()
    net.run(until_us=2 * SECOND)
    last_t = 0
    for event in schedule.sorted():
        net.run(until_us=event.time_us)
        net.apply_event(event)
        last_t = event.time_us
    expected = _expected_routing(net, graph)
    deadline = last_t + CONVERGENCE_TIMEOUT_US
    while net.sim.now < deadline:
        net.run(until_us=min(net.sim.now + SLICE_US, deadline))
        if _network_converged(net, expected):
            if beacons is not None:
                beacons.stop()
            return net.sim.now - last_t
    if beacons is not None:
        beacons.stop()
    return CONVERGENCE_TIMEOUT_US
