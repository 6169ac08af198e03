"""The paper's case studies as reusable scenarios (Section 4).

Two known historical bugs, each wired up exactly as in the paper's
figures, runnable under any stack:

* :func:`xorp_bgp_scenario` -- Figure 4: the XORP 0.4 BGP path-selection
  ordering bug.  Three paths with non-transitive MED preference race to
  router R3; the buggy incremental decision process picks p3 or p2
  depending on arrival order.
* :func:`quagga_rip_scenario` -- Figure 5: the Quagga 0.96.5 RIP
  timer-refresh timing bug.  Main router R2 dies; whether backup R3's
  periodic announcement lands before or after R1's route expiry decides
  between a correct fail-over and a permanent black hole.

Each case study is one :class:`~repro.sweep.Scenario` (:func:`xorp_bgp`,
:func:`quagga_rip`), run as a sweep cell runs it; the ``*_scenario``
functions return both the observable *outcome* (which path won / whether
the black hole formed) and the full :class:`~repro.harness.ProductionResult`,
so tests and benches can assert nondeterminism under the vanilla stack,
determinism under DEFINED-RB, and exact reproduction under DEFINED-LS.
:data:`BUILTINS` holds the seven builtins the spec grammar cannot
derive: both case studies and the five fault-injection families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.harness import ProductionResult
from repro.routing.bgp import BgpPath, BuggyXorpBgp, CorrectBgp
from repro.routing.rip import BuggyQuaggaRip, CorrectRip
from repro.simnet.engine import SECOND
from repro.simnet.events import ANNOUNCE, NODE_DOWN, EventSchedule, ExternalEvent
from repro.sweep import (
    Scenario,
    crash_restart_scenario,
    ddos_overload_scenario,
    flap_storm_scenario,
    latency_jitter_scenario,
    partition_scenario,
    run_scenario,
)
from repro.topology import TopologyGraph

# ----------------------------------------------------------------------
# Figure 4: XORP BGP MED ordering bug
# ----------------------------------------------------------------------

#: The paper's three paths: same AS-path length; p1/p2 share a neighboring
#: AS (so MED compares them); p3 is alone in its group.  Pairwise: p2>p1,
#: p3>p2, p1>p3 -- non-transitive.  Full selection picks p3.
BGP_PATHS = {
    "p1": BgpPath(prefix="10.0.0.0/8", path_id="p1", as_path_len=3,
                  med=10, neighbor_as="AS-A", igp_dist=10),
    "p2": BgpPath(prefix="10.0.0.0/8", path_id="p2", as_path_len=3,
                  med=5, neighbor_as="AS-A", igp_dist=30),
    "p3": BgpPath(prefix="10.0.0.0/8", path_id="p3", as_path_len=3,
                  med=20, neighbor_as="AS-B", igp_dist=20),
}

BGP_PREFIX = "10.0.0.0/8"

#: The correct decision outcome (what a patched router must always pick).
BGP_CORRECT_BEST = "p3"


def bgp_topology() -> TopologyGraph:
    """R1/R2 are border routers with eBGP peers; R3 is the internal router
    where the decision bug manifests."""
    return TopologyGraph(
        name="xorp-fig4",
        nodes=["R1", "R2", "R3"],
        edges=[("R1", "R3", 3_000), ("R2", "R3", 3_000), ("R1", "R2", 3_000)],
    )


def bgp_schedule() -> EventSchedule:
    """p1 announces first (R3's initial best); p2 (at R2) and p3 (at R1)
    race -- their relative arrival order at R3 triggers or hides the bug."""
    schedule = EventSchedule()
    schedule.add(ExternalEvent(
        time_us=1 * SECOND + 31_000, kind=ANNOUNCE, target="R1",
        data=BGP_PATHS["p1"].to_wire(),
    ))
    schedule.add(ExternalEvent(
        time_us=2 * SECOND + 57_000, kind=ANNOUNCE, target="R2",
        data=BGP_PATHS["p2"].to_wire(),
    ))
    schedule.add(ExternalEvent(
        time_us=2 * SECOND + 57_000, kind=ANNOUNCE, target="R1",
        data=BGP_PATHS["p3"].to_wire(),
    ))
    return schedule


def bgp_daemon_factory(decision: str = "buggy") -> Callable:
    graph = bgp_topology()
    adjacency = {n: sorted(p) for n, p in graph.adjacency().items()}
    cls = BuggyXorpBgp if decision == "buggy" else CorrectBgp

    def factory(node_id: str, stack):
        return cls(node_id, stack, peers=adjacency[node_id])

    return factory


@dataclass
class BgpOutcome:
    """What the Figure 4 scenario produced."""

    best_at_r3: Optional[str]
    result: ProductionResult

    @property
    def bug_manifested(self) -> bool:
        return self.best_at_r3 != BGP_CORRECT_BEST


def _bgp_expect(result: ProductionResult) -> bool:
    best = result.network.nodes["R3"].daemon.best_path_id(BGP_PREFIX)
    return best in BGP_PATHS


def xorp_bgp(decision: str = "buggy") -> Scenario:
    """The Figure 4 scenario with R3 running the ``decision`` process;
    the race is fixed, so the cell seed varies only the timing."""
    return Scenario(
        name="xorp-bgp-med" if decision == "buggy" else f"xorp-bgp-med-{decision}",
        description=f"Figure 4: XORP 0.4 BGP MED ordering race ({decision} decision)",
        topology=lambda seed: bgp_topology(),
        schedule=lambda graph, seed: bgp_schedule(),
        daemon=lambda graph: bgp_daemon_factory(decision),
        expect=_bgp_expect,
        jitter_us=1_500,
        settle_us=SECOND // 2,
        tail_us=3 * SECOND,
    )


def xorp_bgp_scenario(
    mode: str = "vanilla", decision: str = "buggy", seed: int = 0
) -> BgpOutcome:
    """Run the Figure 4 scenario; returns R3's chosen best path."""
    result = run_scenario(xorp_bgp(decision), mode, seed)
    daemon = result.network.nodes["R3"].daemon
    return BgpOutcome(best_at_r3=daemon.best_path_id(BGP_PREFIX), result=result)


# ----------------------------------------------------------------------
# Figure 5: Quagga RIP timer-refresh bug
# ----------------------------------------------------------------------

RIP_DEST = "dst"
RIP_MAIN = "R2"
RIP_BACKUP = "R3"

RIP_MAIN_INTERVAL = 4     # main announces every 4 virtual-time units (1 s)
RIP_TIMEOUT_UNITS = 12    # route lifetime 12 units (3 s)

#: "race" configuration: the backup announces every 16 units (4 s), i.e.
#: *less* often than the route lifetime.  After the main dies at
#: RIP_DEATH_US, R1's expiry (last main refresh + 3 s, ~8.0 s) nominally
#: coincides with the backup's announcement at ~8.0 s -- timer jitter then
#: decides, run by run, between the paper's two scenarios ("announcements
#: reach R1 before" vs "after the route times out").
RIP_RACE_BACKUP_INTERVAL = 16
#: "blackhole" configuration: the backup announces every 8 units (2 s),
#: more often than the route lifetime, so once the main dies the buggy
#: matcher refreshes the dead route forever -- the paper's permanent
#: black hole.
RIP_BLACKHOLE_BACKUP_INTERVAL = 8

RIP_DEATH_US = 5 * SECOND + 637_000
#: Observation instant for the race configuration: after the nominal
#: expiry (~8 s) + one refresh (~11 s) but before the backup's next
#: announcement (~12 s), so the two race outcomes are distinguishable:
#: still routing via the dead main (black hole) vs route flushed.
RIP_OBSERVE_US = 10 * SECOND + 500_000


def rip_topology() -> TopologyGraph:
    return TopologyGraph(
        name="quagga-fig5",
        nodes=["R1", "R2", "R3"],
        edges=[("R1", "R2", 2_000), ("R1", "R3", 2_000), ("R2", "R3", 2_500)],
    )


def rip_schedule() -> EventSchedule:
    schedule = EventSchedule()
    schedule.add(
        ExternalEvent(time_us=RIP_DEATH_US, kind=NODE_DOWN, target=RIP_MAIN)
    )
    return schedule


def rip_daemon_factory(
    matching: str = "buggy",
    backup_interval_units: int = RIP_RACE_BACKUP_INTERVAL,
) -> Callable:
    graph = rip_topology()
    adjacency = {n: sorted(p) for n, p in graph.adjacency().items()}
    cls = BuggyQuaggaRip if matching == "buggy" else CorrectRip

    def factory(node_id: str, stack):
        own = {}
        interval = RIP_MAIN_INTERVAL
        if node_id == RIP_MAIN:
            own = {RIP_DEST: 0}      # the main provider
        elif node_id == RIP_BACKUP:
            own = {RIP_DEST: 2}      # the backup advertises a worse metric
            interval = backup_interval_units
        return cls(
            node_id,
            stack,
            neighbors=adjacency[node_id],
            own_destinations=own,
            update_interval_units=interval,
            timeout_units=RIP_TIMEOUT_UNITS,
        )

    return factory


@dataclass
class RipOutcome:
    """What the Figure 5 scenario produced (R1's route at observation)."""

    route_via: Optional[str]
    result: ProductionResult

    @property
    def black_hole(self) -> bool:
        """True when R1 still routes through the dead main router."""
        return self.route_via == RIP_MAIN

    @property
    def recovered(self) -> bool:
        return self.route_via == RIP_BACKUP

    @property
    def flushed(self) -> bool:
        """The route expired correctly (recovery pending the backup's
        next announcement)."""
        return self.route_via is None


#: config -> (backup announcement interval, default observation instant,
#: description)
_RIP_CONFIGS = {
    "race": (RIP_RACE_BACKUP_INTERVAL, RIP_OBSERVE_US, "expiry-race"),
    "blackhole": (RIP_BLACKHOLE_BACKUP_INTERVAL, 20 * SECOND, "permanent-blackhole"),
}


def _rip_blackhole_expect(result: ProductionResult) -> bool:
    # blackhole config + buggy matcher: the dead main keeps being
    # refreshed, in every mode -- the paper's deterministic failure.
    return result.network.nodes["R1"].daemon.route_via(RIP_DEST) == RIP_MAIN


def quagga_rip(
    matching: str = "buggy",
    config: str = "blackhole",
    observe_at_us: Optional[int] = None,
) -> Scenario:
    """The Figure 5 scenario: R1 runs the ``matching`` route matcher, the
    backup announces at the ``config`` interval, and the run ends at
    ``observe_at_us`` (the config's observation instant by default).

    ``config="race"``: bimodal under the buggy matcher -- black hole
    (route still via the dead R2) or correctly flushed, decided by the
    expiry-vs-announcement timing race.  ``config="blackhole"``: the
    backup announces faster than the timeout, so the buggy matcher is a
    deterministic, *permanent* black hole (and the correct matcher always
    fails over).
    """
    if config not in _RIP_CONFIGS:
        raise ValueError(f"unknown RIP config {config!r}")
    backup_interval, default_observe, label = _RIP_CONFIGS[config]
    observe = observe_at_us if observe_at_us is not None else default_observe
    if observe <= RIP_DEATH_US:
        raise ValueError("observation must come after the main router dies")
    buggy = matching == "buggy"
    return Scenario(
        name=f"quagga-rip-{config}" + ("" if buggy else f"-{matching}"),
        description=f"Figure 5: Quagga RIP timer-refresh bug, {label} config"
        + ("" if buggy else f" ({matching} matching)"),
        topology=lambda seed: rip_topology(),
        schedule=lambda graph, seed: rip_schedule(),
        daemon=lambda graph: rip_daemon_factory(matching, backup_interval),
        expect=_rip_blackhole_expect if buggy and config == "blackhole" else None,
        jitter_us=1_500,
        settle_us=SECOND // 2,
        tail_us=observe - RIP_DEATH_US,
    )


def quagga_rip_scenario(
    mode: str = "vanilla",
    matching: str = "buggy",
    config: str = "race",
    seed: int = 0,
    observe_at_us: Optional[int] = None,
) -> RipOutcome:
    """Run the Figure 5 scenario (see :func:`quagga_rip`) and observe R1's
    route to the destination."""
    result = run_scenario(quagga_rip(matching, config, observe_at_us), mode, seed)
    daemon = result.network.nodes["R1"].daemon
    return RipOutcome(route_via=daemon.route_via(RIP_DEST), result=result)


# ----------------------------------------------------------------------
# the builtin catalogue
# ----------------------------------------------------------------------
#
# The seven scenarios the spec grammar cannot derive.  Compositions
# ("a+b"), boundary-jitter variants ("a~j1us") and sizes ("a@N") are
# specs over them, resolved by name (repro.sweep.get_scenario).

BUILTINS = (
    xorp_bgp(),
    quagga_rip(),
    flap_storm_scenario(),
    crash_restart_scenario(),
    partition_scenario(),
    latency_jitter_scenario(),
    ddos_overload_scenario(),
)

#: The two canonical stress compositions in the default grid: a
#: partition cut in the middle of a flap storm, and a router crash during
#: an event-rate overload (where mode intersection drops the ``ddos``
#: stop-and-wait mode: its restarts reboot at virtual time 0).
COMPOSITIONS = ("flap-storm+partition", "crash-restart+ddos-overload")
