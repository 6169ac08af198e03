"""Importable configuration and helpers for the benchmark suite.

These used to live in ``benchmarks/conftest.py``, but ``conftest`` is an
ambiguous import name once both ``tests/`` and ``benchmarks/`` are
collected in one pytest run (each directory's conftest competes for the
same top-level module slot).  Benchmarks import shared knobs from here
with ``from _bench import ...``; the conftest keeps only fixtures.

Scale: the defaults reproduce every figure's *shape* in minutes.  Set
``REPRO_BENCH_FULL=1`` for paper-scale workloads (the full Tier-1-style
651-event trace, BRITE sweeps to 80 nodes); expect a long run.
"""

from __future__ import annotations

import os

from repro.simnet.engine import SECOND

FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))

#: Workload sizes (events on the Rocketfuel topology, BRITE sweep sizes).
N_EVENTS = 100 if FULL else 4
SWEEP_SIZES = (20, 40, 60, 80) if FULL else (20, 40)
EVENT_RATES = (2, 4, 6, 8, 10) if FULL else (2, 6, 10)
EVENT_GAP_US = 8 * SECOND


def emit(text: str) -> None:
    """Print a figure block with spacing that survives pytest capture."""
    print("\n" + text + "\n")


def settled_defined_network(scenario_name: str, seed: int = 1, warm_events: int = 2):
    """A DEFINED-RB network with populated daemon state: booted, beaconed,
    and driven through the scenario's first ``warm_events`` external
    events.  Returns ``(network, beacons)``; the caller stops the beacons."""
    from repro.harness import build_ospf_network
    from repro.sweep import get_scenario

    scenario = get_scenario(scenario_name)
    graph = scenario.topology(seed)
    schedule = scenario.schedule(graph, seed)
    net, _recorder, beacons, _ = build_ospf_network(
        graph,
        mode="defined",
        seed=seed,
        jitter_us=scenario.jitter_us,
        ordering=scenario.ordering,
        daemon_factory=scenario.daemon(graph) if scenario.daemon else None,
    )
    beacons.start()
    net.start()
    for event in schedule.sorted()[:warm_events]:
        net.run(until_us=event.time_us)
        net.apply_event(event)
    net.run(until_us=net.sim.now + SECOND)
    return net, beacons
