#!/usr/bin/env python
"""Quickstart: deterministic network execution in ~60 lines.

Builds a small OSPF network, injects a link flap, and demonstrates the
three facts DEFINED is about:

1. an *uninstrumented* network executes differently run to run;
2. under DEFINED-RB the execution is identical for any timing seed;
3. a DEFINED-LS debugging network reproduces the production execution
   exactly from the partial recording (Theorem 1).

Run:  python examples/quickstart.py
"""

from repro.diff import diff_logs
from repro.harness import run_ls_replay, run_production
from repro.simnet.engine import SECOND
from repro.simnet.events import EventSchedule, ExternalEvent
from repro.topology import TopologyGraph


def build_topology() -> TopologyGraph:
    """Four routers, five links -- the smallest net with alternate paths."""
    return TopologyGraph(
        name="quickstart",
        nodes=["a", "b", "c", "d"],
        edges=[
            ("a", "b", 2_000),
            ("b", "c", 3_000),
            ("c", "d", 2_500),
            ("a", "d", 4_000),
            ("b", "d", 3_500),
        ],
    )


def build_workload() -> EventSchedule:
    """One link failure and its repair (the external events)."""
    schedule = EventSchedule()
    schedule.add(
        ExternalEvent(time_us=4 * SECOND + 97_000, kind="link_down", target=("b", "c"))
    )
    schedule.add(
        ExternalEvent(time_us=12 * SECOND + 113_000, kind="link_up", target=("b", "c"))
    )
    return schedule


def main() -> None:
    graph = build_topology()
    workload = build_workload()

    print("=== 1. vanilla network: nondeterministic ===")
    vanilla = [
        run_production(graph, workload, mode="vanilla", seed=seed)
        for seed in (1, 2)
    ]
    same = vanilla[0].fingerprint == vanilla[1].fingerprint
    print(f"  two seeds, same execution? {same}  (expected: False)")
    d = diff_logs(vanilla[0].logs, vanilla[1].logs)
    print(f"  first divergence at node {d.node!r}, event #{d.step}:")
    print(f"    seed 1 saw: {d.a_tag}")
    print(f"    seed 2 saw: {d.b_tag}")

    print("\n=== 2. DEFINED-RB: deterministic, for the price of rollbacks ===")
    defined = [
        run_production(graph, workload, mode="defined", seed=seed)
        for seed in (1, 2)
    ]
    same = defined[0].fingerprint == defined[1].fingerprint
    print(f"  two seeds, same execution? {same}  (expected: True)")
    print(f"  rollbacks paid: {defined[0].rollbacks} and {defined[1].rollbacks}")
    print(f"  recording size: {defined[0].recording.size_bytes()} bytes "
          f"({len(defined[0].recording.events)} external events)")

    print("\n=== 3. DEFINED-LS: exact reproduction from the recording ===")
    replay = run_ls_replay(graph, defined[0].recording, seed=4242)
    print(f"  replay == production? {replay.fingerprint == defined[0].fingerprint}"
          "  (Theorem 1)")
    mean_step = sum(replay.step_times_us) / len(replay.step_times_us) / 1e6
    print(f"  lockstep steps: {replay.cycles}, mean response {mean_step:.3f} s")


if __name__ == "__main__":
    main()
