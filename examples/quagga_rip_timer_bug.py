#!/usr/bin/env python
"""Case study 2 (paper Section 4, Figure 5): the Quagga 0.96.5 RIP bug.

RIP routers expire routes whose next hop stops announcing them.  Quagga
0.96.5 matches announcements against the table by destination only, so
the *backup* router's announcements keep refreshing the timer of the
route through the *dead main router* -- a black hole.  Whether the bug
bites depends on timing: does the backup's announcement reach R1 before
or after the route expires?

This script shows:

1. the race in uninstrumented networks (both outcomes across seeds) and
   the configuration where the black hole is permanent;
2. determinism under DEFINED-RB: timers run in virtual time, so the race
   resolves identically on every run;
3. exact reproduction in a debugging network, with the route's state
   inspected as the troubleshooter steps through groups;
4. patch validation (destination+next-hop matching).

Run:  python examples/quagga_rip_timer_bug.py
"""

from collections import Counter

from repro.core.debugger import Debugger
from repro.harness import build_ls_coordinator, run_ls_replay
from repro.scenarios import (
    RIP_DEST,
    RIP_MAIN,
    quagga_rip_scenario,
    rip_daemon_factory,
    rip_topology,
)


def describe(route_via) -> str:
    if route_via == RIP_MAIN:
        return "BLACK HOLE (still routing via the dead main router)"
    if route_via is None:
        return "route flushed (awaiting the backup's next announcement)"
    return f"failed over to {route_via}"


def step_1_races_and_black_holes() -> None:
    print("=== 1. the timing race in uninstrumented networks ===")
    outcomes = Counter()
    for seed in range(12):
        outcome = quagga_rip_scenario(
            mode="vanilla", matching="buggy", config="race", seed=seed
        )
        outcomes[outcome.route_via] += 1
    print(f"  12 runs of the race configuration: "
          f"{ {describe(k): v for k, v in outcomes.items()} }")

    permanent = quagga_rip_scenario(
        mode="vanilla", matching="buggy", config="blackhole", seed=0
    )
    print(f"  fast-announcing backup: {describe(permanent.route_via)} -- "
          "and it is permanent: every announcement refreshes the dead route")


def step_2_deterministic_production():
    print("\n=== 2. DEFINED-RB: the race resolves identically every run ===")
    runs = [
        quagga_rip_scenario(
            mode="defined", matching="buggy", config="blackhole", seed=seed
        )
        for seed in (1, 2, 3)
    ]
    outcomes = {run.route_via for run in runs}
    print(f"  3 instrumented runs: outcome always {describe(outcomes.pop())}")
    return runs[0]


def step_3_interactive_debugging(production) -> None:
    print("\n=== 3. stepping through the black hole in the debugger ===")
    coordinator = build_ls_coordinator(
        rip_topology(), production.result.recording, seed=123, jitter_us=300,
        daemon_factory=rip_daemon_factory("buggy", 8),
    )
    net = coordinator.network
    debugger = Debugger(coordinator)

    # break when the main router's death is replayed (a dead router logs
    # nothing itself, so we watch the replayed topology state)
    debugger.add_breakpoint(
        "main-router-died",
        lambda c: not c.stacks[RIP_MAIN].active,
        one_shot=True,
    )
    report = debugger.run()
    print(f"  paused at the main router's failure: {report.summary()}")
    route = net.nodes["R1"].daemon.rib.lookup(RIP_DEST)
    print(f"  R1's route: {route!r}")

    # watch the timer being refreshed by the WRONG router
    last_expiry = None
    while not debugger.finished and coordinator.current_group < report.group + 20:
        debugger.step_group()
        route = net.nodes["R1"].daemon.rib.lookup(RIP_DEST)
        if route is not None and route.expires_vt != last_expiry:
            last_expiry = route.expires_vt
            print(f"  group {coordinator.current_group}: route {route!r}"
                  " -- expiry keeps moving although R2 is dead")
    debugger.run()
    final = net.nodes["R1"].daemon.route_via(RIP_DEST)
    print(f"  replay complete: {describe(final)} "
          f"(matches production: {final == production.route_via})")


def step_4_validate_patch(production) -> None:
    print("\n=== 4. validate the patch (match destination AND next hop) ===")
    patched = run_ls_replay(
        rip_topology(),
        production.result.recording,
        daemon_factory=rip_daemon_factory("correct", 8),
    )
    final = patched.network.nodes["R1"].daemon.route_via(RIP_DEST)
    print(f"  patched daemon, same recording: {describe(final)}")


def main() -> None:
    step_1_races_and_black_holes()
    production = step_2_deterministic_production()
    step_3_interactive_debugging(production)
    step_4_validate_patch(production)


if __name__ == "__main__":
    main()
