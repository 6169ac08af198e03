#!/usr/bin/env python
"""Case study 1 (paper Section 4, Figure 4): the XORP 0.4 BGP MED bug.

Three BGP paths with non-transitive MED preference race to router R3.
XORP 0.4 compares each incoming path only against the current best, so
the selected route depends on arrival order -- a classic nondeterministic
ordering bug.  This script walks the paper's troubleshooting workflow:

1. observe the bug appearing *sometimes* in uninstrumented networks;
2. run the production network under DEFINED-RB -- the outcome becomes
   deterministic, and only external events are recorded;
3. replay the recording in a DEFINED-LS debugging network and step to
   the exact decision that goes wrong, with breakpoints and state
   inspection;
4. validate the patch (full-selection decision process) against the very
   same recording.

Run:  python examples/xorp_bgp_med_bug.py
"""

from collections import Counter

from repro.core.debugger import Debugger
from repro.harness import build_ls_coordinator, run_ls_replay
from repro.scenarios import (
    BGP_CORRECT_BEST,
    BGP_PREFIX,
    bgp_daemon_factory,
    bgp_topology,
    xorp_bgp_scenario,
)


def step_1_observe_nondeterminism() -> None:
    print("=== 1. the bug is nondeterministic in production ===")
    outcomes = Counter()
    for seed in range(10):
        outcome = xorp_bgp_scenario(mode="vanilla", decision="buggy", seed=seed)
        outcomes[outcome.best_at_r3] += 1
    print(f"  10 uninstrumented runs picked best paths: {dict(outcomes)}")
    print(f"  (full decision process would always pick {BGP_CORRECT_BEST}; "
          f"p2 is the bug)")


def step_2_deterministic_production():
    print("\n=== 2. under DEFINED-RB the outcome is deterministic ===")
    runs = [
        xorp_bgp_scenario(mode="defined", decision="buggy", seed=seed)
        for seed in (1, 2, 3)
    ]
    picks = {run.best_at_r3 for run in runs}
    print(f"  3 instrumented runs picked: {picks} (one outcome, every time)")
    recording = runs[0].result.recording
    print(f"  partial recording: {len(recording.events)} external events, "
          f"{recording.size_bytes()} bytes")
    return runs[0]


def step_3_interactive_debugging(production) -> None:
    print("\n=== 3. interactive debugging in a DEFINED-LS network ===")
    coordinator = build_ls_coordinator(
        bgp_topology(), production.result.recording, seed=999, jitter_us=300,
        daemon_factory=bgp_daemon_factory("buggy"),
    )
    net = coordinator.network
    debugger = Debugger(coordinator)

    # break the moment R3 has seen all three candidate paths
    debugger.break_on_state(
        "R3",
        lambda daemon: len(daemon.adj_rib_in) == 3,
        name="all-paths-at-R3",
    )
    report = debugger.run()
    print(f"  paused: {report.summary()}")
    view = debugger.inspect("R3")
    best = view["daemon_state"]["best"][BGP_PREFIX]["path_id"]
    known = sorted(pid for _pfx, pid in view["daemon_state"]["adj_rib_in"])
    print(f"  R3 now knows paths {known} but selected {best!r}")
    print(f"  -> the incremental pairwise comparison kept {best!r} even "
          f"though the full rule set prefers {BGP_CORRECT_BEST!r}")
    debugger.run()
    final = net.nodes["R3"].daemon.best_path_id(BGP_PREFIX)
    print(f"  replay completed; final best at R3: {final!r} "
          f"(same as production: {final == production.best_at_r3})")


def step_4_validate_patch(production) -> None:
    print("\n=== 4. validate the patch against the same recording ===")
    patched = run_ls_replay(
        bgp_topology(),
        production.result.recording,
        daemon_factory=bgp_daemon_factory("correct"),
    )
    best = patched.network.nodes["R3"].daemon.best_path_id(BGP_PREFIX)
    print(f"  patched decision process picks: {best!r} "
          f"(expected {BGP_CORRECT_BEST!r})")
    print("  deterministic execution guarantees the patched behaviour "
          "carries over to the production network")


def main() -> None:
    step_1_observe_nondeterminism()
    production = step_2_deterministic_production()
    step_3_interactive_debugging(production)
    step_4_validate_patch(production)


if __name__ == "__main__":
    main()
