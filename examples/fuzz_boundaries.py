#!/usr/bin/env python
"""Boundary-jitter fuzzing demo: attack Theorem 1 where it is weakest.

Beacon-group boundaries are where DEFINED's machinery hands off: an
external event one microsecond before a boundary is tagged with the old
group, one microsecond after with the new one, and anti-message
retraction quantizes crashes to the same edges.  This demo

1. composes two builtin scenarios into a harsher one
   (``flap-storm+partition``: a bipartition cut in the middle of a flap
   storm), and
2. runs a boundary-jitter fuzz over it and a few other builtins: every
   external event snapped onto a group boundary +/- a seed-derived
   microsecond or two, across a seed sweep, with each DEFINED cell
   checked production-vs-replay bit for bit.

Any divergence is shrunk to the smallest failing (scenario, seed,
jitter) triple and printed as a one-line reproducer.

Run:  python examples/fuzz_boundaries.py [workers [seeds]]
"""

import sys

from repro.sweep import SweepRunner, fuzz_grid, shrink_failure


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    seeds = (
        [int(s) for s in sys.argv[2].split(",")] if len(sys.argv) > 2 else [1, 2, 3]
    )
    runner = SweepRunner(
        fuzz_grid(
            [
                "flap-storm",
                "crash-restart",
                "flap-storm+partition",
                "crash-restart+ddos-overload",
            ],
            jitters_us=(0, 1, 2),
        ),
        seeds=seeds,
        modes=("defined",),
        workers=workers,
    )
    print(f"... {len(runner.grid())} jittered cells on {workers} worker(s)")
    report = runner.run()
    print(report.render())
    if not report.ok():
        print(f"minimized: {shrink_failure(report)}")
        sys.exit(1)


if __name__ == "__main__":
    main()
