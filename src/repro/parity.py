"""Cross-interpreter bundle-hash parity (the CI ``parity`` job).

Theorem 1 makes a claim the artifact layer can enforce mechanically: an
execution is a function of the workload, not of the machine running it.
Run bundles operationalize that -- the content address hashes only the
canonically-serialized semantic section, with environment metadata kept
outside -- so the *same grid run under different interpreters must
produce byte-identical bundle hashes*.

This module runs a small fixed grid (production + Theorem-1 replay per
cell, with the super-beacon 300 ms jitter regime included, since that is
where the chain-delay model earns its keep) and emits one
``scenario seed role sha256`` line per bundle.  CI runs it once per
python version and diffs the outputs; any split is a determinism
regression with a named cell attached.

A change to the rollback protocol (lazy cancellation was one) moves both
``flap-storm@20`` lines and must leave the ``crash-restart`` and
``partition`` lines alone.  A production bundle carries its rollback
count; and in the 300 ms super-beacon regime the fingerprint itself is a
function of the timing seed (network seeds 1 / 2 / 3 / 1001 give four
fingerprints, each equal to its own LS replay), because which
re-emission meets a downed link depends on which rollbacks happen.

Usage: ``python -m repro.parity [--out hashes.txt]``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

#: The parity grid: (scenario, seed, delivery-jitter override).  Small
#: on purpose -- parity needs witnesses, not coverage -- but it must
#: include a super-beacon-jitter cell (the closed Theorem-1 hole).
PARITY_GRID: Tuple[Tuple[str, int, Optional[int]], ...] = (
    ("flap-storm@20", 1, 300_000),
    ("crash-restart", 1, None),
    ("partition", 2, None),
)


def bundle_hashes(
    grid: Sequence[Tuple[str, int, Optional[int]]] = PARITY_GRID,
) -> List[str]:
    """Run the grid; one ``scenario seed role sha256`` line per bundle."""
    from repro.artifact import RunBundle
    from repro.sweep import get_scenario, replay_scenario, run_scenario

    lines: List[str] = []
    for name, seed, jitter_us in grid:
        scenario = get_scenario(name)
        context = {"scenario": name, "seed": seed, "jitter_us": jitter_us}
        production = run_scenario(scenario, "defined", seed, jitter_us=jitter_us)
        prod_bundle = RunBundle.from_production(production, context=context)
        lines.append(f"{name} seed={seed} production {prod_bundle.sha256}")
        replay = replay_scenario(scenario, production)
        replay_bundle = RunBundle.from_replay(replay, context=context)
        lines.append(f"{name} seed={seed} replay {replay_bundle.sha256}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.parity",
        description="emit content-addressed bundle hashes for the fixed "
        "parity grid (CI diffs these across interpreters)",
    )
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the hash lines to this file")
    args = parser.parse_args(argv)
    text = "\n".join(bundle_hashes()) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
