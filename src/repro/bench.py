"""Machine-readable performance numbers (``repro bench``).

Measures the throughput numbers the perf trajectory tracks and emits
them as JSON (CI uploads the report on every PR).  Regression gating
is ``perf/run.py`` + ``BENCHMARK.json``'s job, not this module's:

* **checkpoint**: per-op cost of ``DefinedShim._take_checkpoint`` on a
  settled flap-storm@40 network, under both snapshot mechanisms.  This
  is the per-delivery hot path; the COW store must beat the deepcopy
  fallback by a wide margin (the acceptance bar is 5x; in practice it is
  an order of magnitude or two).
* **run**: end-to-end wall time of a rollback-heavy production cell
  under both mechanisms, with the fingerprints cross-checked -- the
  differential guarantee and the speedup in one number.
* **sweep**: grid cells per second through :class:`~repro.sweep.SweepRunner`
  (the unit every envelope/fuzz/sweep campaign is billed in).
* **fingerprint**: per-delivery identity-tag + digest cost
  (``fingerprint_us``), cached interned tags (the shipping path) vs
  per-delivery repr rebuild (the pre-interning reference the
  differential grid pins against).  The acceptance bar is 2x on this
  metric; end-to-end wall is dominated by SPF and the checkpoint write
  barrier, so the **run** number moves only a few percent.

Wall-clock numbers are host-dependent; the report records the machine
that produced it.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

from repro.harness import build_ospf_network, run_production
from repro.simnet.engine import SECOND


def _settled_defined_network(scenario_name: str, seed: int, snapshots: str,
                             warm_events: int = 2):
    """A DEFINED-RB network with populated daemon state: booted, beaconed,
    and driven through the scenario's first few external events."""
    from repro.sweep import get_scenario

    scenario = get_scenario(scenario_name)
    graph = scenario.topology(seed)
    schedule = scenario.schedule(graph, seed)
    daemon_factory = scenario.daemon(graph) if scenario.daemon else None
    net, _recorder, beacons, _ = build_ospf_network(
        graph,
        mode="defined",
        seed=seed,
        jitter_us=scenario.jitter_us,
        ordering=scenario.ordering,
        daemon_factory=daemon_factory,
        snapshots=snapshots,
    )
    assert beacons is not None
    beacons.start()
    net.start()
    for event in schedule.sorted()[:warm_events]:
        net.run(until_us=event.time_us)
        net.apply_event(event)
    net.run(until_us=net.sim.now + SECOND)
    return net, beacons


def checkpoint_bench(
    scenario: str = "flap-storm@40", seed: int = 1, iters: int = 300
) -> Dict[str, Any]:
    """Per-op ``_take_checkpoint`` cost, COW vs deepcopy, on ``scenario``."""
    out: Dict[str, Any] = {"scenario": scenario, "seed": seed, "iters": iters}
    for snapshots in ("cow", "deepcopy"):
        net, beacons = _settled_defined_network(scenario, seed, snapshots)
        shim = max(
            (node.stack for node in net.nodes.values()),
            key=lambda stack: len(stack.delivery_log),
        )
        samples: List[float] = []
        for _ in range(iters):
            t0 = time.perf_counter_ns()
            shim._take_checkpoint()
            samples.append((time.perf_counter_ns() - t0) / 1000.0)
        beacons.stop()
        out[snapshots] = {
            "mean_us": round(statistics.fmean(samples), 3),
            "median_us": round(statistics.median(samples), 3),
            "p90_us": round(sorted(samples)[int(0.9 * len(samples))], 3),
            "state_bytes": shim._store.live_bytes() if shim._store else None,
            # per-namespace COW journal traffic on the busiest node:
            # which tables actually pay the write barrier
            "dirty_keys": (
                {ns: n for ns, n in shim._store.dirty_key_counts().items() if n}
                if shim._store else None
            ),
        }
    out["speedup"] = round(
        out["deepcopy"]["median_us"] / max(out["cow"]["median_us"], 1e-9), 2
    )
    return out


def run_bench(scenario: str = "flap-storm", seed: int = 1) -> Dict[str, Any]:
    """End-to-end production wall time under both snapshot mechanisms,
    with the differential fingerprint check folded in."""
    from repro.sweep import get_scenario

    sc = get_scenario(scenario)
    graph = sc.topology(seed)
    schedule = sc.schedule(graph, seed)
    daemon_factory = sc.daemon(graph) if sc.daemon else None
    out: Dict[str, Any] = {"scenario": scenario, "seed": seed}
    fingerprints = {}
    for snapshots in ("cow", "deepcopy"):
        result = run_production(
            graph,
            schedule,
            mode="defined",
            seed=seed,
            jitter_us=sc.jitter_us,
            ordering=sc.ordering,
            daemon_factory=daemon_factory,
            measure_convergence=False,
            settle_us=sc.settle_us,
            tail_us=sc.tail_us,
            snapshots=snapshots,
        )
        fingerprints[snapshots] = result.fingerprint
        out[snapshots] = {
            "wall_s": round(result.wall_seconds, 3),
            "rollbacks": result.rollbacks,
            "deliveries": sum(len(log) for log in result.logs.values()),
        }
    out["speedup"] = round(
        out["deepcopy"]["wall_s"] / max(out["cow"]["wall_s"], 1e-9), 2
    )
    out["fingerprints_match"] = fingerprints["cow"] == fingerprints["deepcopy"]
    return out


def fingerprint_bench(
    scenario: str = "flap-storm@40", seed: int = 1, repeats: int = 20
) -> Dict[str, Any]:
    """Per-delivery tag + digest cost, cached vs repr rebuild.

    Harvests the history entries of a settled DEFINED-RB network, then
    replays the fingerprint pipeline over them under both settings of
    the tag cache: the cached pass serves interned tags and folds the
    per-node :class:`~repro.core.fingerprint.DeliveryLog` digests; the
    rebuild pass re-renders ``repr(payload)`` on every delivery and
    hashes a plain list at the end (the pre-PR-8 behaviour).  Both
    passes must agree on the fingerprint bit-for-bit.
    """
    from repro.core.fingerprint import DeliveryLog, execution_fingerprint
    from repro.core.history import set_tag_cache

    # drive deeper into the schedule than the checkpoint bench does: a
    # handful of flap cycles leaves ~500 retained deliveries with real
    # LSA payloads, enough to amortize the per-node combine overhead out
    # of the per-delivery number.
    net, beacons = _settled_defined_network(scenario, seed, "cow",
                                            warm_events=12)
    entries = {
        node_id: list(node.stack.history.entries)
        for node_id, node in net.nodes.items()
    }
    beacons.stop()
    deliveries = sum(len(node_entries) for node_entries in entries.values())

    def cached_pass() -> str:
        logs: Dict[str, DeliveryLog] = {}
        for node_id, node_entries in entries.items():
            log = DeliveryLog()
            for entry in node_entries:
                log.append(entry.tag())
            logs[node_id] = log
        return execution_fingerprint(logs)

    def rebuild_pass() -> str:
        logs: Dict[str, List[str]] = {}
        for node_id, node_entries in entries.items():
            logs[node_id] = [entry.tag() for entry in node_entries]
        return execution_fingerprint(logs)

    out: Dict[str, Any] = {
        "scenario": scenario, "seed": seed,
        "deliveries": deliveries, "repeats": repeats,
    }
    fingerprints: Dict[str, str] = {}
    old = set_tag_cache(True)
    try:
        cached_pass()  # warm every cached_tag before timing
        for label, passer, cache_on in (
            ("cached", cached_pass, True),
            ("rebuild", rebuild_pass, False),
        ):
            set_tag_cache(cache_on)
            samples: List[float] = []
            for _ in range(repeats):
                t0 = time.perf_counter_ns()
                fingerprints[label] = passer()
                samples.append((time.perf_counter_ns() - t0) / 1000.0)
            per_pass = statistics.median(samples)
            out[label] = {
                "fingerprint_us": round(per_pass / max(deliveries, 1), 4),
                "pass_ms": round(per_pass / 1000.0, 3),
            }
    finally:
        set_tag_cache(old)
    out["speedup"] = round(
        out["rebuild"]["fingerprint_us"]
        / max(out["cached"]["fingerprint_us"], 1e-9), 2
    )
    out["fingerprints_match"] = fingerprints["cached"] == fingerprints["rebuild"]
    return out


def sweep_bench(
    scenarios=("flap-storm", "partition"), seeds=(1,), workers: int = 1
) -> Dict[str, Any]:
    """Grid throughput in cells/second (defined mode, Theorem-1 checks on)."""
    from repro.sweep import SweepRunner

    runner = SweepRunner(
        scenarios=list(scenarios),
        seeds=list(seeds),
        modes=("defined",),
        workers=workers,
    )
    report = runner.run()
    cells = len(report.cells)
    return {
        "scenarios": list(scenarios),
        "cells": cells,
        "ok": report.ok(),
        "wall_s": round(report.wall_seconds, 3),
        "cells_per_s": round(cells / max(report.wall_seconds, 1e-9), 3),
    }


def collect(quick: bool = False) -> Dict[str, Any]:
    """Run the whole bench suite and return the JSON-able report."""
    report: Dict[str, Any] = {
        "bench_format": 1,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "checkpoint": checkpoint_bench(
            scenario="flap-storm@20" if quick else "flap-storm@40",
            iters=100 if quick else 300,
        ),
        "run": run_bench(),
        "sweep": sweep_bench(),
        "fingerprint": fingerprint_bench(
            scenario="flap-storm@20" if quick else "flap-storm@40",
            repeats=5 if quick else 20,
        ),
    }
    return report


def main_bench(json_out: Optional[str], quick: bool) -> int:
    """CLI body for ``repro bench`` (kept here so it is importable)."""
    report = collect(quick=quick)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(text + "\n")
        print(f"\nbench report written to {json_out}", file=sys.stderr)
    return 0
