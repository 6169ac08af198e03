"""Scenario-sweep benchmarks: grid throughput and parallel speedup.

The sweep subsystem exists to make "run every scenario under every mode
and check the fingerprints" cheap.  These benches measure the two things
that matter for that: how fast a grid drains serially, and what the
process-pool sharding buys on the available cores (on a single-core CI
runner the speedup hovers around 1x; the printed table records whatever
this machine delivered).

``REPRO_BENCH_FULL=1`` widens the grid from a smoke-sized 2-seed sweep
to the full builtin catalogue x 5 seeds.
"""

from __future__ import annotations

import os

import pytest

from _bench import FULL, emit

from repro.analysis.report import render_table
from repro.sweep import SweepRunner

SEEDS = (1, 2, 3, 4, 5) if FULL else (1, 2)
SCENARIOS = None if FULL else [
    "latency-jitter", "xorp-bgp-med", "quagga-rip-blackhole",
    # one composed and one boundary-jittered scenario, so the bench grid
    # exercises the dynamic-resolution path end to end
    "latency-jitter+ddos-overload", "latency-jitter~j1us",
]
PARALLEL_WORKERS = min(4, max(2, (os.cpu_count() or 1)))


@pytest.fixture(scope="module")
def serial_report():
    return SweepRunner(scenarios=SCENARIOS, seeds=SEEDS, workers=1).run()


@pytest.fixture(scope="module")
def parallel_report():
    return SweepRunner(
        scenarios=SCENARIOS, seeds=SEEDS, workers=PARALLEL_WORKERS
    ).run()


def test_sweep_serial_throughput(benchmark, serial_report):
    """Time one serial pass over a single-seed grid (the per-cell cost)."""

    def run_once():
        return SweepRunner(scenarios=SCENARIOS, seeds=(1,), workers=1).run()

    report = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert report.ok(), report.render()
    cells = len(report.cells)
    emit(render_table(
        "sweep serial throughput",
        ["metric", "value"],
        [
            ["cells per pass", cells],
            ["wall seconds per pass", report.wall_seconds],
            ["cells per second", cells / max(report.wall_seconds, 1e-9)],
        ],
    ))


def test_sweep_parallel_speedup(serial_report, parallel_report):
    """Serial vs process-pool wall clock on the same grid, plus the
    bit-for-bit equivalence of their aggregate reports."""
    assert serial_report.ok(), serial_report.render()
    assert parallel_report.ok(), parallel_report.render()
    assert (
        serial_report.fingerprint_index() == parallel_report.fingerprint_index()
    ), "parallel sweep diverged from serial"
    speedup = serial_report.wall_seconds / max(parallel_report.wall_seconds, 1e-9)
    emit(render_table(
        "sweep parallel speedup",
        ["metric", "value"],
        [
            ["grid cells", len(serial_report.cells)],
            ["serial wall (s)", serial_report.wall_seconds],
            [f"parallel wall (s) ({PARALLEL_WORKERS} workers)",
             parallel_report.wall_seconds],
            ["speedup (x)", speedup],
            ["cpu cores", os.cpu_count() or 1],
        ],
    ))
    # on a multi-core box the pool must not be pathologically slower;
    # even on one core the overhead should stay within ~4x for this grid
    assert speedup > 0.25


def test_fuzz_grid_throughput(benchmark):
    """Time one boundary-jitter fuzz pass (snap + jitter + Theorem-1
    verification per cell) on a smoke-sized grid."""
    from repro.sweep import SweepRunner, fuzz_grid

    jitters = (0, 1, 2, 5) if FULL else (0, 1)

    def run_once():
        return SweepRunner(
            fuzz_grid(["latency-jitter"], jitters), seeds=(1,),
            modes=("defined",),
        ).run()

    report = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert report.ok(), report.render()
    emit(render_table(
        "boundary-jitter fuzz throughput",
        ["metric", "value"],
        [
            ["grid cells", len(report.cells)],
            ["wall seconds per pass", report.wall_seconds],
            ["cells per second", len(report.cells) / max(report.wall_seconds, 1e-9)],
        ],
    ))


def test_sweep_theorem1_holds_across_grid(serial_report):
    """Every DEFINED cell of the bench grid reproduced bit-for-bit."""
    defined = [c for c in serial_report.cells if c.mode == "defined"]
    assert defined
    assert all(c.invariant_ok for c in defined)
    emit(render_table(
        "Theorem-1 grid check",
        ["scenario", "defined cells", "reproduced"],
        [
            [name,
             sum(1 for c in defined if c.scenario == name),
             sum(1 for c in defined if c.scenario == name and c.invariant_ok)]
            for name in sorted({c.scenario for c in defined})
        ],
    ))
