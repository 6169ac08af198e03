"""The DDOS stop-and-wait baseline pinned to stored golden rows.

Each row of ``tests/golden/ddos-rows.jsonl`` is one ``ddos``-mode
production run, keyed by its scenario spec and seed: the execution
fingerprint, the late (mis-ordered) deliveries, the committed deliveries,
the simulated time the run ended at and the engine events it executed.
The specs cover the fault families whose reboot, partition and jitter
paths the default grid's two ``ddos`` cells do not reach, sized and
composed variants included.  Two more rows measure convergence on
``flap-storm`` (seeds 1-2) and store the sample list as its length plus
a 16-hex sha256 prefix.

A change that moves any of these on purpose regenerates the file (see
``tests/_golden.py``), and the failing run names every moved field.

The last test pins one timer rule of the stack by hand: a timer firing
leaves the table when it is queued for release, so a daemon that re-arms
the timer before that firing is released keeps the new arming.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, List

from _fixtures import line_graph
from _golden import assert_rows

from repro.harness import run_production
from repro.routing.base import Daemon
from repro.simnet.events import EventSchedule
from repro.sweep import get_scenario, run_scenario

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "ddos-rows.jsonl")

SPECS = (
    "ddos-overload",
    "ddos-overload~j1us",
    "ddos-overload@12",
    "flap-storm",
    "crash-restart",
    "partition",
    "latency-jitter",
    "flap-storm@20",
    "crash-restart@12",
    "partition+crash-restart",
)
SEEDS = (1, 2, 3)
CONVERGENCE_SPEC = "flap-storm"
CONVERGENCE_SEEDS = (1, 2)


def _row(spec: str, seed: int, result) -> Dict:
    return {
        "spec": spec,
        "seed": seed,
        "fingerprint": result.fingerprint,
        "late_deliveries": result.late_deliveries,
        "committed": sum(len(log) for log in result.logs.values()),
        "now_us": result.network.sim.now,
        "events": result.network.sim.events_executed,
    }


def _convergence_row(spec: str, seed: int) -> Dict:
    """``run_scenario``'s run of ``spec`` with convergence measured."""
    scenario = get_scenario(spec)
    graph = scenario.topology(seed)
    result = run_production(
        graph,
        scenario.schedule(graph, seed),
        mode="ddos",
        seed=seed,
        jitter_us=scenario.jitter_us,
        ordering=scenario.ordering,
        daemon_factory=scenario.daemon(graph) if scenario.daemon else None,
        measure_convergence=True,
        settle_us=scenario.settle_us,
        tail_us=scenario.tail_us,
        tuning=scenario.tuning(graph, seed) if scenario.tuning is not None else None,
    )
    samples = result.convergence_times_us
    row = _row(f"{spec}/convergence", seed, result)
    row["convergence"] = len(samples)
    row["convergence_sha"] = hashlib.sha256(
        ",".join(str(t) for t in samples).encode()
    ).hexdigest()[:16]
    return row


def test_ddos_runs_match_their_golden_rows():
    rows: List[Dict] = [
        _row(spec, seed, run_scenario(get_scenario(spec), "ddos", seed))
        for spec in SPECS
        for seed in SEEDS
    ]
    rows += [_convergence_row(CONVERGENCE_SPEC, seed) for seed in CONVERGENCE_SEEDS]
    assert_rows(GOLDEN, rows, key=("spec", "seed"))


class Rearmer(Daemon):
    """``n0`` arms ``t`` for one unit at boot and re-arms it for five on
    the ping that ``n1`` sends it at boot."""

    def on_start(self):
        if self.node_id == "n0":
            self.stack.set_timer(1, "t")
        else:
            self.send("n0", "ping", "x")

    def on_message(self, msg):
        self.stack.set_timer(5, "t")

    def on_timer(self, key):
        pass


def test_a_rearm_before_release_survives_the_queued_firing():
    """The ping (group 0) and ``t``'s first firing (group 1) are held
    until group 0 closes, and the ping sorts first: its handler re-arms
    ``t`` while the first firing is already queued.  Both firings are
    delivered."""
    result = run_production(
        line_graph(2),
        EventSchedule(),
        mode="ddos",
        daemon_factory=Rearmer,
        measure_convergence=False,
    )
    log = list(result.logs["n0"])
    assert len(log) == 3, log
    assert log[0].startswith("m|ping|")
    assert log[1:] == ["t|t|1", "t|t|5"]
