"""The benchmark's five workloads.

Each workload reaches the system only through its public surface
(``repro.harness.run_production`` / ``run_ls_replay``,
``repro.sweep.get_scenario`` / ``SweepRunner``, ``repro.topology``,
``repro.chaos``) and checks the outputs of every repetition.

Seeds.  The single-cell workloads pin their *workload* (topology and
external-event schedule) to :data:`WORKLOAD_SEED`; ``--seed`` feeds the
simulated network's timing (link jitter and cost draws), one derived
seed per repetition.  Measured on ``flap-storm@40``, moving the schedule
seed moves rollbacks per delivery between 0.09 and 0.33 and wall time by
+-25 %: that is a different workload, not another sample of this one.
Timing seeds move wall time by ~3 %, and in ``defined`` mode they must
not move the fingerprint at all, which is the paper's claim and this
benchmark's cross-repetition check.  ``grid2w`` sweeps workload seeds
``seed .. seed+23``; 240 cells average the per-seed differences out.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.harness as harness  # called as attributes, so trace hooks are seen
from repro.chaos.compiler import compile_document
from repro.chaos.loader import parse_file
from repro.core.lockstep import LockstepCoordinator
from repro.simnet.engine import SECOND
from repro.sweep import SweepRunner, get_scenario
from repro.topology import rocketfuel_topology
from repro.topology.traces import compressed_trace

import layers

WORKLOAD_SEED = 1
GRID_SCENARIOS = ("flap-storm", "partition", "crash-restart", "latency-jitter")
SKEW_STORM = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "workloads", "skew-storm.yaml")


@dataclass(frozen=True)
class Sizes:
    nodes: int = 40
    trace_events: int = 60
    grid_seeds: int = 24


QUICK = Sizes(nodes=20, trace_events=10, grid_seeds=2)


def network_seed(seed: int, index: int) -> int:
    """Timing seed of repetition ``index`` under ``--seed seed``."""
    return seed * 1000 + index


def percentile(values: Sequence[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Rep:
    """What one repetition produced."""

    wall_s: float
    deliveries: int
    fingerprint: str
    failures: List[str]
    #: repetitions with equal identity must have equal fingerprints
    identity: Any = "any timing seed"
    #: operations attempted / failed: 1 repetition, or the grid's cells
    attempted: int = 1
    failed_cells: int = 0
    #: simulated-time results: exact for a seed, whatever the host does
    sim: Dict[str, float] = field(default_factory=dict)
    step_ms: List[float] = field(default_factory=list)
    #: the program's own result object (kept for the traced repetition only)
    result: Any = None

    @property
    def failed(self) -> int:
        return max(self.failed_cells, 1 if self.failures else 0)


@dataclass
class CellInputs:
    graph: Any
    schedule: Any
    run_kwargs: Dict[str, Any]
    expect: Optional[Callable] = None
    recording: Any = None
    production_fingerprint: Optional[str] = None


def _flap_inputs(nodes: int) -> CellInputs:
    """``flap-storm@N`` exactly as a sweep cell runs it."""
    scenario = get_scenario(f"flap-storm@{nodes}")
    graph = scenario.topology(WORKLOAD_SEED)
    return CellInputs(
        graph=graph,
        schedule=scenario.schedule(graph, WORKLOAD_SEED),
        run_kwargs=dict(
            jitter_us=scenario.jitter_us,
            ordering=scenario.ordering,
            daemon_factory=scenario.daemon(graph) if scenario.daemon else None,
            measure_convergence=False,
            settle_us=scenario.settle_us,
            tail_us=scenario.tail_us,
        ),
        expect=scenario.expect,
    )


class Workload:
    name: str
    hooks = layers.CELL_HOOKS
    top_span: str
    setup_repeats = 5
    #: worker processes the workload runs its cells on (0: this process)
    workers = 0

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def rep(self, inputs: Any, seed: int, index: int, keep: bool = False) -> Rep:
        raise NotImplementedError

    def warm_up(self, inputs: Any, seed: int) -> Rep:
        return self.rep(inputs, seed, 0)

    def final_checks(self, inputs: Any, seed: int) -> Tuple[int, List[str]]:
        """Untimed checks after the timed repetitions: how many
        operations they attempted, and what failed."""
        return 0, []

    def layer_facts(self, rep: Rep) -> Dict[str, float]:
        """Per-layer numbers the program's own result object carries."""
        return {}

    def probes(self, tracer: "layers.Tracer", rep: Rep, tmp: str) -> Dict[str, Optional[float]]:
        return {}


# ----------------------------------------------------------------------
# single-cell production runs
# ----------------------------------------------------------------------

def _cell_facts(network) -> Dict[str, float]:
    daemons = [node.daemon for node in network.nodes.values() if node.daemon is not None]
    return {
        "simnet.engine.events": network.sim.events_executed,
        "core.statestore.live_bytes_max": max(
            (d.store.live_bytes() for d in daemons if d.store is not None), default=0
        ),
    }


def _cell_probes(tracer: "layers.Tracer") -> Dict[str, Optional[float]]:
    return {
        "simnet.engine.us_per_event": layers.probe_engine_us_per_event(),
        "core.statestore.set_us": layers.probe_setitem_us(tracer),
        "core.statestore.estimate_bytes_us": layers.probe_estimate_bytes_us(tracer),
        "core.fingerprint.append_us": layers.probe_fingerprint_append_us(tracer),
    }


class Production(Workload):
    top_span = "harness.run_production"
    mode = "defined"

    def setup(self, seed: int) -> CellInputs:
        return _flap_inputs(self.sizes.nodes)

    def rep(self, inputs: CellInputs, seed: int, index: int, keep: bool = False) -> Rep:
        t0 = time.perf_counter()
        result = harness.run_production(
            inputs.graph, inputs.schedule, mode=self.mode,
            seed=network_seed(seed, index), **inputs.run_kwargs,
        )
        wall_s = time.perf_counter() - t0
        deliveries = sum(len(log) for log in result.logs.values())
        failures = []
        if result.unconverged_events:
            failures.append(f"{result.unconverged_events} events never converged")
        if result.late_deliveries:
            failures.append(f"{result.late_deliveries} late deliveries")
        if inputs.expect is not None and not inputs.expect(result):
            failures.append("scenario expect predicate does not hold")
        sim: Dict[str, float] = {}
        if self.mode == "defined":
            sim["sim_rollbacks_per_delivery"] = result.rollbacks / max(deliveries, 1)
            sim["sim_recording_bytes"] = result.recording.size_bytes()
            # for final_checks: the latest repetition's recording
            inputs.recording = result.recording
            inputs.production_fingerprint = result.fingerprint
        if result.convergence_times_us:
            conv_ms = [t / 1000 for t in result.convergence_times_us]
            sim["sim_conv_ms_p50"] = statistics.median(conv_ms)
            sim["sim_conv_ms_p90"] = percentile(conv_ms, 90)
        # vanilla executions depend on timing: only equal seeds reproduce
        identity = "any timing seed" if self.mode == "defined" else network_seed(seed, index)
        return Rep(wall_s, deliveries, result.fingerprint, failures, identity=identity,
                   sim=sim, result=result if keep else None)

    def layer_facts(self, rep: Rep) -> Dict[str, float]:
        result = rep.result
        facts = _cell_facts(result.network)
        if result.recording is not None:
            facts["core.shim.rollbacks"] = result.rollbacks
            facts["core.shim.late_deliveries"] = result.late_deliveries
            facts["core.recorder.records"] = len(result.recording.events)
        return facts

    def probes(self, tracer, rep: Rep, tmp: str) -> Dict[str, Optional[float]]:
        out = _cell_probes(tracer)
        if rep.result.recording is not None:
            out["core.recorder.recording_json_ms"] = layers.probe_recording_json_ms(
                rep.result.recording
            )
            out["artifact.bundle_save_ms"] = layers.probe_bundle_save_ms(rep.result, tmp)
        return out


class RbFlap(Production):
    """DEFINED-RB on ``flap-storm@40``: the rollback-storm regime (0.33
    rollbacks per delivery), where shim rollback and re-execution, store
    barrier and restore, OSPF and SPF do most of the work."""

    name = "rb-flap40"


class VanillaFlap(Production):
    """The same topology and schedule, uninstrumented: the bypass for
    everything under ``core/`` but the store write barrier, so engine and
    SPF changes show their largest relative effect here."""

    name = "vanilla-flap40"
    mode = "vanilla"


class RbEboneTrace(Production):
    """DEFINED-RB on Rocketfuel ebone with a 60-event trace and the 10 ms
    convergence probe (the Figure-6 set-up): 0.05 rollbacks per delivery,
    so the non-rollback path dominates and the probe reads every node's
    SPF result every slice."""

    name = "rb-ebone-trace"

    def setup(self, seed: int) -> CellInputs:
        graph = rocketfuel_topology("ebone", seed=WORKLOAD_SEED)
        schedule = compressed_trace(
            graph, n_events=self.sizes.trace_events, gap_us=8 * SECOND,
            start_us=4_097_000, seed=WORKLOAD_SEED,
        )
        return CellInputs(graph, schedule, dict(measure_convergence=True))

    def final_checks(self, inputs: CellInputs, seed: int) -> Tuple[int, List[str]]:
        # Theorem 1: the recording replays to the production fingerprint
        # (rb-flap40's recording is checked by every ls-flap40 repetition)
        replay = harness.run_ls_replay(inputs.graph, inputs.recording)
        if replay.fingerprint != inputs.production_fingerprint:
            return 1, ["Theorem 1: replay fingerprint differs from production"]
        return 1, []


# ----------------------------------------------------------------------
# lockstep replay
# ----------------------------------------------------------------------

class LsFlap(Workload):
    """DEFINED-LS replay of the recording ``rb-flap40`` produces: lockstep
    coordinator and event engine dominate, no rollbacks.  The
    interactive-debugging path, so each step is timed."""

    name = "ls-flap40"
    top_span = "harness.run_ls_replay"
    setup_repeats = 3  # each one records a production run

    def setup(self, seed: int) -> CellInputs:
        inputs = _flap_inputs(self.sizes.nodes)
        production = harness.run_production(
            inputs.graph, inputs.schedule, mode="defined",
            seed=network_seed(seed, 0), **inputs.run_kwargs,
        )
        inputs.recording = production.recording
        inputs.production_fingerprint = production.fingerprint
        return inputs

    def rep(self, inputs: CellInputs, seed: int, index: int, keep: bool = False) -> Rep:
        step_ms: List[float] = []
        kwargs = inputs.run_kwargs
        with layers.timed_calls(LockstepCoordinator, "advance_cycle", step_ms):
            t0 = time.perf_counter()
            replay = harness.run_ls_replay(
                inputs.graph, inputs.recording, ordering=kwargs["ordering"],
                seed=network_seed(seed, index), jitter_us=kwargs["jitter_us"],
                daemon_factory=kwargs["daemon_factory"],
            )
            wall_s = time.perf_counter() - t0
        failures = []
        if replay.fingerprint != inputs.production_fingerprint:
            failures.append("Theorem 1: replay fingerprint differs from production")
        if replay.cycles != len(step_ms) or not step_ms:
            failures.append(f"{replay.cycles} cycles reported, {len(step_ms)} stepped")
        sim = {"sim_step_ms_p50": statistics.median(replay.step_times_us) / 1000}
        deliveries = sum(len(log) for log in replay.logs.values())
        return Rep(wall_s, deliveries, replay.fingerprint, failures, sim=sim,
                   step_ms=step_ms, result=replay if keep else None)

    def layer_facts(self, rep: Rep) -> Dict[str, float]:
        facts = _cell_facts(rep.result.network)
        facts["core.lockstep.cycles"] = rep.result.cycles
        facts["core.lockstep.engine_events_per_delivery"] = (
            facts["simnet.engine.events"] / max(rep.deliveries, 1)
        )
        return facts

    def probes(self, tracer, rep: Rep, tmp: str) -> Dict[str, Optional[float]]:
        return _cell_probes(tracer)


# ----------------------------------------------------------------------
# supervised grid
# ----------------------------------------------------------------------

@dataclass
class GridInputs:
    scenarios: List[str]
    journal_root: str


class Grid(Workload):
    """Supervised 2-worker sweep of 240 small cells (four builtin families
    and a chaos/v1 document): sweep, result ring, heartbeat, journal and
    chaos loader are the variable part, per-delivery work is not."""

    name = "grid2w"
    hooks = layers.GRID_HOOKS
    top_span = "sweep.run"
    workers = 2  # = nproc of the host the workloads were sized on

    def setup(self, seed: int) -> GridInputs:
        # relative, as a user would name it: the path is the scenario's
        # name in every cell result
        skew_storm = os.path.relpath(SKEW_STORM)
        document, _marks = parse_file(skew_storm)
        compile_document(document)  # uncached; get_scenario() caches by path
        scenarios = [*GRID_SCENARIOS, skew_storm]
        for name in scenarios:
            get_scenario(name)
        return GridInputs(scenarios, tempfile.mkdtemp(prefix="grid2w-journals-"))

    def _run(self, inputs: GridInputs, seeds: range, keep: bool) -> Rep:
        journal = tempfile.mkdtemp(dir=inputs.journal_root)
        t0 = time.perf_counter()
        report = SweepRunner(
            inputs.scenarios, seeds=seeds, workers=self.workers,
            cell_timeout_s=120, retries=1, journal_dir=journal,
        ).run()
        wall_s = time.perf_counter() - t0
        shutil.rmtree(journal)
        cells = report.cells
        expected = len(inputs.scenarios) * len(seeds) * 2  # default modes
        failures = []
        if not report.ok():
            failures.append("sweep report is not ok()")
        completed = report.coverage()["completed"]
        if completed != expected:
            failures.append(f"{completed} of {expected} cells completed")
        return Rep(
            wall_s, sum(c.deliveries for c in cells), report.semantic_digest(), failures,
            identity=tuple(seeds), attempted=expected,
            failed_cells=expected - sum(1 for c in cells if c.ok),
            result=report if keep else None,
        )

    def rep(self, inputs: GridInputs, seed: int, index: int, keep: bool = False) -> Rep:
        return self._run(inputs, range(seed, seed + self.sizes.grid_seeds), keep)

    def warm_up(self, inputs: GridInputs, seed: int) -> Rep:
        # one seed's cells load the lazy imports and fill the scenario
        # caches; pool start-up stays inside every timed repetition
        return self._run(inputs, range(seed, seed + 1), False)

    def layer_facts(self, rep: Rep) -> Dict[str, float]:
        cells = rep.result.cells
        busy_s = sum(c.wall_seconds for c in cells)
        return {
            "sweep.cells_per_s": len(cells) / rep.wall_s,
            "sweep.run_cell_ms_p50": statistics.median(c.wall_seconds for c in cells) * 1e3,
            "sweep.worker_busy_share": busy_s / (self.workers * rep.wall_s),
            "supervise.retries": sum(c.attempts - 1 for c in cells),
        }

    def probes(self, tracer, rep: Rep, tmp: str) -> Dict[str, Optional[float]]:
        return {
            "sweep.pool_start_ms": layers.probe_pool_start_ms(self.workers),
            "chaos.load_scenario_file_ms": layers.probe_load_scenario_file_ms(SKEW_STORM, tmp),
            **layers.probe_sweep_stream_us(rep.result.cells),
        }


WORKLOADS = (RbFlap, RbEboneTrace, LsFlap, VanillaFlap, Grid)
