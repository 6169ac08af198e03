"""Per-layer tracing from outside the program.

Wrappers are installed on each layer's public entry points by rebinding
class attributes and module globals; nothing under ``src/`` knows it is
being traced.  Two kinds of hook:

* **span** hooks record ``(name, parent, start, end)`` for every call.
  Spans stay in memory and are aggregated after the run; a layer's self
  time is its spans' duration minus the part their child spans cover.
* **count** hooks are for calls made ~100 k times or more per run, where
  a timing wrapper would cost as much as the call.  They count top-level
  calls and keep the first :data:`HARVEST` argument tuples; an isolated
  *probe* then times the unwrapped function on those inputs, so the
  layer's cost is ``calls x us/op`` and wrapper cost does not pose as
  layer cost.

A hook whose target no longer exists is reported ``absent`` and skipped:
a refactor must not crash the benchmark, it must show up in it.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Argument tuples kept per count hook, as probe inputs.
HARVEST = 4096


@dataclass(frozen=True)
class Hook:
    name: str     # metric stem: "<module name>.<entry point>"
    target: str   # "package.module:function" or "package.module:Class.attr"
    kind: str     # "span" | "count"


#: Hooks for workloads that run cells in this process.
CELL_HOOKS: Tuple[Hook, ...] = (
    Hook("harness.run_production", "repro.harness:run_production", "span"),
    Hook("harness.run_ls_replay", "repro.harness:run_ls_replay", "span"),
    Hook("simnet.engine.run", "repro.simnet.engine:Simulator.run", "span"),
    Hook("simnet.engine.schedule", "repro.simnet.engine:Simulator.schedule", "count"),
    Hook("simnet.network.transmit", "repro.simnet.network:Network.transmit", "span"),
    Hook("simnet.node.deliver", "repro.simnet.node:Node.deliver", "count"),
    Hook("core.shim.on_wire", "repro.core.shim:DefinedShim.on_wire", "span"),
    Hook("core.shim.send", "repro.core.shim:DefinedShim.send", "span"),
    Hook("core.statestore.snapshot", "repro.core.statestore:StateStore.snapshot", "span"),
    Hook("core.statestore.restore", "repro.core.statestore:StateStore.restore", "span"),
    Hook("core.statestore.setitem", "repro.core.statestore:Namespace.__setitem__", "count"),
    Hook("core.statestore.estimate_bytes", "repro.core.statestore:estimate_bytes", "count"),
    Hook("routing.ospf.on_message", "repro.routing.ospf:OspfDaemon.on_message", "span"),
    Hook("routing.ospf.on_timer", "repro.routing.ospf:OspfDaemon.on_timer", "span"),
    Hook("routing.ospf.on_external", "repro.routing.ospf:OspfDaemon.on_external", "span"),
    Hook("routing.ospf.routing_distances",
         "repro.routing.ospf:OspfDaemon.routing_distances", "span"),
    Hook("routing.spf.dijkstra", "repro.routing.spf:dijkstra", "span"),
    Hook("core.fingerprint.append", "repro.core.fingerprint:DeliveryLog.append", "count"),
    Hook("core.fingerprint.execution_fingerprint",
         "repro.core.fingerprint:execution_fingerprint", "span"),
    Hook("core.lockstep.advance_cycle",
         "repro.core.lockstep:LockstepCoordinator.advance_cycle", "span"),
    Hook("core.lockstep.on_wire", "repro.core.lockstep:LockstepStack.on_wire", "span"),
)

#: Hooks for the grid workload: parent side only.  Workers are forked
#: from the traced parent, so per-delivery hooks would run -- and hoard
#: spans -- in every worker, where nobody collects them.
GRID_HOOKS: Tuple[Hook, ...] = (
    Hook("sweep.run", "repro.sweep:SweepRunner.run", "span"),
    Hook("supervise.journal_record", "repro.supervise.journal:CellJournal.record", "span"),
)


def resolve(target: str) -> Optional[Tuple[Any, str, Callable]]:
    """``(owner, attribute, function)`` for a hook target, or ``None``
    when the module, class or attribute is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        fn = vars(owner)[attr]
    except (ImportError, AttributeError, KeyError):
        return None
    return (owner, attr, fn) if callable(fn) else None


def _bindings(owner: Any, fn: Callable) -> List[Tuple[Any, str]]:
    """Every place ``fn`` is bound that a caller could reach it through:
    aliases on its class (``Namespace.set = __setitem__``), or, for a
    module-level function, each ``repro`` module that imported it by
    name (``from repro.routing.spf import dijkstra``)."""
    if isinstance(owner, type):
        scopes = [owner]
    else:
        scopes = [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
    return [
        (scope, attr)
        for scope in scopes
        for attr, value in list(vars(scope).items())
        if value is fn
    ]


class Tracer:
    """Span and count storage plus hook installation."""

    def __init__(self) -> None:
        self.names: List[str] = []
        #: (name index, parent span index or -1, start ns, end ns)
        self.spans: List[Optional[Tuple[int, int, int, int]]] = []
        self.counts: Dict[str, int] = {}
        self.harvest: Dict[str, List[tuple]] = {}
        #: hook name -> unwrapped function, for the probes
        self.originals: Dict[str, Callable] = {}
        self.status: Dict[str, str] = {}
        self._stack: List[int] = [-1]

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name_id, parent, t0, t1)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts[name] = 0
        kept = self.harvest.setdefault(name, [])
        nested = [False]  # estimate_bytes recurses: count top-level calls

        def wrapper(*args, **kwargs):
            if nested[0]:
                return fn(*args, **kwargs)
            nested[0] = True
            counts[name] += 1
            if len(kept) < HARVEST:
                kept.append(args)
            try:
                return fn(*args, **kwargs)
            finally:
                nested[0] = False

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, hooks: Iterable[Hook]):
        """Install ``hooks`` for the duration of the block."""
        undo: List[Tuple[Any, str, Callable]] = []
        try:
            for hook in hooks:
                found = resolve(hook.target)
                if found is None:
                    self.status[hook.name] = "absent"
                    continue
                owner, _attr, fn = found
                self.status[hook.name] = "ok"
                self.originals[hook.name] = fn
                make = self._span_wrapper if hook.kind == "span" else self._count_wrapper
                wrapper = make(hook.name, fn)
                for scope, attr in _bindings(owner, fn):
                    setattr(scope, attr, wrapper)
                    undo.append((scope, attr, fn))
            yield self
        finally:
            for scope, attr, fn in reversed(undo):
                setattr(scope, attr, fn)

    # -- aggregation ---------------------------------------------------
    def aggregate(self) -> Dict[str, Any]:
        """Per-name calls / inclusive ms / self ms, plus caller->callee
        edges (which layer's time sits inside which)."""
        spans = self.spans  # all closed: hooks are uninstalled by now
        child_ns = [0] * len(spans)
        n = len(self.names)
        calls, incl, self_ns = [0] * n, [0] * n, [0] * n
        edges: Dict[Tuple[int, int], List[int]] = {}
        for name_id, parent, t0, t1 in spans:
            calls[name_id] += 1
            incl[name_id] += t1 - t0
            if parent >= 0:
                child_ns[parent] += t1 - t0
                edge = edges.setdefault((spans[parent][0], name_id), [0, 0])
                edge[0] += 1
                edge[1] += t1 - t0
        for sid, (name_id, _parent, t0, t1) in enumerate(spans):
            self_ns[name_id] += (t1 - t0) - child_ns[sid]
        return {
            "spans": len(spans),
            "layers": {
                self.names[i]: {
                    "calls": calls[i],
                    "ms": incl[i] / 1e6,
                    "self_ms": self_ns[i] / 1e6,
                }
                for i in range(n)
            },
            "edges": [
                {"parent": self.names[p], "child": self.names[c],
                 "calls": k, "ms": ns / 1e6}
                for (p, c), (k, ns) in sorted(edges.items())
            ],
        }


@contextmanager
def timed_calls(cls: type, attr: str, samples_ms: List[float]):
    """Append the host ms of every ``cls.attr`` call to ``samples_ms``.

    The one wrapper untraced runs use: a debugger step is an end-to-end
    latency, and ``run_ls_replay`` drives the steps itself."""
    fn = vars(cls)[attr]
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            samples_ms.append((clock() - t0) / 1e6)

    setattr(cls, attr, wrapper)
    try:
        yield
    finally:
        setattr(cls, attr, fn)


# ----------------------------------------------------------------------
# probes: isolated timings of the calls too hot to wrap with a timer
# ----------------------------------------------------------------------

def _median_of(repeats: int, once: Callable[[], float]) -> float:
    return statistics.median(once() for _ in range(repeats))


def _per_op_us(total_s: float, ops: int) -> float:
    return total_s * 1e6 / max(ops, 1)


def probe_engine_us_per_event(events: int = 50_000) -> float:
    """Schedule + dispatch of one no-op event on an otherwise idle engine."""
    from repro.simnet.engine import Simulator

    def noop() -> None:
        pass

    def once() -> float:
        sim = Simulator()
        t0 = time.perf_counter()
        for i in range(events):
            sim.schedule(i % 97, noop)
        sim.run()
        return _per_op_us(time.perf_counter() - t0, events)

    return _median_of(5, once)


def probe_setitem_us(tracer: Tracer) -> Optional[float]:
    """``Namespace.__setitem__`` on harvested (key, value) writes, with a
    store version opened every 32 writes so the journal barrier is armed
    about as often as a delivery arms it."""
    writes = [args for args in tracer.harvest.get("core.statestore.setitem", ())
              if len(args) == 3]
    if not writes:
        return None
    from repro.core.statestore import StateStore

    setitem = tracer.originals["core.statestore.setitem"]

    def once() -> float:
        store = StateStore()
        spent = 0.0
        for start in range(0, len(writes), 32):
            store.snapshot()
            # keys sort within a namespace, so each write goes to the
            # probe store's namespace of the same name
            chunk = [(store.namespace(source.name), key, value)
                     for source, key, value in writes[start:start + 32]]
            t0 = time.perf_counter()
            for ns, key, value in chunk:
                setitem(ns, key, value)
            spent += time.perf_counter() - t0
        return _per_op_us(spent, len(writes))

    return _median_of(5, once)


def _probe_harvested(tracer: Tracer, hook: str, call: Callable[[Callable, tuple], Any]):
    """us per call of the unwrapped ``hook`` function over its harvest."""
    inputs = tracer.harvest.get(hook) or []
    if not inputs:
        return None
    fn = tracer.originals[hook]

    def once() -> float:
        t0 = time.perf_counter()
        for args in inputs:
            call(fn, args)
        return _per_op_us(time.perf_counter() - t0, len(inputs))

    return _median_of(5, once)


def probe_estimate_bytes_us(tracer: Tracer) -> Optional[float]:
    return _probe_harvested(
        tracer, "core.statestore.estimate_bytes", lambda fn, args: fn(*args)
    )


def probe_fingerprint_append_us(tracer: Tracer) -> Optional[float]:
    from repro.core.fingerprint import DeliveryLog

    log = DeliveryLog()
    # harvested args are (log, tag): re-aim every append at one fresh log
    return _probe_harvested(
        tracer, "core.fingerprint.append", lambda fn, args: fn(log, *args[1:])
    )


def probe_recording_json_ms(recording) -> float:
    """One ``to_json`` + ``from_json`` round trip of the run's recording."""
    def once() -> float:
        t0 = time.perf_counter()
        type(recording).from_json(recording.to_json())
        return (time.perf_counter() - t0) * 1e3

    return _median_of(5, once)


def probe_bundle_save_ms(result, directory: str) -> float:
    """Build the production run bundle and write it to ``directory``."""
    from repro.artifact import RunBundle

    def once() -> float:
        t0 = time.perf_counter()
        RunBundle.from_production(result, context={"probe": "perf"}).save(directory)
        return (time.perf_counter() - t0) * 1e3

    return _median_of(3, once)


def _noop() -> None:
    return None


def probe_pool_start_ms(workers: int) -> float:
    """Fork ``workers`` pool processes, run one no-op on each, shut down."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork")

    def once() -> float:
        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            for future in [pool.submit(_noop) for _ in range(workers)]:
                future.result()
        return (time.perf_counter() - t0) * 1e3

    return _median_of(3, once)


def probe_sweep_stream_us(cells: List[Any]) -> Dict[str, float]:
    """Result-record codec and shared-memory ring, on the grid's own
    :class:`CellResult` objects."""
    import multiprocessing

    from repro.sweep_stream import (
        ResultRing, adaptive_ring_capacity, decode_record, encode_result,
    )

    t0 = time.perf_counter()
    records = [encode_result(i, cell) for i, cell in enumerate(cells)]
    encode_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for raw in records:
        decode_record(raw)
    decode_s = time.perf_counter() - t0

    ring = ResultRing.create(
        capacity=adaptive_ring_capacity(len(records)),
        lock=multiprocessing.get_context("fork").Lock(),
    )
    push_s = pop_s = 0.0
    try:
        for start in range(0, len(records), ring.capacity):
            batch = records[start:start + ring.capacity]
            t0 = time.perf_counter()
            for raw in batch:
                ring.push(raw)
            t1 = time.perf_counter()
            popped = ring.pop_all()
            t2 = time.perf_counter()
            if len(popped) != len(batch):
                raise RuntimeError("result ring lost records in the probe")
            push_s += t1 - t0
            pop_s += t2 - t1
    finally:
        ring.destroy()
    n = len(records)
    return {
        "sweep_stream.encode_us": _per_op_us(encode_s, n),
        "sweep_stream.decode_us": _per_op_us(decode_s, n),
        "sweep_stream.ring_push_us": _per_op_us(push_s, n),
        "sweep_stream.ring_pop_us": _per_op_us(pop_s, n),
    }


def probe_load_scenario_file_ms(source: str, directory: str) -> float:
    """Validate + compile the chaos document.  ``load_scenario_file``
    caches by path, so each sample compiles a fresh copy."""
    import os
    import shutil

    from repro.chaos import load_scenario_file

    samples = []
    for i in range(5):
        copy = os.path.join(directory, f"probe-{i}-{os.path.basename(source)}")
        shutil.copyfile(source, copy)
        t0 = time.perf_counter()
        load_scenario_file(copy)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# the per-layer metric list
# ----------------------------------------------------------------------

def _table(text: str) -> Dict[str, Tuple[str, bool]]:
    """``name unit [exact]`` lines -> ``{name: (unit, exact)}``."""
    out = {}
    for line in text.split("\n"):
        if line.strip():
            name, unit, *flag = line.split()
            out[name] = (unit, flag == ["exact"])
    return out


#: Every per-layer metric: its unit, and whether it must repeat exactly
#: for a seed (counts and simulated-time results do; host times do not).
#: ``BENCHMARK.json``'s ``per_layer`` list is this table's names.
LAYER_METRICS = _table("""
simnet.engine.events                       count exact
simnet.engine.run_self_ms                  ms
simnet.engine.schedule_calls               count exact
simnet.engine.us_per_event                 us
simnet.network.transmit_calls              count exact
simnet.network.transmit_ms                 ms
simnet.node.deliver_calls                  count exact
core.shim.on_wire_calls                    count exact
core.shim.on_wire_self_ms                  ms
core.shim.send_calls                       count exact
core.shim.send_self_ms                     ms
core.shim.rollbacks                        count exact
core.shim.late_deliveries                  count exact
core.shim.useful_delivery_ratio            ratio exact
core.statestore.snapshot_calls             count exact
core.statestore.snapshot_ms                ms
core.statestore.restore_calls              count exact
core.statestore.restore_ms                 ms
core.statestore.setitem_calls              count exact
core.statestore.set_us                     us
core.statestore.estimate_bytes_calls       count exact
core.statestore.estimate_bytes_us          us
core.statestore.live_bytes_max             bytes exact
routing.ospf.on_message_calls              count exact
routing.ospf.on_message_self_ms            ms
routing.ospf.on_timer_calls                count exact
routing.ospf.on_timer_self_ms              ms
routing.ospf.routing_distances_calls       count exact
routing.ospf.routing_distances_ms          ms
routing.spf.dijkstra_calls                 count exact
routing.spf.dijkstra_ms                    ms
routing.spf.runs_per_delivery              ratio exact
core.fingerprint.append_calls              count exact
core.fingerprint.append_us                 us
core.fingerprint.execution_fingerprint_ms  ms
core.recorder.records                      count exact
core.recorder.recording_json_ms            ms
core.lockstep.cycles                       count exact
core.lockstep.advance_cycle_self_ms        ms
core.lockstep.on_wire_calls                count exact
core.lockstep.on_wire_self_ms              ms
core.lockstep.engine_events_per_delivery   ratio exact
core.lockstep.step_ms_p50                  ms
core.lockstep.step_ms_p95                  ms
harness.run_production_ms                  ms
harness.run_ls_replay_ms                   ms
sweep.cells_per_s                          1/s
sweep.run_cell_ms_p50                      ms
sweep.worker_busy_share                    ratio
sweep.pool_start_ms                        ms
sweep_stream.encode_us                     us
sweep_stream.decode_us                     us
sweep_stream.ring_push_us                  us
sweep_stream.ring_pop_us                   us
supervise.journal_record_ms                ms
supervise.retries                          count exact
chaos.load_scenario_file_ms                ms
artifact.bundle_save_ms                    ms
sim.rollbacks_per_delivery                 ratio exact
sim.recording_bytes                        bytes exact
sim.conv_ms_p50                            ms exact
sim.conv_ms_p90                            ms exact
sim.step_ms_p50                            ms exact
trace.overhead_x                           ratio
trace.unattributed_share                   ratio
""")


def layer_metrics(
    tracer: Tracer,
    aggregate: Dict[str, Any],
    top_span: str,
    deliveries: int,
    facts: Dict[str, float],
    probes: Dict[str, Optional[float]],
) -> Dict[str, float]:
    """Everything one traced repetition yields, keyed by metric name.

    Names outside :data:`LAYER_METRICS` are kept too (the trace file
    shows them); a layer that did not run on the workload has no entry.
    """
    metrics: Dict[str, float] = {}
    for name, row in aggregate["layers"].items():
        if row["calls"]:
            metrics[f"{name}_calls"] = row["calls"]
            metrics[f"{name}_ms"] = row["ms"]
            metrics[f"{name}_self_ms"] = row["self_ms"]
    for name, calls in tracer.counts.items():
        if calls:
            metrics[f"{name}_calls"] = calls
    metrics.update(facts)
    metrics.update({name: value for name, value in probes.items() if value is not None})
    daemon_calls = sum(
        metrics.get(f"routing.ospf.{entry}_calls", 0)
        for entry in ("on_message", "on_timer", "on_external")
    )
    if daemon_calls and "core.shim.on_wire_calls" in metrics:
        metrics["core.shim.useful_delivery_ratio"] = deliveries / daemon_calls
    if deliveries and "routing.spf.dijkstra_calls" in metrics:
        metrics["routing.spf.runs_per_delivery"] = (
            metrics["routing.spf.dijkstra_calls"] / deliveries
        )
    top = aggregate["layers"].get(top_span)
    if top and top["ms"]:
        metrics["trace.unattributed_share"] = top["self_ms"] / top["ms"]
    return metrics
