"""Importable shared helpers for the test suite.

These used to live in ``tests/conftest.py``, but ``conftest`` is a
terrible import name: pytest imports every conftest it collects under
the *same* top-level module name, so with both ``tests/`` and
``benchmarks/`` present, ``from conftest import ...`` resolved to
whichever directory pytest touched first and broke collection.  Plain
helpers therefore live here (a uniquely named module next to the tests
that use it); ``tests/conftest.py`` keeps only pytest fixtures.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.simnet.engine import SECOND
from repro.simnet.events import EventSchedule, ExternalEvent
from repro.simnet.messages import Message
from repro.topology import TopologyGraph


class FakeStack:
    """A stack stub for daemon unit tests: records sends and timers.

    Implements the app-facing half of the Stack interface; the node-facing
    half is replaced by direct calls from tests.
    """

    def __init__(self, node_id: str = "n0", neighbors: Optional[List[str]] = None):
        self.node_id = node_id
        self._neighbors = neighbors or []
        self.sent: List[Tuple[str, str, Any, Optional[Message]]] = []
        self.timers: Dict[str, int] = {}
        self.cancelled: List[str] = []
        self.now_units = 0

    def send(self, dst, protocol, payload, parent=None, size_bytes=64):
        self.sent.append((dst, protocol, payload, parent))

    def set_timer(self, delay_units, key):
        self.timers[key] = self.now_units + max(1, delay_units)

    def cancel_timer(self, key):
        self.timers.pop(key, None)
        self.cancelled.append(key)

    def time_units(self):
        return self.now_units

    def neighbors(self):
        return list(self._neighbors)

    # --- test conveniences -------------------------------------------
    def sent_protocols(self) -> List[str]:
        return [p for _dst, p, _pl, _par in self.sent]

    def clear(self):
        self.sent.clear()
        self.cancelled.clear()


def square_graph() -> TopologyGraph:
    """Four nodes in a cycle with one chord -- the smallest graph with
    alternate paths, used all over the determinism tests."""
    return TopologyGraph(
        name="square",
        nodes=["a", "b", "c", "d"],
        edges=[
            ("a", "b", 2_000),
            ("b", "c", 3_000),
            ("c", "d", 2_500),
            ("a", "d", 4_000),
            ("b", "d", 3_500),
        ],
    )


def graph_of(edges: List[Tuple[str, str, int]], name: str = "test") -> TopologyGraph:
    """The graph of ``(a, b, delay_us)`` triples, its nodes in order of
    first appearance: ``to_network(graph_of(...))`` builds a test net."""
    nodes: List[str] = []
    for a, b, _delay_us in edges:
        nodes.extend(end for end in (a, b) if end not in nodes)
    return TopologyGraph(name=name, nodes=nodes, edges=list(edges))


def line_graph(n: int = 3, delay_us: int = 2_000) -> TopologyGraph:
    nodes = [f"n{i}" for i in range(n)]
    edges = [(nodes[i], nodes[i + 1], delay_us) for i in range(n - 1)]
    return TopologyGraph(name=f"line{n}", nodes=nodes, edges=edges)


def flap_schedule(
    link: Tuple[str, str],
    down_us: int = 4 * SECOND + 97_000,
    up_us: int = 12 * SECOND + 113_000,
) -> EventSchedule:
    """One link flap at deliberately off-beacon-boundary times."""
    schedule = EventSchedule()
    schedule.add(ExternalEvent(time_us=down_us, kind="link_down", target=link))
    schedule.add(ExternalEvent(time_us=up_us, kind="link_up", target=link))
    return schedule


def scenario_resolution_digest(names: List[str], seed: int = 1) -> Dict[str, Tuple]:
    """Resolve scenario names and digest their concrete environments.

    Runs in worker processes (any multiprocessing start method: this
    module is importable by name) to prove that dynamic ``name@N`` /
    ``a+b`` / ``~jNus`` resolution is a pure function of the builtin
    catalogue -- the digests must match the parent's exactly.
    """
    import hashlib

    from repro.sweep import get_scenario

    out: Dict[str, Tuple] = {}
    for name in names:
        scenario = get_scenario(name)
        graph = scenario.topology(seed)
        schedule = scenario.schedule(graph, seed)
        events = "\n".join(
            f"{e.time_us}|{e.kind}|{e.target!r}" for e in schedule.sorted()
        )
        topo = "\n".join(f"{a}|{b}|{d}" for a, b, d in sorted(graph.edges))
        out[name] = (
            scenario.name,
            graph.node_count(),
            hashlib.sha256(topo.encode()).hexdigest(),
            hashlib.sha256(events.encode()).hexdigest(),
        )
    return out


def resolved_names(names: List[str]) -> List[str]:
    """The name of the scenario each spec in ``names`` resolves to.

    Module-level so a spawned worker (fresh interpreter) can import and
    run it: resolution must not depend on state only the parent has.
    """
    from repro.sweep import get_scenario

    return [get_scenario(name).name for name in names]


def run_scenario_cell(
    name: str,
    mode: str,
    network_seed: int = 1,
    seed: int = 1,
    jitter_us: Optional[int] = None,
):
    """One production run of scenario ``name`` as a sweep cell runs it
    (:func:`repro.sweep.run_scenario`): workload ``seed``, timing
    ``network_seed``.  ``jitter_us`` overrides the scenario's delivery
    jitter, as a sweep cell's does."""
    from repro.sweep import get_scenario, run_scenario

    return run_scenario(
        get_scenario(name), mode, seed, network_seed=network_seed, jitter_us=jitter_us
    )


def spf_oracle(daemon) -> Tuple[Dict[str, int], Dict[str, Optional[str]]]:
    """From-scratch SPF over ``daemon``'s current LSDB -- what any read
    of its routing table must equal, however the LSDB got there."""
    from repro.routing.spf import dijkstra

    lsdb = daemon.lsdb.as_dict()
    adjacency = {
        router: {o: 1 for o in links if o in lsdb and router in lsdb[o][1]}
        for router, (_seq, links) in lsdb.items()
    }
    return dijkstra(adjacency, daemon.node_id)
