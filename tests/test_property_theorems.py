"""Property-based mini-theorems: hypothesis generates the network and the
workload; the paper's guarantees must hold for every example.

These complement the fixed-topology tests with adversarial structure:
random connected topologies, random link delays, random flap schedules.
Example counts are kept modest because each example runs two production
simulations and a lockstep replay.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.diff import diff_logs
from repro.harness import run_ls_replay, run_production
from repro.simnet.engine import SECOND
from repro.simnet.events import EventSchedule, ExternalEvent
from repro.topology import TopologyGraph


@st.composite
def random_topology(draw):
    """A small connected graph with distinct link delays."""
    n = draw(st.integers(min_value=3, max_value=6))
    nodes = [f"r{i}" for i in range(n)]
    edges = []
    used = set()
    # spanning chain guarantees connectivity
    for i in range(1, n):
        attach = draw(st.integers(min_value=0, max_value=i - 1))
        delay = 1_500 + 700 * len(edges) + draw(st.integers(0, 400))
        edges.append((nodes[attach], nodes[i], delay))
        used.add((attach, i))
    # a couple of extra chords
    extra = draw(st.integers(min_value=0, max_value=2))
    for _ in range(extra):
        a = draw(st.integers(0, n - 2))
        b = draw(st.integers(a + 1, n - 1))
        if (a, b) not in used and a != b:
            used.add((a, b))
            delay = 1_500 + 700 * len(edges) + draw(st.integers(0, 400))
            edges.append((nodes[a], nodes[b], delay))
    return TopologyGraph(name="prop", nodes=nodes, edges=edges)


@st.composite
def random_workload(draw, graph):
    """Up to two link flaps at hypothesis-chosen (off-boundary) times."""
    schedule = EventSchedule()
    flappable = [
        (a, b) for a, b, _d in graph.edges
    ]
    n_flaps = draw(st.integers(min_value=0, max_value=2))
    t = 3 * SECOND
    for _ in range(n_flaps):
        link = flappable[draw(st.integers(0, len(flappable) - 1))]
        t += draw(st.integers(min_value=600_000, max_value=2_000_000))
        schedule.add(ExternalEvent(time_us=t, kind="link_down", target=link))
        t += draw(st.integers(min_value=600_000, max_value=2_000_000))
        schedule.add(ExternalEvent(time_us=t, kind="link_up", target=link))
    return schedule


common_settings = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestMiniTheorems:
    @common_settings
    @given(data=st.data())
    def test_property_rb_seed_invariance(self, data):
        graph = data.draw(random_topology())
        schedule = data.draw(random_workload(graph))
        runs = [
            run_production(
                graph, schedule, mode="defined", seed=seed,
                measure_convergence=False, tail_us=3 * SECOND,
            )
            for seed in (11, 22)
        ]
        assert runs[0].late_deliveries == 0
        divergence = diff_logs(runs[0].logs, runs[1].logs)
        assert divergence is None, divergence

    @common_settings
    @given(data=st.data())
    def test_property_theorem1_replay(self, data):
        graph = data.draw(random_topology())
        schedule = data.draw(random_workload(graph))
        prod = run_production(
            graph, schedule, mode="defined", seed=7,
            measure_convergence=False, tail_us=3 * SECOND,
        )
        replay = run_ls_replay(graph, prod.recording, seed=4040)
        divergence = diff_logs(prod.logs, replay.logs)
        assert divergence is None, divergence
