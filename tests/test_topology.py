"""Unit tests for topology generators and trace synthesis."""

import pytest

from repro.simnet.engine import SECOND
from repro.topology import (
    TopologyGraph,
    barabasi_albert,
    rocketfuel_topology,
    to_network,
    waxman,
)
from repro.topology.rocketfuel import POP_COUNTS
from repro.topology.traces import compressed_trace, synth_tier1_trace


class TestTopologyGraph:
    def test_connectivity_detection(self):
        connected = TopologyGraph("g", ["a", "b"], [("a", "b", 1)])
        assert connected.is_connected()
        split = TopologyGraph("g", ["a", "b", "c"], [("a", "b", 1)])
        assert not split.is_connected()

    def test_avg_degree(self):
        graph = TopologyGraph("g", ["a", "b", "c"], [("a", "b", 1), ("b", "c", 1)])
        assert graph.avg_degree() == pytest.approx(4 / 3)

    def test_to_network_wires_everything(self):
        graph = TopologyGraph("g", ["a", "b"], [("a", "b", 5_000)])
        net = to_network(graph, jitter_us=0)
        assert net.node_ids() == ["a", "b"]
        assert net.link_between("a", "b").model.avg_us == 5_000


class TestRocketfuel:
    @pytest.mark.parametrize("name,count", sorted(POP_COUNTS.items()))
    def test_published_pop_counts(self, name, count):
        graph = rocketfuel_topology(name)
        assert graph.node_count() == count
        assert graph.is_connected()

    def test_realistic_degree(self):
        graph = rocketfuel_topology("sprintlink")
        assert 2.0 < graph.avg_degree() < 5.0

    def test_deterministic_generation(self):
        a = rocketfuel_topology("ebone")
        b = rocketfuel_topology("ebone")
        assert a.edges == b.edges

    def test_distinct_incident_link_delays(self):
        """Near-tie delays on links *into the same node* would make
        DEFINED's ordering mispredict arrival order systematically; the
        generator's fiber-detour term must keep them spread out."""
        graph = rocketfuel_topology("sprintlink")
        incident = {}
        for a, b, d in graph.edges:
            incident.setdefault(a, []).append(d)
            incident.setdefault(b, []).append(d)
        close = total = 0
        for delays in incident.values():
            delays.sort()
            for x, y in zip(delays, delays[1:]):
                total += 1
                if y - x < 40:
                    close += 1
        assert close <= max(2, total * 0.12)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            rocketfuel_topology("fastly")


class TestBrite:
    @pytest.mark.parametrize("n", [10, 20, 40])
    def test_waxman_connected_at_all_sizes(self, n):
        graph = waxman(n)
        assert graph.node_count() == n
        assert graph.is_connected()

    def test_waxman_deterministic_per_seed(self):
        assert waxman(20, seed=4).edges == waxman(20, seed=4).edges
        assert waxman(20, seed=4).edges != waxman(20, seed=5).edges

    def test_waxman_alpha_controls_density(self):
        sparse = waxman(30, alpha=0.05, seed=1)
        dense = waxman(30, alpha=0.6, seed=1)
        assert dense.edge_count() > sparse.edge_count()

    def test_waxman_too_small_rejected(self):
        with pytest.raises(ValueError):
            waxman(1)

    def test_ba_edge_count(self):
        m = 2
        graph = barabasi_albert(25, m=m)
        expected = m * (m + 1) // 2 + (25 - m - 1) * m
        assert graph.edge_count() == expected
        assert graph.is_connected()

    def test_ba_heavy_tail(self):
        graph = barabasi_albert(60, m=2, seed=2)
        degrees = sorted(
            (len(peers) for peers in graph.adjacency().values()), reverse=True
        )
        assert degrees[0] >= 3 * degrees[len(degrees) // 2]

    def test_ba_too_small_rejected(self):
        with pytest.raises(ValueError):
            barabasi_albert(2, m=2)


class TestTier1Trace:
    def test_event_count_and_pairing(self):
        graph = rocketfuel_topology("ebone")
        trace = synth_tier1_trace(graph, n_events=100, seed=1)
        events = trace.sorted()
        assert 0 < len(events) <= 100
        assert len(events) % 2 == 0
        downs = sum(1 for e in events if e.kind == "link_down")
        ups = sum(1 for e in events if e.kind == "link_up")
        assert downs == ups

    def test_per_link_alternation(self):
        graph = rocketfuel_topology("ebone")
        trace = synth_tier1_trace(graph, n_events=120, seed=3)
        state = {}
        for event in trace.sorted():
            key = tuple(sorted(event.target))
            if event.kind == "link_down":
                assert state.get(key, "up") == "up"
                state[key] = "down"
            else:
                assert state.get(key) == "down"
                state[key] = "up"

    def test_min_gap_respected(self):
        graph = rocketfuel_topology("ebone")
        trace = synth_tier1_trace(graph, n_events=80, min_gap_us=250_000, seed=5)
        times = [e.time_us for e in trace.sorted()]
        assert all(b - a >= 250_000 for a, b in zip(times, times[1:]))

    def test_deterministic_per_seed(self):
        graph = rocketfuel_topology("ebone")
        a = synth_tier1_trace(graph, n_events=50, seed=9).sorted()
        b = synth_tier1_trace(graph, n_events=50, seed=9).sorted()
        assert a == b

    def test_never_isolates_a_node(self):
        graph = rocketfuel_topology("sprintlink")
        trace = synth_tier1_trace(graph, n_events=200, seed=2)
        degree = {}
        for a, b, _d in graph.edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        for event in trace.sorted():
            a, b = event.target
            assert degree[a] >= 2 and degree[b] >= 2


class TestCompressedTrace:
    def test_fixed_spacing(self):
        graph = rocketfuel_topology("ebone")
        trace = compressed_trace(graph, n_events=10, gap_us=3 * SECOND,
                                 start_us=4 * SECOND)
        times = [e.time_us for e in trace.sorted()]
        assert times[0] == 4 * SECOND
        assert all(b - a == 3 * SECOND for a, b in zip(times, times[1:]))

    def test_preserves_down_up_alternation(self):
        graph = rocketfuel_topology("ebone")
        trace = compressed_trace(graph, n_events=20, seed=7)
        state = {}
        for event in trace.sorted():
            key = tuple(sorted(event.target))
            if event.kind == "link_down":
                assert state.get(key, "up") == "up"
                state[key] = "down"
            else:
                state[key] = "up"


class TestTraceSynthesisFootguns:
    """Regressions for the silent-short-trace footgun (ROADMAP): small
    Waxman graphs are mostly trees, so few links qualify as flappable and
    late repair draws used to fall off the horizon -- ``repro production
    --topology waxman --size 12`` recorded next to nothing, silently."""

    def test_small_waxman_traces_fill_the_request(self):
        for size in (8, 12, 16):
            for seed in range(4):
                graph = waxman(size, seed=1 + seed)
                trace = compressed_trace(
                    graph, n_events=6, gap_us=8 * SECOND,
                    start_us=4_097_000, seed=seed,
                )
                assert len(trace) == 6, (size, seed, len(trace))

    def test_degraded_eligibility_warns_but_produces_events(self):
        from repro.topology.traces import TraceSynthesisWarning

        # a star: every link has a degree-1 endpoint, so the strict
        # flap-eligibility rule matches nothing
        star = TopologyGraph(
            name="star5",
            nodes=["hub", "l1", "l2", "l3", "l4"],
            edges=[("hub", leaf, 2_000) for leaf in ["l1", "l2", "l3", "l4"]],
        )
        with pytest.warns(TraceSynthesisWarning, match="degrading"):
            trace = synth_tier1_trace(star, n_events=4, seed=1)
        assert len(trace) == 4

    def test_impossible_request_warns_of_shortfall(self):
        from repro.topology.traces import TraceSynthesisWarning

        graph = waxman(8, seed=1)
        # a horizon so short that almost no down/up pair fits
        with pytest.warns(TraceSynthesisWarning, match="synthesized only"):
            trace = synth_tier1_trace(
                graph, n_events=100, duration_us=3 * SECOND,
                start_us=2 * SECOND, min_gap_us=400_000, seed=1,
            )
        assert len(trace) < 100

    def test_unfittable_min_gap_ladder_warns_of_horizon_overflow(self):
        from repro.topology.traces import TraceSynthesisWarning

        # 30 events at 400ms minimum spacing cannot fit inside 5s: the
        # respace pass must say so instead of silently running long
        graph = waxman(30, seed=1)
        with pytest.warns(TraceSynthesisWarning, match="overflows the requested horizon"):
            synth_tier1_trace(
                graph, n_events=30, duration_us=5 * SECOND,
                start_us=1 * SECOND, min_gap_us=400_000, seed=1,
            )

    def test_odd_request_tops_out_one_short_without_warning(self):
        import warnings

        from repro.topology.traces import TraceSynthesisWarning

        # events come in down/up pairs: an odd n_events (including the
        # default TIER1_EVENT_COUNT=651) yields n_events-1, which is not
        # a shortfall worth warning about
        graph = waxman(30, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TraceSynthesisWarning)
            trace = synth_tier1_trace(
                graph, n_events=7, duration_us=120 * SECOND, seed=1
            )
        assert len(trace) == 6

    def test_long_repairs_are_clamped_not_dropped(self):
        # a horizon much shorter than the 30s-mean repair draw: the old
        # code dropped most pairs here, the clamp keeps them -- and the
        # respace pass must not push the bunched repairs past the horizon
        graph = waxman(10, seed=2)
        duration = 60 * SECOND
        trace = synth_tier1_trace(
            graph, n_events=20, duration_us=duration, seed=3
        )
        assert len(trace) == 20
        downs = sum(1 for e in trace.sorted() if e.kind == "link_down")
        assert downs == len(trace) // 2
        assert all(e.time_us < duration for e in trace.sorted())
        times = [e.time_us for e in trace.sorted()]
        assert all(b - a >= 200_000 for a, b in zip(times, times[1:]))

    def test_per_link_alternation_still_holds_after_fix(self):
        graph = waxman(12, seed=4)
        trace = synth_tier1_trace(graph, n_events=30, duration_us=120 * SECOND, seed=5)
        state = {}
        for event in trace.sorted():
            key = tuple(sorted(event.target))
            if event.kind == "link_down":
                assert state.get(key, "up") == "up"
                state[key] = "down"
            else:
                assert state.get(key) == "down"
                state[key] = "up"
