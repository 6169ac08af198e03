"""Tests for GVT tracking (Lemma 2 instrumentation), through the
test-side oracle :class:`_oracles.GvtTracker`."""

import pytest

from _fixtures import flap_schedule, graph_of, square_graph
from _oracles import GvtTracker

from repro.harness import build_ospf_network
from repro.simnet.engine import SECOND
from repro.topology import to_network


def run_with_tracker(jitter_us=500, horizon_us=14 * SECOND, graph=None,
                     interval_us=500_000):
    net, recorder, beacons, _ = build_ospf_network(
        graph or square_graph(), mode="defined", seed=3, jitter_us=jitter_us
    )
    tracker = GvtTracker(net)
    beacons.start()
    net.start()
    tracker.start(interval_us=interval_us)
    schedule = flap_schedule(("b", "c"))
    net.schedule_events(schedule)
    net.run(until_us=horizon_us)
    tracker.stop()
    beacons.stop()
    return net, tracker


class TestLemma2:
    def test_gvt_is_monotone(self):
        _net, tracker = run_with_tracker()
        assert len(tracker.samples) > 10
        assert tracker.is_monotone()

    def test_gvt_advances(self):
        _net, tracker = run_with_tracker()
        assert tracker.advanced()

    def test_lag_bounded_by_window(self):
        net, tracker = run_with_tracker()
        any_shim = net.nodes["a"].stack
        assert tracker.lag_us() <= any_shim.window_us() + 2 * net.time_unit_us

    def test_gvt_advances_under_heavy_jitter(self):
        """Lemma 2's content: even when rollbacks are frequent, the floor
        keeps moving (cascades settle)."""
        net, tracker = run_with_tracker(jitter_us=2_500)
        assert net.run_stats.total_rollbacks() > 0
        assert tracker.advanced()
        assert tracker.is_monotone()

    def test_live_entries_stay_bounded(self):
        _net, tracker = run_with_tracker()
        live = [s.live_entries for s in tracker.samples]
        # pruning keeps per-network live history from growing unboundedly
        assert max(live[len(live) // 2:]) <= max(live) * 1.5 + 50

    def test_pruned_maps_are_fossil_collected_below_the_floor(self):
        """Below GVT is final, so each shim keeps a pruned delivery only
        while an anti-message can still reach it: until its expiry (send
        + window + longest link).  Collection runs at every beacon, so no
        sample may find an entry more than one beacon interval past its
        expiry.  The 300 ms chord is never on a shortest path, so the
        window does not cover it and entries outlive their prune."""
        square = square_graph()
        square.edges = [
            (a, b, 300_000 if (a, b) == ("a", "d") else delay)
            for a, b, delay in square.edges
        ]
        net, tracker = run_with_tracker(graph=square, interval_us=100_000)
        assert tracker.is_monotone() and tracker.advanced()
        kept = [s for s in tracker.samples if s.pruned_entries]
        assert kept  # the bound is exercised, not vacuous
        for s in kept:
            assert s.at_us - s.oldest_expiry_us <= net.time_unit_us
        pruned = sum(node.stack.history.total_pruned for node in net.nodes.values())
        assert max(s.pruned_entries for s in kept) < pruned / 4


class TestTrackerMechanics:
    def test_sample_without_shims(self):
        net = to_network(graph_of([("a", "b", 1_000)]))
        tracker = GvtTracker(net)
        sample = tracker.sample()
        assert sample.floor_node is None
        assert sample.gvt_us == net.sim.now

    def test_bad_interval_rejected(self):
        tracker = GvtTracker(to_network(graph_of([("a", "b", 1_000)])))
        with pytest.raises(ValueError):
            tracker.start(interval_us=0)

    def test_lag_requires_samples(self):
        tracker = GvtTracker(to_network(graph_of([("a", "b", 1_000)])))
        with pytest.raises(ValueError):
            tracker.lag_us()
