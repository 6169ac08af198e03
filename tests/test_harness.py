"""Tests for the experiment harness itself."""

import pytest

from _fixtures import flap_schedule, square_graph

from repro.core.checkpoint import baseline_processing_model
from repro.harness import (
    build_ospf_network,
    burst_schedule,
    measure_burst_convergence,
    run_production,
)
from repro.simnet.engine import SECOND
from repro.simnet.events import EventSchedule, ExternalEvent


class TestBuildModes:
    @pytest.mark.parametrize("mode", ["vanilla", "defined", "ddos", "logging"])
    def test_all_modes_build_and_boot(self, square, mode):
        net, recorder, beacons, comp_log = build_ospf_network(square, mode=mode)
        net.start()
        assert len(net.nodes) == 4
        if mode == "defined":
            assert recorder is not None and beacons is not None
        if mode == "logging":
            assert comp_log is not None

    @pytest.mark.parametrize("mode", ["vanilla", "logging"])
    def test_baseline_stacks_are_built_with_the_processing_model(self, square, mode):
        net, _, _, _ = build_ospf_network(square, mode=mode)
        for node in net.nodes.values():
            assert node.stack.proc_model is baseline_processing_model

    def test_unknown_mode_rejected(self, square):
        with pytest.raises(ValueError):
            build_ospf_network(square, mode="quantum")


class TestRunProduction:
    def test_convergence_measured_per_event(self, square, square_flap):
        result = run_production(square, square_flap, mode="vanilla", seed=0)
        assert len(result.convergence_times_us) == 2
        assert all(t > 0 for t in result.convergence_times_us)

    def test_packet_deltas_one_per_node_per_event(self, square, square_flap):
        result = run_production(square, square_flap, mode="vanilla", seed=0)
        assert len(result.packets_per_node_per_event) == 2 * 4

    def test_same_timestamp_events_allowed(self, square):
        schedule = EventSchedule()
        schedule.add(ExternalEvent(time_us=5_000_000, kind="link_down", target=("b", "c")))
        schedule.add(ExternalEvent(time_us=5_000_000, kind="link_down", target=("a", "b")))
        result = run_production(
            square, schedule, mode="vanilla", measure_convergence=False
        )
        assert result is not None

    def test_measure_convergence_false_skips_polling(self, square, square_flap):
        result = run_production(
            square, square_flap, mode="vanilla", measure_convergence=False
        )
        assert result.convergence_times_us == []

    def test_wall_time_recorded(self, square, square_flap):
        result = run_production(square, square_flap, mode="vanilla")
        assert result.wall_seconds > 0


class TestBurstSchedules:
    def test_burst_rate_spacing(self, square):
        schedule = burst_schedule(square, events_per_second=5, n_events=8)
        times = [e.time_us for e in schedule.sorted()]
        gaps = {b - a for a, b in zip(times, times[1:])}
        assert gaps == {SECOND // 5}

    def test_burst_repairs_everything_at_the_end(self, square):
        schedule = burst_schedule(square, events_per_second=4, n_events=9)
        down = set()
        for event in schedule.sorted():
            key = tuple(sorted(event.target))
            if event.kind == "link_down":
                down.add(key)
            else:
                down.discard(key)
        assert not down

    def test_burst_convergence_metric(self, square):
        t = measure_burst_convergence(
            square, events_per_second=4, n_events=6, mode="vanilla", seed=1
        )
        assert 0 < t < 30 * SECOND
