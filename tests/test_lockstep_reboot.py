"""Replay of node failures: the RIP case-study path through the lockstep
coordinator (node_down via the recording's network-level events)."""

import pytest

from repro.harness import build_ls_coordinator, run_ls_replay, run_production
from repro.scenarios import (
    RIP_MAIN,
    quagga_rip_scenario,
    rip_daemon_factory,
    rip_topology,
)


@pytest.fixture(scope="module")
def rip_production():
    return quagga_rip_scenario(
        mode="defined", matching="buggy", config="blackhole", seed=1
    )


class TestNodeFailureReplay:
    def test_recording_contains_network_level_death(self, rip_production):
        events = rip_production.result.recording.events
        net_events = [e for e in events if e.node == "__net__"]
        assert any(e.kind == "node_down" for e in net_events)

    def test_dead_node_becomes_inactive_in_replay(self, rip_production):
        coordinator = build_ls_coordinator(
            rip_topology(), rip_production.result.recording, seed=9, jitter_us=300,
            daemon_factory=rip_daemon_factory("buggy", 8),
        )
        death_group = next(
            e.group
            for e in rip_production.result.recording.events
            if e.kind == "node_down"
        )
        while coordinator.current_group < death_group:
            coordinator.advance_cycle()
        assert not coordinator.stacks[RIP_MAIN].active
        coordinator.run_all()
        assert coordinator.finished

    def test_dead_node_log_frozen_after_death(self, rip_production):
        replay = run_ls_replay(
            rip_topology(),
            rip_production.result.recording,
            daemon_factory=rip_daemon_factory("buggy", 8),
        )
        # exact reproduction implies the dead node's log matches too
        assert replay.logs[RIP_MAIN] == rip_production.result.logs[RIP_MAIN]

    def test_drop_set_covers_sends_toward_the_dead_node(self, rip_production):
        drops = rip_production.result.recording.drops
        assert any(d[5] == RIP_MAIN for d in drops), (
            "announcements toward the dead router must be recorded as drops"
        )
