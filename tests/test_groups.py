"""Unit tests for beacons, group numbering and leader failover."""

import pytest

from _fixtures import graph_of

from repro.core.groups import BeaconService
from repro.core.recorder import Recorder
from repro.simnet.node import Node, VanillaStack
from repro.topology import to_network


def beacon_net():
    net = to_network(
        graph_of([("a", "b", 1_000), ("b", "c", 2_000)]), jitter_us=0, time_unit_us=250_000
    )
    net.attach(lambda node: VanillaStack(node, timer_jitter_us=0))
    return net


class TestBeaconing:
    def test_groups_strictly_increase(self):
        net = beacon_net()
        service = BeaconService(net)
        service.start()
        net.run(until_us=1_000_000)
        assert service.group == 4

    def test_every_node_receives_every_beacon(self):
        net = beacon_net()
        service = BeaconService(net)
        service.start()
        net.run(until_us=1_100_000)  # 4 ticks + propagation of the last one
        for node_id in net.node_ids():
            assert net.run_stats.node(node_id).beacons_received == 4

    def test_uniform_arrival_instant(self):
        """All nodes observe each beacon at the same simulated time."""
        net = beacon_net()
        arrivals = {}
        for node_id, node in net.nodes.items():
            original = node.deliver

            def spy(msg, _nid=node_id, _orig=original):
                if msg.protocol == "_beacon":
                    arrivals.setdefault(msg.payload, set()).add(net.sim.now)
                _orig(msg)

            node.deliver = spy
        BeaconService(net).start() or net.run(until_us=600_000)
        assert arrivals, "no beacons observed"
        for group, times in arrivals.items():
            assert len(times) == 1

    def test_stop_halts_beaconing(self):
        net = beacon_net()
        service = BeaconService(net)
        service.start()
        net.run(until_us=300_000)
        service.stop()
        net.run(until_us=2_000_000)
        assert service.group == 1

    def test_interval_override(self):
        net = to_network(
            graph_of([("a", "b", 1_000), ("b", "c", 2_000)]), jitter_us=0, time_unit_us=100_000
        )
        net.attach(lambda node: VanillaStack(node, timer_jitter_us=0))
        service = BeaconService(net)
        service.start()
        net.run(until_us=1_000_000)
        assert service.group == 10

    @pytest.mark.parametrize("time_unit_us", [50_000, 100_000, 250_000, 1_000_000])
    def test_beacon_period_is_the_time_unit(self, time_unit_us):
        """One beacon per virtual-time unit (Section 3), whatever the unit."""
        net = to_network(
            graph_of([("a", "b", 1_000), ("b", "c", 2_000)]), jitter_us=0,
            time_unit_us=time_unit_us,
        )
        net.attach(lambda node: VanillaStack(node, timer_jitter_us=0))
        service = BeaconService(net)
        assert service.interval_us == time_unit_us
        service.start()
        net.run(until_us=6 * time_unit_us)
        assert service.group == 6

    def test_recorder_horizon_tracks_groups(self):
        net = beacon_net()
        recorder = Recorder()
        service = BeaconService(net, recorder=recorder)
        service.start()
        net.run(until_us=750_000)
        assert recorder.recording().horizon_group == 3


class TestBeaconInstants:
    """A tick's beacons travel as one engine event per arrival instant;
    what every node observes must be what one event per beacon gave."""

    INTERVAL = 250_000
    DEPTH = 4_500  # a -> d over the line's average delays
    SKEWS = {"b": 5_000, "c": 5_000, "d": -2_000}  # e is partitioned

    def skewed_line(self, monkeypatch):
        net = to_network(
            graph_of([("a", "b", 1_000), ("b", "c", 2_000), ("c", "d", 1_500)]),
            jitter_us=0,
            time_unit_us=self.INTERVAL,
        )
        net.add_node("e")  # no links: unreachable from the leader
        net.clock_skew_us.update(self.SKEWS)
        net.attach(lambda node: VanillaStack(node, timer_jitter_us=0))
        arrivals = []
        deliver = Node.deliver

        def spy(node, msg):
            if msg.protocol == "_beacon":
                arrivals.append((net.sim.now, node.node_id, msg.payload, msg.uid))
            deliver(node, msg)

        monkeypatch.setattr(Node, "deliver", spy)
        return net, arrivals

    def expected(self, group):
        """One event per beacon, as the per-node formula puts them:
        ``depth + skew`` after the tick, node-id order within an instant."""
        tick = group * self.INTERVAL
        return sorted(
            (tick + max(0, self.DEPTH + self.SKEWS.get(node_id, 0)), node_id)
            for node_id in "abcd"
        )

    def test_arrivals_match_one_event_per_beacon(self, monkeypatch):
        net, arrivals = self.skewed_line(monkeypatch)
        service = BeaconService(net)
        service.start()
        instants = len({self.DEPTH + self.SKEWS.get(n, 0) for n in "abcd"})
        assert instants == 3
        for group in range(1, 5):
            tick = group * self.INTERVAL
            net.run(until_us=tick - 1)
            before = net.sim.events_executed
            net.run(until_us=tick + 20_000)
            assert net.sim.events_executed - before == 1 + instants
            got = [(t, n) for t, n, g, _uid in arrivals if g == group]
            assert got == self.expected(group)
            uids = [uid for _t, n, _g, uid in sorted(
                (a for a in arrivals if a[2] == group), key=lambda a: a[1]
            )]
            assert uids == list(range(uids[0], uids[0] + 4))
        stats = net.run_stats
        assert service.beacons_sent == 16
        assert stats.node("a").bytes_sent == 16 * 16
        assert [stats.node(n).beacons_received for n in "abcde"] == [4, 4, 4, 4, 0]

    def test_node_down_before_its_beacon_lands_receives_nothing(self, monkeypatch):
        net, _arrivals = self.skewed_line(monkeypatch)
        BeaconService(net).start()
        net.run(until_us=self.INTERVAL + 1)  # the tick fired; b's beacon is out
        net.nodes["b"].set_up(False)
        net.run(until_us=self.INTERVAL + 20_000)
        assert net.run_stats.node("b").beacons_received == 0
        assert net.run_stats.node("c").beacons_received == 1  # same instant


class TestLeaderElection:
    def test_leader_is_smallest_live_node(self):
        net = beacon_net()
        service = BeaconService(net)
        assert service.current_leader() == "a"
        net.nodes["a"].set_up(False)
        assert service.current_leader() == "b"

    def test_beaconing_survives_leader_failure(self):
        net = beacon_net()
        service = BeaconService(net)
        service.start()
        net.run(until_us=500_000)
        net.nodes["a"].set_up(False)
        net.run(until_us=1_500_000)
        assert service.group == 6  # counter kept increasing monotonically
        # group 6's beacon is still propagating at the cutoff
        assert net.run_stats.node("b").beacons_received == 5

    def test_all_nodes_down_pauses_groups(self):
        net = beacon_net()
        service = BeaconService(net)
        service.start()
        for node in net.nodes.values():
            node.set_up(False)
        net.run(until_us=1_000_000)
        assert service.group == 0
