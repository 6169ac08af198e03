"""Unit tests for the Network: topology, transmission, events, RNG."""

import pytest

from _fixtures import graph_of

from repro.harness import run_ls_replay
from repro.scenarios import BUILTINS, COMPOSITIONS
from repro.simnet.events import NODE_UP, ExternalEvent
from repro.simnet.messages import Message
from repro.simnet.network import Network
from repro.simnet.node import Node, VanillaStack
from repro.sweep import get_scenario, run_scenario
from repro.topology import to_network


def tiny_net(seed=0, jitter=0, loss=0.0) -> Network:
    return to_network(
        graph_of([("a", "b", 1_000), ("b", "c", 2_000)]),
        seed=seed,
        jitter_us=jitter,
        loss=loss,
    )


class TestConstruction:
    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_node("a")
        with pytest.raises(ValueError):
            net.add_node("a")

    def test_duplicate_link_rejected(self):
        net = tiny_net()
        with pytest.raises(ValueError):
            net.add_link("b", "a")

    def test_link_to_unknown_node_rejected(self):
        net = Network()
        net.add_node("a")
        with pytest.raises(ValueError):
            net.add_link("a", "zz")

    def test_link_lookup_is_order_independent(self):
        net = tiny_net()
        assert net.link_between("a", "b") is net.link_between("b", "a")

    def test_node_ids_sorted(self):
        net = tiny_net()
        assert net.node_ids() == ["a", "b", "c"]


class TestNeighbors:
    def test_live_neighbors(self):
        net = tiny_net()
        assert net.live_neighbors("b") == ["a", "c"]

    def test_down_link_hides_neighbor(self):
        net = tiny_net()
        net.link_between("a", "b").up = False
        assert net.live_neighbors("b") == ["c"]
        assert net.all_neighbors("b") == ["a", "c"]

    def test_down_node_hides_neighbor(self):
        net = tiny_net()
        net.nodes["c"].set_up(False)
        assert net.live_neighbors("b") == ["a"]


class TestDelayMatrix:
    def test_shortest_path_delays(self):
        net = tiny_net()
        matrix = net.delay_matrix()
        assert matrix["a"]["c"] == 3_000
        assert matrix["a"]["a"] == 0

    def test_max_propagation(self):
        assert tiny_net().max_propagation_us() == 3_000

    def test_jitter_contributes_via_average(self):
        net = to_network(graph_of([("a", "b", 1_000)]), jitter_us=400)
        assert net.delay_matrix()["a"]["b"] == 1_200


class TestRngStreams:
    def test_same_name_same_stream(self):
        net = tiny_net(seed=5)
        assert net.rng_stream("x") is net.rng_stream("x")

    def test_streams_reproducible_across_instances(self):
        a = tiny_net(seed=5).rng_stream("x").random()
        b = tiny_net(seed=5).rng_stream("x").random()
        assert a == b

    def test_different_seeds_different_draws(self):
        a = tiny_net(seed=5).rng_stream("x").random()
        b = tiny_net(seed=6).rng_stream("x").random()
        assert a != b


class TestTransmission:
    def _attach(self, net):
        net.attach(lambda node: VanillaStack(node, timer_jitter_us=0))
        net.start()

    def test_delivery_after_link_delay(self):
        net = tiny_net()
        self._attach(net)
        net.transmit(Message(src="a", dst="b", protocol="p", payload=1))
        net.run()
        assert net.sim.now == 1_000
        assert net.nodes["b"].stack.delivery_log

    def test_uid_assignment_is_unique_and_increasing(self):
        net = tiny_net()
        self._attach(net)
        u1 = net.transmit(Message(src="a", dst="b", protocol="p", payload=1))
        u2 = net.transmit(Message(src="a", dst="b", protocol="p", payload=2))
        assert u2 > u1

    def test_down_link_drops(self):
        net = tiny_net()
        self._attach(net)
        net.link_between("a", "b").up = False
        net.transmit(Message(src="a", dst="b", protocol="p", payload=1))
        net.run()
        assert not net.nodes["b"].stack.delivery_log
        # send is still counted (the packet left the interface)
        assert net.run_stats.node("a").data_packets_sent == 1

    def test_down_node_drops(self):
        net = tiny_net()
        self._attach(net)
        net.nodes["b"].set_up(False)
        net.transmit(Message(src="a", dst="b", protocol="p", payload=1))
        net.run()
        assert not net.nodes["b"].stack.delivery_log

    def test_no_link_raises(self):
        net = tiny_net()
        self._attach(net)
        with pytest.raises(ValueError):
            net.transmit(Message(src="a", dst="c", protocol="p", payload=1))

    def test_extra_delay_shifts_delivery(self):
        net = tiny_net()
        self._attach(net)
        net.transmit(
            Message(src="a", dst="b", protocol="p", payload=1), extra_delay_us=500
        )
        net.run()
        assert net.sim.now == 1_500

    def test_loss_drops_packets(self):
        net = tiny_net(seed=3, loss=0.5)
        self._attach(net)
        for i in range(60):
            net.transmit(Message(src="a", dst="b", protocol="p", payload=i))
        net.run()
        delivered = len(net.nodes["b"].stack.delivery_log)
        assert 10 < delivered < 50

    def test_transmit_deterministic_ignores_links(self):
        net = tiny_net()
        self._attach(net)
        # no a-c link exists, but deterministic control paths may span it
        net.transmit_deterministic(
            Message(src="a", dst="c", protocol="x", payload=1), delay_us=7
        )
        net.run()
        assert net.sim.now == 7
        assert net.nodes["c"].stack.delivery_log

    def test_beacons_not_counted_as_control_packets(self):
        net = tiny_net()
        self._attach(net)
        net.transmit_deterministic(
            Message(src="a", dst="b", protocol="_beacon", payload=1), delay_us=1
        )
        net.run()
        stats = net.run_stats.node("b")
        assert stats.beacons_received == 1
        assert stats.control_packets_received == 0


class TestExternalEvents:
    def test_link_down_notifies_both_endpoints(self):
        net = tiny_net()
        net.attach(lambda node: VanillaStack(node, timer_jitter_us=0))
        net.start()
        net.apply_event(ExternalEvent(time_us=0, kind="link_down", target=("a", "b")))
        assert not net.link_between("a", "b").up
        assert net.nodes["a"].stack.delivery_log
        assert net.nodes["b"].stack.delivery_log
        assert not net.nodes["c"].stack.delivery_log

    def test_node_down_and_up(self):
        net = tiny_net()
        net.attach(lambda node: VanillaStack(node, timer_jitter_us=0))
        net.apply_event(ExternalEvent(time_us=0, kind="node_down", target="b"))
        assert not net.nodes["b"].up
        net.apply_event(ExternalEvent(time_us=0, kind="node_up", target="b"))
        assert net.nodes["b"].up

    def test_unknown_link_event_raises(self):
        net = tiny_net()
        with pytest.raises(ValueError):
            net.apply_event(
                ExternalEvent(time_us=0, kind="link_down", target=("a", "zz"))
            )

    def test_event_tap_sees_every_event(self):
        net = tiny_net()
        net.attach(lambda node: VanillaStack(node, timer_jitter_us=0))
        seen = []
        net.event_tap = seen.append
        event = ExternalEvent(time_us=0, kind="link_down", target=("a", "b"))
        net.apply_event(event)
        assert seen == [event]

    def test_schedule_events_applies_at_time(self):
        from repro.simnet.events import EventSchedule

        net = tiny_net()
        net.attach(lambda node: VanillaStack(node, timer_jitter_us=0))
        schedule = EventSchedule()
        schedule.add(ExternalEvent(time_us=500, kind="link_down", target=("a", "b")))
        net.schedule_events(schedule)
        net.run(until_us=499)
        assert net.link_between("a", "b").up
        net.run(until_us=501)
        assert not net.link_between("a", "b").up


class TestAtomicBoot:
    """``Network.start()`` boots every node, in node-id order, before any
    packet or event reaches a stack, and a later boot happens only
    inside that node's ``node_up`` event.  No stack therefore needs to
    hold arrivals that beat its own boot."""

    STACKS = ("vanilla", "logging", "defined", "ddos", "ls-replay")
    SCENARIOS = (*BUILTINS, *map(get_scenario, COMPOSITIONS))

    @staticmethod
    def trace_boots(monkeypatch):
        """Patch :class:`Node` and :class:`Network` to append ``("boot",
        node, now)``, ``("arrival", node, now)`` and ``("node_up", node,
        now)`` entries, in execution order, to the returned list."""
        trace = []
        start, deliver = Node.start, Node.deliver
        observe, apply_event = Node.observe_external, Network.apply_event

        def traced_start(node):
            trace.append(("boot", node.node_id, node.network.sim.now))
            start(node)

        def traced_deliver(node, msg):
            trace.append(("arrival", node.node_id, node.network.sim.now))
            deliver(node, msg)

        def traced_observe(node, event):
            trace.append(("arrival", node.node_id, node.network.sim.now))
            observe(node, event)

        def traced_apply_event(net, event):
            if event.kind == NODE_UP:
                trace.append(("node_up", event.target, net.sim.now))
            apply_event(net, event)

        monkeypatch.setattr(Node, "start", traced_start)
        monkeypatch.setattr(Node, "deliver", traced_deliver)
        monkeypatch.setattr(Node, "observe_external", traced_observe)
        monkeypatch.setattr(Network, "apply_event", traced_apply_event)
        return trace

    @pytest.mark.parametrize("stack", STACKS)
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_every_node_boots_before_any_arrival(self, monkeypatch, scenario, stack):
        if stack == "ls-replay":
            production = run_scenario(scenario, "defined", seed=1)
            trace = self.trace_boots(monkeypatch)
            graph = production.graph
            network = run_ls_replay(
                graph,
                production.recording,
                ordering=scenario.ordering,
                daemon_factory=scenario.daemon(graph) if scenario.daemon else None,
            ).network
        else:
            trace = self.trace_boots(monkeypatch)
            network = run_scenario(scenario, stack, seed=1).network
        nodes = sorted(network.nodes)
        assert trace[: len(nodes)] == [("boot", n, 0) for n in nodes]
        rest = trace[len(nodes):]
        assert any(entry[:2] == ("arrival", nodes[0]) for entry in rest)
        for i, (tag, node_id, now) in enumerate(rest):
            if tag == "boot":
                assert i > 0 and rest[i - 1] == ("node_up", node_id, now)
