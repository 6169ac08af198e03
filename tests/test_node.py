"""Unit tests for nodes and the vanilla stack."""

from _fixtures import graph_of

from repro.core.checkpoint import baseline_processing_model
from repro.simnet.messages import Message
from repro.simnet.node import VanillaStack
from repro.topology import to_network


def vanilla_net(jitter=0, timer_jitter=0, proc_model=None):
    net = to_network(graph_of([("a", "b", 1_000)]), jitter_us=jitter)
    net.attach(
        lambda node: VanillaStack(
            node, timer_jitter_us=timer_jitter, proc_model=proc_model
        )
    )
    net.start()
    return net


class TestVanillaTimers:
    def test_timer_fires_after_units(self):
        net = vanilla_net()
        fired = []
        net.nodes["a"].daemon = type(
            "D", (), {
                "on_start": lambda self: None,
                "on_timer": lambda self, key: fired.append((key, net.sim.now)),
                "on_message": lambda self, msg: None,
                "on_external": lambda self, event: None,
            }
        )()
        net.nodes["a"].stack.set_timer(2, "t")
        net.run()
        assert fired == [("t", 2 * net.time_unit_us)]

    def test_rearm_replaces(self):
        net = vanilla_net()
        fired = []
        net.nodes["a"].daemon = type(
            "D", (), {
                "on_start": lambda self: None,
                "on_timer": lambda self, key: fired.append(net.sim.now),
                "on_message": lambda self, msg: None,
                "on_external": lambda self, event: None,
            }
        )()
        stack = net.nodes["a"].stack
        stack.set_timer(2, "t")
        stack.set_timer(4, "t")
        net.run()
        assert fired == [4 * net.time_unit_us]

    def test_cancel(self):
        net = vanilla_net()
        stack = net.nodes["a"].stack
        stack.set_timer(2, "t")
        stack.cancel_timer("t")
        net.run()
        assert "timer:t" not in stack.delivery_log

    def test_timer_jitter_changes_fire_time_across_seeds(self):
        times = []
        for seed in (1, 2, 3):
            net = to_network(graph_of([("a", "b", 1_000)]), seed=seed)
            net.attach(lambda node: VanillaStack(node, timer_jitter_us=50_000))
            net.start()
            net.nodes["a"].stack.set_timer(2, "t")
            net.run()
            times.append(net.sim.now)
        assert len(set(times)) > 1

    def test_dead_node_timers_do_not_fire(self):
        net = vanilla_net()
        stack = net.nodes["a"].stack
        stack.set_timer(1, "t")
        net.nodes["a"].set_up(False)
        net.run()
        assert "timer:t" not in stack.delivery_log


class TestVanillaProcessingModel:
    def test_proc_model_records_samples(self):
        net = vanilla_net(proc_model=baseline_processing_model)
        net.transmit(Message(src="a", dst="b", protocol="p", payload=1))
        net.run()
        assert net.nodes["b"].stats.processing_samples_us

    def test_no_model_no_samples(self):
        net = vanilla_net()
        net.transmit(Message(src="a", dst="b", protocol="p", payload=1))
        net.run()
        assert not net.nodes["b"].stats.processing_samples_us


class TestNodeLiveness:
    def test_down_node_drops_deliveries(self):
        net = vanilla_net()
        net.nodes["b"].set_up(False)
        net.transmit(Message(src="a", dst="b", protocol="p", payload=1))
        net.run()
        assert not net.nodes["b"].stack.delivery_log

    def test_control_traffic_invisible_to_vanilla(self):
        net = vanilla_net()
        net.transmit(Message(src="a", dst="b", protocol="_unsend", payload=()))
        net.run()
        assert not net.nodes["b"].stack.delivery_log
