"""Regression tests for FIFO link semantics.

Physical links never reorder packets; the simulator's per-packet jitter
must therefore apply between *different* links, not within one direction
of one link.  Without this, bursts (OSPF database exchanges, flood waves)
get shuffled in ways no real network produces -- which manifested as deep
rollback cascades under DEFINED-RB.
"""

from _fixtures import graph_of

from repro.simnet.messages import Message
from repro.simnet.node import VanillaStack
from repro.topology import to_network


def burst_net(seed=0, jitter=5_000):
    net = to_network(graph_of([("a", "b", 1_000)]), seed=seed, jitter_us=jitter)
    net.attach(lambda node: VanillaStack(node, timer_jitter_us=0))
    net.start()
    return net


class TestFifoOrdering:
    def test_burst_arrives_in_send_order(self):
        for seed in range(6):
            net = burst_net(seed=seed)
            for i in range(40):
                net.transmit(Message(src="a", dst="b", protocol="p", payload=i))
            net.run()
            payloads = [
                int(tag.rsplit(":", 1)[1])
                for tag in net.nodes["b"].stack.delivery_log
            ]
            assert payloads == list(range(40))

    def test_opposite_directions_are_independent(self):
        net = burst_net()
        net.transmit(Message(src="a", dst="b", protocol="p", payload="ab"))
        net.transmit(Message(src="b", dst="a", protocol="p", payload="ba"))
        net.run()
        assert net.nodes["a"].stack.delivery_log
        assert net.nodes["b"].stack.delivery_log

    def test_jitter_still_varies_across_packets(self):
        """FIFO must not collapse delays to a constant: spaced-out sends
        still get per-packet jitter."""
        arrivals = []
        net = burst_net(seed=3)
        original = net.nodes["b"].deliver

        def spy(msg):
            arrivals.append(net.sim.now)
            original(msg)

        net.nodes["b"].deliver = spy
        for i in range(10):
            net.run(until_us=net.sim.now + 50_000)
            net.transmit(Message(src="a", dst="b", protocol="p", payload=i))
        net.run()
        gaps = {arrivals[i] - i * 50_000 for i in range(10)}
        assert len(gaps) > 3  # delays differ packet to packet

    def test_extra_delay_respects_fifo(self):
        net = burst_net(jitter=0)
        net.transmit(
            Message(src="a", dst="b", protocol="p", payload="slow"),
            extra_delay_us=10_000,
        )
        net.transmit(Message(src="a", dst="b", protocol="p", payload="fast"))
        net.run()
        payloads = [t.rsplit(":", 1)[1] for t in net.nodes["b"].stack.delivery_log]
        assert payloads == ["'slow'", "'fast'"]
