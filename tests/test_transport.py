"""Unit tests for the reliable (TCP-like) transport."""

import pytest

from _fixtures import graph_of

from repro.simnet.messages import Message
from repro.simnet.node import Stack
from repro.simnet.transport import ReliableTransport
from repro.topology import to_network


class SinkStack(Stack):
    """A stack that feeds all wire traffic into a ReliableTransport."""

    def __init__(self, node, rto_us=20_000):
        super().__init__(node)
        self.received = []
        self.transport = ReliableTransport(node.node_id, node.network, self.received.append)
        self.transport.rto_us = rto_us

    def send(self, dst, protocol, payload, parent=None, size_bytes=64):
        self.transport.send_message(
            Message(self.node.node_id, dst, protocol, payload, size_bytes=size_bytes)
        )

    def set_timer(self, delay_units, key):  # pragma: no cover - unused
        pass

    def cancel_timer(self, key):  # pragma: no cover - unused
        pass

    def time_units(self):  # pragma: no cover - unused
        return 0

    def start(self):
        pass

    def on_wire(self, msg):
        self.transport.on_wire(msg)

    def on_external(self, event):  # pragma: no cover - unused
        pass


def make_net(loss=0.0, seed=0, jitter=500):
    net = to_network(graph_of([("a", "b", 1_000)]), seed=seed, jitter_us=jitter, loss=loss)
    net.attach(lambda node: SinkStack(node))
    return net


def payloads(stack):
    return [m.payload for m in stack.received]


class TestLossFree:
    def test_single_message_delivered_once(self):
        net = make_net()
        net.nodes["a"].stack.send("b", "p", "hello")
        net.run()
        assert payloads(net.nodes["b"].stack) == ["hello"]

    def test_fifo_order_preserved(self):
        net = make_net(jitter=900)  # jitter can reorder raw packets
        for i in range(20):
            net.nodes["a"].stack.send("b", "p", i)
        net.run()
        assert payloads(net.nodes["b"].stack) == list(range(20))

    def test_bidirectional_streams_are_independent(self):
        net = make_net()
        net.nodes["a"].stack.send("b", "p", "ab")
        net.nodes["b"].stack.send("a", "p", "ba")
        net.run()
        assert payloads(net.nodes["b"].stack) == ["ab"]
        assert payloads(net.nodes["a"].stack) == ["ba"]

    def test_idle_after_acks(self):
        net = make_net()
        transport = net.nodes["a"].stack.transport
        net.nodes["a"].stack.send("b", "p", 1)
        assert not transport.idle()
        net.run()
        assert transport.idle()
        assert transport.retransmissions == 0


class TestLossy:
    def test_all_messages_eventually_delivered_in_order(self):
        net = make_net(loss=0.4, seed=11)
        for i in range(30):
            net.nodes["a"].stack.send("b", "p", i)
        net.run()
        assert payloads(net.nodes["b"].stack) == list(range(30))
        assert net.nodes["a"].stack.transport.retransmissions > 0

    def test_no_duplicate_deliveries_despite_retransmits(self):
        net = make_net(loss=0.5, seed=3)
        for i in range(15):
            net.nodes["a"].stack.send("b", "p", i)
        net.run()
        got = payloads(net.nodes["b"].stack)
        assert got == sorted(set(got))

    def test_gives_up_when_peer_unreachable(self):
        net = make_net(loss=0.0, seed=1)
        net.link_between("a", "b").up = False
        net.nodes["a"].stack.send("b", "p", 1)
        with pytest.raises(RuntimeError, match="gave up"):
            net.run()


class TestDownPeer:
    def test_blackhole_toward_down_node(self):
        net = make_net()
        net.nodes["b"].set_up(False)
        net.nodes["a"].stack.send("b", "p", 1)
        net.run()
        assert net.nodes["a"].stack.transport.idle()
        assert payloads(net.nodes["b"].stack) == []


class TestMessagePreservation:
    def test_wrapped_message_keeps_uid_and_annotation(self):
        from repro.simnet.messages import Annotation

        net = make_net()
        ann = Annotation(origin="a", seq=1, delay_us=10, group=2)
        msg = Message(src="a", dst="b", protocol="p", payload="x", annotation=ann)
        uid = net.nodes["a"].stack.transport.send_message(msg)
        net.run()
        received = net.nodes["b"].stack.received[0]
        assert received.uid == uid
        assert received.annotation == ann
        assert received.protocol == "p"
