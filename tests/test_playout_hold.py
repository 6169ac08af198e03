"""The playout hold of the DEFINED-RB shim, on a 3-node line.

A message of the node's current group waits until ``group opening + d_i +``
:data:`~repro.core.shim.HOLD_SLACK_US`; a group's due timers wait until
``opening + HOLD_SLACK_US``.  What is past its instant, or of a past group,
is admitted at once.  A crash treats a held input as an arrival the daemon
has not yet run, and an unsend that reaches a held message annihilates it.
No beacon service runs: the tests open groups by hand, so every instant is
chosen here.
"""

from __future__ import annotations

from _fixtures import line_graph

from repro.core.shim import HOLD_SLACK_US, DefinedShim
from repro.routing.base import Daemon
from repro.simnet.events import ExternalEvent
from repro.simnet.messages import Annotation, Message, Unsend
from repro.topology import to_network

#: When the tests open group 1 at ``n1``.
OPEN_US = 100_000


class Journal(Daemon):
    """Keeps every invocation, with its instant, outside the store: a
    rollback or a reboot does not erase that it ran."""

    def __init__(self, node_id, stack):
        super().__init__(node_id, stack)
        self.calls = []

    def on_start(self):
        pass

    def on_message(self, msg):
        self.calls.append((self.stack.sim.now, msg.payload))

    def on_timer(self, key):
        self.calls.append((self.stack.sim.now, key))


def middle():
    net = to_network(line_graph(3), jitter_us=0)
    net.attach(DefinedShim, Journal)
    net.start()
    return net, net.nodes["n1"]


def arrive(net, node, payload, group, delay_us):
    """``payload`` from ``n0`` lands at ``node`` now, tagged ``group`` and
    ``d_i = delay_us``."""
    msg = Message(
        src="n0", dst=node.node_id, protocol="ping", payload=payload,
        uid=net.next_uid(),
        annotation=Annotation(
            origin="n0", seq=delay_us, delay_us=delay_us, group=group,
            chain=0, sub=0, sender="n0",
        ),
    )
    node.deliver(msg)
    return msg


def test_a_past_group_message_and_a_late_arrival_are_admitted_at_once():
    net, n1 = middle()
    net.run(until_us=OPEN_US)
    n1.stack._on_beacon(1)
    now = OPEN_US + HOLD_SLACK_US + 1_000
    net.run(until_us=now)
    arrive(net, n1, "past", group=0, delay_us=50_000)
    arrive(net, n1, "late", group=1, delay_us=500)
    arrive(net, n1, "early", group=1, delay_us=10_000)
    assert n1.daemon.calls == [(now, "past"), (now, "late")]
    net.run()
    release_us = OPEN_US + 10_000 + HOLD_SLACK_US
    assert n1.daemon.calls[2:] == [(release_us, "early")]
    assert n1.stats.rollbacks == 0


def test_a_groups_due_timers_fire_at_its_opening_plus_the_slack():
    net, n1 = middle()
    n1.stack.set_timer(1, "t")  # due in group 1
    net.run(until_us=OPEN_US)
    n1.stack._on_beacon(1)
    assert n1.daemon.calls == []
    net.run()
    assert n1.daemon.calls == [(OPEN_US + HOLD_SLACK_US, "t")]
    assert n1.stack.delivery_log == ["t|t|1"]


def test_an_unsend_that_reaches_a_held_message_annihilates_it():
    net, n1 = middle()
    msg = arrive(net, n1, "held", group=0, delay_us=4_000)
    net.run(until_us=2_000)
    n1.deliver(Message(
        src="n0", dst="n1", protocol="_unsend", payload=Unsend(uids=(msg.uid,)),
    ))
    net.run()
    assert n1.daemon.calls == []
    assert n1.stats.annihilated == 1 and n1.stats.rollbacks == 0
    assert not n1.stack._annihilate_pending


def test_an_input_held_at_a_crash_is_never_delivered():
    net, n1 = middle()
    arrive(net, n1, "held", group=0, delay_us=4_000)
    net.run(until_us=2_000)
    net.apply_event(ExternalEvent(time_us=2_000, kind="node_down", target="n1"))
    net.run()
    assert n1.daemon.calls == []


def test_a_due_timer_held_at_a_crash_never_fires():
    net, n1 = middle()
    n1.stack.set_timer(1, "t")
    net.run(until_us=OPEN_US)
    n1.stack._on_beacon(1)
    net.apply_event(ExternalEvent(time_us=OPEN_US, kind="node_down", target="n1"))
    net.run()
    assert n1.daemon.calls == []


def test_an_input_held_across_a_reboot_is_never_delivered():
    net, n1 = middle()
    arrive(net, n1, "held", group=0, delay_us=4_000)
    net.run(until_us=2_000)
    net.apply_event(ExternalEvent(time_us=2_000, kind="node_down", target="n1"))
    net.run(until_us=3_000)
    net.apply_event(ExternalEvent(time_us=3_000, kind="node_up", target="n1"))
    net.run()
    assert n1.up and n1.daemon.calls == []
    assert not any("held" in tag for tag in n1.stack.delivery_log)
