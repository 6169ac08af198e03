"""Behavioural tests for the DEFINED-RB shim on small hand-built networks."""

import pytest

from _fixtures import graph_of

from repro.core.groups import BeaconService
from repro.core.recorder import Recorder
from repro.core.shim import HOLD_SLACK_US, DefinedShim
from repro.core.statestore import StateStore
from repro.routing.base import Daemon
from repro.simnet.engine import SECOND
from repro.simnet.events import ExternalEvent
from repro.simnet.messages import Message
from repro.topology import to_network


#: Link jitter wide enough for an arrival to come after its release
#: instant (estimate + slack) and so reach a daemon out of key order.
STRAGGLER_JITTER_US = 4 * HOLD_SLACK_US


class EchoDaemon(Daemon):
    """Forwards every 'ping' to the configured next hop as 'pong'; keeps a
    deterministic journal of everything it sees, in its store."""

    def __init__(self, node_id, stack, forward_to=None):
        super().__init__(node_id, stack)
        self.forward_to = forward_to
        self._journal = self.store.namespace("journal")  # position -> event

    @property
    def journal(self):
        return self._journal.values()

    def _log(self, event):
        self._journal[len(self._journal)] = event

    def on_start(self):
        self._journal.clear()

    def on_message(self, msg):
        self._log(("msg", msg.protocol, msg.payload))
        if msg.protocol == "ping" and self.forward_to:
            self.send(self.forward_to, "pong", msg.payload, parent=msg)

    def on_timer(self, key):
        self._log(("timer", key, self.stack.time_units()))

    def on_external(self, event):
        self._log(("ext", event.kind, event.target))


def defined_net(topology=(("a", "b", 2_000), ("b", "c", 3_000)), seed=0,
                jitter=0, recorder=None, **shim_kw):
    net = to_network(graph_of(list(topology)), seed=seed, jitter_us=jitter)
    net.attach(
        lambda node: DefinedShim(node, recorder=recorder, **shim_kw),
        lambda node_id, stack: EchoDaemon(
            node_id, stack, forward_to=None
        ),
    )
    return net


class TestAnnotations:
    def test_origination_fields(self):
        net = defined_net()
        net.start()
        shim = net.nodes["a"].stack
        sent = []
        original = net.transmit
        net.transmit = lambda msg, extra_delay_us=0: (sent.append(msg), original(msg))[1]
        shim.send("b", "ping", "x")
        ann = sent[0].annotation
        assert ann.origin == "a"
        assert ann.seq == 1
        assert ann.group == 0
        assert ann.delay_us == 2_000 + shim.hop_cost_us
        assert ann.chain == 0

    def test_origin_seq_increments(self):
        net = defined_net()
        net.start()
        shim = net.nodes["a"].stack
        seen = []
        original = net.transmit
        net.transmit = lambda msg, extra_delay_us=0: (seen.append(msg.annotation.seq), original(msg))[1]
        shim.send("b", "ping", "x")
        shim.send("b", "ping", "y")
        assert seen == [1, 2]

    def test_child_annotation_inherits_origin_and_accumulates_delay(self):
        net = to_network(graph_of([("a", "b", 2_000), ("b", "c", 3_000)]), jitter_us=0)
        net.attach(
            lambda node: DefinedShim(node),
            lambda node_id, stack: EchoDaemon(
                node_id, stack, forward_to="c" if node_id == "b" else None
            ),
        )
        net.start()
        net.nodes["a"].stack.send("b", "ping", "x")
        captured = []
        original_deliver = net.nodes["c"].deliver
        net.nodes["c"].deliver = lambda msg: (captured.append(msg), original_deliver(msg))[1]
        net.run()
        pongs = [m for m in captured if m.protocol == "pong"]
        assert len(pongs) == 1
        ann = pongs[0].annotation
        hop = net.nodes["a"].stack.hop_cost_us
        assert ann.origin == "a" and ann.seq == 1
        assert ann.delay_us == (2_000 + hop) + (3_000 + hop)
        assert ann.chain == 1

    def test_send_to_non_neighbor_rejected(self):
        net = defined_net()
        net.start()
        with pytest.raises(ValueError):
            net.nodes["a"].stack.send("c", "ping", "x")


class TestDeliveryAndHistory:
    def test_in_order_deliveries_append_to_history(self):
        net = defined_net()
        net.start()
        net.nodes["a"].stack.send("b", "ping", 1)
        net.run()
        net.nodes["a"].stack.send("b", "ping", 2)
        net.run()
        history = net.nodes["b"].stack.history
        assert len(history) == 2
        assert list(history.keys()) == sorted(history.keys())

    def test_checkpoint_taken_per_delivery(self):
        net = defined_net()
        net.start()
        net.nodes["a"].stack.send("b", "ping", 1)
        net.run()
        b = net.nodes["b"]
        entry = b.stack.history[0]
        assert entry.checkpoint is not None
        assert b.daemon.journal == [("msg", "ping", 1)]
        # the checkpoint is the store version from just before the delivery
        b.daemon.store.restore(entry.checkpoint.version)
        assert b.daemon.journal == []

    def test_delivery_log_matches_daemon_journal_length(self):
        net = defined_net()
        net.start()
        for i in range(3):
            net.nodes["a"].stack.send("b", "ping", i)
        net.run()
        stack = net.nodes["b"].stack
        assert len(stack.delivery_log) == 3
        assert len(net.nodes["b"].daemon.journal) == 3


class TestRollback:
    def _storm(self, seed):
        """Two senders race across different links into b: links are FIFO,
        so misorders (vs the d-estimate order) come from cross-link jitter.
        a's messages (smaller d) must all sort before c's.  The playout
        hold admits an arrival no earlier than its estimate (base + half
        the jitter) plus the slack, so only a jitter above twice the slack
        lets a straggler arrive after a later-sorting message's release."""
        net = defined_net(
            topology=(("a", "b", 2_000), ("b", "c", 2_500)),
            seed=seed,
            jitter=STRAGGLER_JITTER_US,
        )
        net.start()
        for i in range(6):
            net.nodes["a"].stack.send("b", "ping", ("a", i))
            net.nodes["c"].stack.send("b", "ping", ("c", i))
        net.run()
        return net

    def test_misordered_arrivals_end_sorted(self):
        found_rollback = False
        for seed in range(8):
            net = self._storm(seed)
            b = net.nodes["b"]
            payloads = [pl for _k, _p, pl in b.daemon.journal]
            expected = [("a", i) for i in range(6)] + [("c", i) for i in range(6)]
            assert payloads == expected  # final order = ordering-function order
            if b.stats.rollbacks:
                found_rollback = True
        assert found_rollback, "cross-link jitter never produced a misorder?!"

    def test_rollback_restores_daemon_state_consistently(self):
        for seed in range(8):
            net = self._storm(seed)
            journal = net.nodes["b"].daemon.journal
            assert len(journal) == 12  # no duplicates despite replays

    def test_rollback_stats_recorded(self):
        nets = [self._storm(seed) for seed in range(8)]
        rollbacks = sum(n.nodes["b"].stats.rollbacks for n in nets)
        samples = sum(len(n.nodes["b"].stats.rollback_samples_us) for n in nets)
        assert rollbacks == samples
        assert rollbacks > 0


class TestUnsendCascade:
    def test_rollback_unsends_downstream(self):
        # a and c race pings into b across different links; b forwards
        # pongs to d.  A misorder at b rolls it back, which must unsend
        # the already-forwarded pongs at d.
        for seed in range(10):
            net = to_network(
                graph_of([("a", "b", 2_000), ("b", "c", 2_500), ("b", "d", 3_000)]),
                seed=seed,
                jitter_us=STRAGGLER_JITTER_US,
            )
            net.attach(
                lambda node: DefinedShim(node),
                lambda node_id, stack: EchoDaemon(
                    node_id, stack, forward_to="d" if node_id == "b" else None
                ),
            )
            net.start()
            for i in range(6):
                net.nodes["a"].stack.send("b", "ping", ("a", i))
                net.nodes["c"].stack.send("b", "ping", ("c", i))
            net.run()
            d_payloads = [pl for _k, _p, pl in net.nodes["d"].daemon.journal]
            expected = [("a", i) for i in range(6)] + [("c", i) for i in range(6)]
            assert d_payloads == expected
            if net.nodes["b"].stats.rollbacks:
                assert net.nodes["b"].stats.unsends_sent > 0
                return
        pytest.fail("no rollback observed at b in any seed")


class TestTimers:
    def _beacon_net(self, **shim_kw):
        net = defined_net(**shim_kw)
        service = BeaconService(net)
        net.attach(
            lambda node: DefinedShim(node, **shim_kw),
            lambda node_id, stack: EchoDaemon(node_id, stack),
        )
        net.start()
        service.start()
        return net, service

    def test_timer_fires_at_expiry_beacon(self):
        net, service = self._beacon_net()
        net.nodes["a"].stack.set_timer(2, "t")
        net.run(until_us=2 * SECOND)
        journal = net.nodes["a"].daemon.journal
        assert ("timer", "t", 2) in journal

    def test_cancel_prevents_firing(self):
        net, service = self._beacon_net()
        net.nodes["a"].stack.set_timer(2, "t")
        net.nodes["a"].stack.cancel_timer("t")
        net.run(until_us=2 * SECOND)
        assert net.nodes["a"].daemon.journal == []

    def test_virtual_time_advances_with_beacons(self):
        net, service = self._beacon_net()
        net.run(until_us=1_300_000)
        assert net.nodes["a"].stack.time_units() == 5

    def test_timer_delivery_is_logged_with_group(self):
        net, service = self._beacon_net()
        net.nodes["b"].stack.set_timer(1, "x")
        net.run(until_us=SECOND)
        assert "t|x|1" in net.nodes["b"].stack.delivery_log


class TestExternalEventsAndRecording:
    def test_external_event_recorded_with_group_and_seq(self):
        recorder = Recorder()
        net = defined_net(recorder=recorder)
        net.start()
        net.apply_event(
            ExternalEvent(time_us=0, kind="link_down", target=("a", "b"))
        )
        events = recorder.recording().events
        assert {e.node for e in events} == {"a", "b"}
        assert all(e.group == 0 and e.seq == 0 for e in events)

    def test_drop_recorded_when_sending_over_down_link(self):
        recorder = Recorder()
        net = defined_net(recorder=recorder)
        net.start()
        net.link_between("a", "b").up = False
        net.nodes["a"].stack.send("b", "ping", "x")
        drops = recorder.recording().drops
        assert len(drops) == 1
        (identity,) = drops
        assert identity[0] == "a" and identity[5] == "b" and identity[6] == "ping"

    def test_drop_recorded_when_peer_down(self):
        recorder = Recorder()
        net = defined_net(recorder=recorder)
        net.start()
        net.nodes["b"].set_up(False)
        net.nodes["a"].stack.send("b", "ping", "x")
        assert len(recorder.recording().drops) == 1


class TestFutureBuffer:
    def test_future_group_message_held_until_beacon(self):
        net = defined_net()
        service = BeaconService(net)
        net.start()
        shim_b = net.nodes["b"].stack
        # hand-craft a message tagged for group 2 while b is at group 0
        from repro.simnet.messages import Annotation

        msg = Message(
            src="a", dst="b", protocol="ping", payload="future",
            annotation=Annotation(origin="a", seq=1, delay_us=100, group=2),
        )
        net.transmit(msg)
        net.run()
        assert net.nodes["b"].daemon.journal == []
        assert len(shim_b._future_buffer) == 1
        service.start()
        net.run(until_us=2 * SECOND)
        assert ("msg", "ping", "future") in net.nodes["b"].daemon.journal


class TestReboot:
    def test_start_resets_shim_state(self):
        net = defined_net()
        net.start()
        net.nodes["a"].stack.send("b", "ping", 1)
        net.run()
        stack = net.nodes["b"].stack
        assert len(stack.history) == 1
        log_before = len(stack.delivery_log)
        stack.start()
        assert len(stack.history) == 0
        # the delivery log is measurement infrastructure, not node state:
        # it survives reboots (same as in the lockstep replay)
        assert len(stack.delivery_log) == log_before

    def test_one_store_checkpoints_the_node_with_or_without_a_daemon(self):
        net = defined_net()
        net.start()
        stack = net.nodes["b"].stack
        assert stack._store is net.nodes["b"].daemon.store
        bare = to_network(graph_of([("a", "b", 2_000)]), jitter_us=0)
        bare.attach(lambda node: DefinedShim(node))  # no daemon
        bare.start()
        stack = bare.nodes["b"].stack
        assert isinstance(stack._store, StateStore)
        stack.set_timer(1, "t")
        checkpoint = stack._take_checkpoint()
        stack.cancel_timer("t")
        stack._store.restore(checkpoint.version)
        assert stack.timers.is_armed("t")

    def test_memory_samples_on_beacons(self):
        net = defined_net()
        service = BeaconService(net)
        net.start()
        service.start()
        net.run(until_us=SECOND)
        assert net.nodes["a"].stats.virtual_memory_samples
