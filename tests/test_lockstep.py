"""Behavioural tests for the DEFINED-LS lockstep coordinator and stack."""

from contextlib import nullcontext

import pytest

from _fixtures import flap_schedule, graph_of, run_scenario_cell, square_graph
from _oracles import deepcopy_stores

from repro.core.debugger import Debugger
from repro.core.lockstep import LockstepCoordinator, LockstepStack
from repro.core.ordering import make_ordering
from repro.core.recorder import Recording
from repro.core.rollback import output_id
from repro.harness import ospf_daemon_factory, run_production
from repro.routing.base import Daemon
from repro.simnet.link import DelayModel
from repro.simnet.messages import Annotation, Message, Unsend
from repro.simnet.network import Network
from repro.simnet.node import Stack
from repro.simnet.transport import ReliableTransport
from repro.sweep import get_scenario
from repro.topology import to_network


@pytest.fixture(scope="module")
def production():
    """One production run shared by the read-only lockstep tests."""
    square = square_graph()
    flap = flap_schedule(("b", "c"))
    return square, run_production(square, flap, mode="defined", seed=3)


def make_coordinator(square, recording, seed=77, loss=0.0):
    net = to_network(square, seed=seed, jitter_us=300, loss=loss)
    coordinator = LockstepCoordinator(net, recording, ordering=make_ordering("OO"))
    coordinator.attach(ospf_daemon_factory(square))
    coordinator.start()
    return coordinator


class TestCoordinatorPlacement:
    @pytest.mark.parametrize(
        "edges",
        [
            [("m", "a", 1_000), ("a", "z", 3_000)],
            [("c", "b", 2_000), ("b", "a", 500), ("a", "d", 4_000)],
            [("x", "y", 700), ("y", "w", 1_100), ("w", "x", 900)],
        ],
        ids=["line", "chain", "triangle"],
    )
    def test_coordinator_runs_on_the_first_node_id(self, production, edges):
        """Barrier control traffic leaves from the first node id: each
        node's coordinator delay is its shortest-path delay from there."""
        _, prod = production
        net = to_network(graph_of(edges), jitter_us=0)
        coordinator = LockstepCoordinator(net, prod.recording)
        first = net.node_ids()[0]
        assert coordinator.delay_to(first) == 0
        for node_id in net.node_ids():
            assert coordinator.delay_to(node_id) == net.delay_matrix()[first][node_id]


class TestPhaseMachinery:
    def test_cycle_counting_and_group_progression(self, production):
        square, prod = production
        coordinator = make_coordinator(square, prod.recording)
        assert coordinator.current_group == -1
        coordinator.advance_cycle()
        assert coordinator.current_group == 0
        Debugger(coordinator).step_group()
        assert not coordinator.in_group
        assert coordinator.current_group == 0

    def test_groups_quiesce_with_zero_zero_cycle(self, production):
        square, prod = production
        coordinator = make_coordinator(square, prod.recording)
        sent, processed = coordinator.advance_cycle()
        assert processed > 0  # boot group has traffic
        while coordinator.in_group:
            sent, processed = coordinator.advance_cycle()
        assert (sent, processed) == (0, 0)

    def test_idle_cycle_costs_two_completion_events(self, production):
        """A group-closing (0, 0) cycle finds every node idle: no
        phase-begin is an engine event, each phase is one completion
        event, yet every active node still pays its four control packets
        and the step still costs the barrier's round trips."""
        square, prod = production
        coordinator = make_coordinator(square, prod.recording)
        net = coordinator.network
        coordinator.advance_cycle()
        while True:
            events = net.sim.events_executed
            packets = net.run_stats.total_control_packets()
            if coordinator.advance_cycle() == (0, 0):
                break
        assert net.sim.events_executed - events == 2  # was 10: one per node per phase
        active = len(coordinator._active_nodes())
        assert active == 4
        assert net.run_stats.total_control_packets() - packets == 4 * active
        assert net.run_stats.step_times_us[-1] == 21_200

    def test_a_group_opens_no_node_it_has_no_work_for(self):
        """A node with no input and no due timer when its group opens gets
        no process phase-begin event: its count-0 marker is accounted at
        broadcast, with the packets and the step time that its no-op
        handler produced when every node was opened."""

        def line():
            net = to_network(graph_of([("a", "b", 2_000), ("b", "c", 3_000)]), jitter_us=0)
            coordinator = LockstepCoordinator(net, Recording())
            coordinator.attach(CountingDaemon)
            coordinator.start()
            return coordinator

        def open_every_node(stack):
            begin = stack._begin_group

            def opened(group, events):
                begin(group, events)
                stack._changed_from = ()

            stack._begin_group = opened

        lazy, eager = line(), line()
        for stack in eager.stacks.values():
            open_every_node(stack)
        for coordinator in (lazy, eager):
            assert coordinator.advance_cycle() == (0, 0)
        # group-begin, transmit and process: one completion event each,
        # plus, when every node was opened, one phase-begin per node
        assert lazy.network.sim.events_executed == 3
        assert eager.network.sim.events_executed == 3 + 3
        counters = [
            {
                nid: (s.control_packets_sent, s.control_packets_received)
                for nid, s in sorted(c.network.run_stats.per_node.items())
            }
            for c in (lazy, eager)
        ]
        assert counters[0] == counters[1] == {nid: (3, 3) for nid in "abc"}
        assert lazy.network.run_stats.step_times_us == [20_000]
        assert eager.network.run_stats.step_times_us == [20_000]
        assert lazy.network.sim.now == eager.network.sim.now

    def test_a_due_timer_opens_its_node(self):
        """A node whose only work in a group is a timer falling due there
        fires it in the group's first process phase, without an input."""
        net = to_network(graph_of([("a", "b", 2_000), ("b", "c", 3_000)]), jitter_us=0)
        coordinator = LockstepCoordinator(net, Recording(horizon_group=2))
        coordinator.attach(
            lambda node_id, stack: TimerDaemon(node_id, stack, arm=node_id == "b")
        )
        coordinator.start()
        b = net.nodes["b"].daemon
        assert coordinator.advance_cycle() == (0, 0)  # group 0: nothing due
        assert b.fired == []
        events = net.sim.events_executed
        assert coordinator.advance_cycle() == (0, 1)  # group 1 opens b alone
        assert coordinator.current_group == 1
        assert b.fired == [1]
        # group-begin, transmit and process completions, b's phase-begin
        assert net.sim.events_executed - events == 4
        assert coordinator.advance_cycle() == (0, 0)
        assert b.fired == [1]

    def test_phase_idle_needs_empty_buffers_unchanged_inputs_idle_transport(
        self, production
    ):
        square, prod = production
        coordinator = make_coordinator(square, prod.recording)
        Debugger(coordinator).step_group()
        stack = coordinator.stacks["a"]
        assert stack.phase_idle("transmit") and stack.phase_idle("process")
        stack._changed_from = ()
        assert stack.phase_idle("transmit") and not stack.phase_idle("process")
        stack._changed_from = None
        stack._unsend_buffer = {"b": [1]}
        assert not stack.phase_idle("transmit") and not stack.phase_idle("process")
        stack._unsend_buffer = {}
        stack.transport.send_message(Message("a", "b", "probe", None))  # awaits its ACK
        assert not stack.phase_idle("transmit") and stack.phase_idle("process")

    def test_a_missing_marker_is_reported_as_a_deadlock(self, production, monkeypatch):
        """A busy node that never answers leaves the phase incomplete once
        the engine's queue drains: the replay reports it, it does not
        hang."""
        square, prod = production
        coordinator = make_coordinator(square, prod.recording)
        stack = coordinator.stacks["b"]
        assert not stack.phase_idle("transmit")  # boot traffic to send
        monkeypatch.setattr(stack, "_marker", lambda count, sent_us: None)
        with pytest.raises(RuntimeError, match="lockstep deadlock"):
            coordinator.advance_cycle()
        assert coordinator.network.sim.pending == 0
        assert coordinator.network.run_stats.step_times_us == []

    def test_step_times_recorded(self, production):
        square, prod = production
        coordinator = make_coordinator(square, prod.recording)
        for _ in range(5):
            coordinator.advance_cycle()
        times = coordinator.network.run_stats.step_times_us
        assert len(times) == 5
        assert all(t > 0 for t in times)

    def test_finished_after_horizon(self, production):
        square, prod = production
        coordinator = make_coordinator(square, prod.recording)
        coordinator.run_all()
        assert coordinator.finished
        assert coordinator.current_group == prod.recording.horizon_group

    def test_advance_after_finished_is_noop(self, production):
        square, prod = production
        coordinator = make_coordinator(square, prod.recording)
        coordinator.run_all()
        assert coordinator.advance_cycle() == (0, 0)

    def test_barrier_traffic_counted_as_control(self, production):
        square, prod = production
        coordinator = make_coordinator(square, prod.recording)
        coordinator.advance_cycle()
        stats = coordinator.network.run_stats
        assert stats.total_control_packets() > 0


class TestTopologyReplay:
    def test_logical_link_state_follows_recording(self, production):
        square, prod = production
        coordinator = make_coordinator(square, prod.recording)
        down_group = next(
            e.group for e in prod.recording.events if e.kind == "link_down"
        )
        up_group = next(
            e.group for e in prod.recording.events if e.kind == "link_up"
        )
        while coordinator.current_group < down_group:
            coordinator.advance_cycle()
        stack = coordinator.stacks["b"]
        assert frozenset(("b", "c")) in stack.logical_down_links
        assert "c" not in stack.neighbors()
        while coordinator.current_group < up_group and not coordinator.finished:
            coordinator.advance_cycle()
        assert frozenset(("b", "c")) not in stack.logical_down_links

    def test_physical_links_stay_up(self, production):
        """Topology replay is logical; the debugging lab's wires stay on."""
        square, prod = production
        coordinator = make_coordinator(square, prod.recording)
        coordinator.run_all()
        for link in coordinator.network.links.values():
            assert link.up


class TestGroupLocalReexecution:
    def test_rebase_checkpoint_preserves_modification(self, production):
        square, prod = production
        coordinator = make_coordinator(square, prod.recording)
        coordinator.advance_cycle()
        stack = coordinator.stacks["a"]
        daemon = coordinator.network.nodes["a"].daemon
        daemon.hello_count = 999
        stack.rebase_checkpoint()
        Debugger(coordinator).step_group()
        # a re-execution within the group must not wipe the modification
        assert daemon.hello_count >= 999

    def test_pending_inputs_sorted(self, production):
        square, prod = production
        coordinator = make_coordinator(square, prod.recording)
        coordinator.advance_cycle()
        for stack in coordinator.stacks.values():
            entries = stack.pending_inputs()
            keys = [e.key for e in entries]
            assert keys == sorted(keys)


class TestErrorHandling:
    def test_empty_network_rejected(self, production):
        _square, prod = production
        from repro.simnet.network import Network

        with pytest.raises(ValueError):
            LockstepCoordinator(Network(), prod.recording)

    def test_live_external_events_rejected(self, production):
        square, prod = production
        coordinator = make_coordinator(square, prod.recording)
        from repro.simnet.events import ExternalEvent

        with pytest.raises(RuntimeError, match="no live external events"):
            coordinator.stacks["a"].on_external(
                ExternalEvent(time_us=0, kind="link_down", target=("a", "b"))
            )


# ----------------------------------------------------------------------
# suffix re-execution against the full re-execution it replaced
# ----------------------------------------------------------------------
def scenario_coordinator(name, recording, deepcopy=False, loss=0.0):
    """A debugging network for a sweep scenario's seed-1 workload, built
    the way ``run_ls_replay`` builds it, left un-run for stepping;
    ``deepcopy`` checkpoints it through the full-copy test oracle."""
    scenario = get_scenario(name)
    graph = scenario.topology(1)
    net = to_network(graph, seed=1_000, jitter_us=200, loss=loss)
    coordinator = LockstepCoordinator(
        net, recording, ordering=make_ordering(scenario.ordering)
    )
    with deepcopy_stores() if deepcopy else nullcontext():
        coordinator.attach(
            scenario.daemon(graph) if scenario.daemon else ospf_daemon_factory(graph)
        )
    coordinator.start()
    return coordinator


def force_full_reexecution(coordinator):
    """Turn a coordinator's stacks into the oracle: whenever a node's
    inputs changed, rewind to the group's first delivery and re-run the
    whole input set (``()`` sorts below every key, so the truncation
    index is always 0)."""
    for stack in coordinator.stacks.values():
        stack._reexecute_from = (
            lambda key, suffix=stack._reexecute_from: suffix(())
        )


def emitted(stack):
    """Output identity -> uid of everything the current group has on the wire."""
    return {output_id(m): m.uid for entry in stack.history for m in entry.outputs}


def observable_state(coordinator):
    """Everything a processing phase may change, per node."""
    out = {}
    for node_id, stack in sorted(coordinator.stacks.items()):
        out[node_id] = (
            stack.group_deliveries(),
            stack.daemon.state(),
            stack.timers.snapshot(),
            emitted(stack),  # output identity -> uid: allocation order too
            [msg.uid for msg in stack._send_buffer],
            stack._unsend_buffer,
        )
    return out


class TestSuffixReexecutionOracle:
    """After every cycle a suffix-re-executing replay is indistinguishable
    from one that re-runs each dirty node's whole input set."""

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("flap-storm@20", {}),
            ("partition", {}),
            ("crash-restart", {}),  # reboots through start()
            ("flap-storm", {"loss": 0.05}),  # retransmissions in flight
            ("flap-storm", {"deepcopy": True}),
        ],
    )
    def test_every_cycle_equals_full_reexecution(self, name, kwargs):
        prod = run_scenario_cell(name, "defined", network_seed=1001)
        shipped = scenario_coordinator(name, prod.recording, **kwargs)
        oracle = scenario_coordinator(name, prod.recording, **kwargs)
        force_full_reexecution(oracle)
        while not oracle.finished:
            sent, processed = shipped.advance_cycle()
            oracle_sent, oracle_processed = oracle.advance_cycle()
            assert (sent > 0, processed > 0) == (oracle_sent > 0, oracle_processed > 0)
            assert observable_state(shipped) == observable_state(oracle)
        assert shipped.finished
        for coordinator in (shipped, oracle):
            assert coordinator.network.execution_fingerprint() == prod.fingerprint
        assert (
            shipped.network.run_stats.step_times_us
            == oracle.network.run_stats.step_times_us
        )
        # the oracle really is the full re-run: it invokes the daemons more
        suffix_calls, full_calls = (
            sum(s.deliveries for s in c.network.run_stats.per_node.values())
            for c in (shipped, oracle)
        )
        assert suffix_calls < full_calls
        if kwargs.get("loss"):
            assert any(s.transport.retransmissions for s in shipped.stacks.values())


class CountingDaemon(Daemon):
    """Forwards every message to ``forward_to``; ``calls`` is deliberately
    kept outside its store, so it counts invocations across rewinds."""

    def __init__(self, node_id, stack, forward_to=None):
        super().__init__(node_id, stack)
        self.forward_to = forward_to
        self._seen = self.store.namespace("seen")  # position -> payload
        self.calls = []

    @property
    def seen(self):
        return self._seen.values()

    def on_start(self):
        self._seen.clear()

    def on_message(self, msg):
        self.calls.append(msg.payload)
        self._seen[len(self._seen)] = msg.payload
        if self.forward_to:
            self.send(self.forward_to, "fwd", msg.payload, parent=msg)

    def on_timer(self, key):  # pragma: no cover - no timers armed
        pass


class TimerDaemon(Daemon):
    """With ``arm``, arms one timer at boot, due one group later; records
    the group each firing runs in."""

    def __init__(self, node_id, stack, arm=False):
        super().__init__(node_id, stack)
        self.arm = arm
        self.fired = []

    def on_start(self):
        if self.arm:
            self.stack.set_timer(1, "tick")

    def on_message(self, msg):  # pragma: no cover - nothing is sent
        pass

    def on_timer(self, key):
        self.fired.append(self.stack.time_units())


class TestSuffixReexecutionUnit:
    """A hand-built line a - b - c; ``b`` is driven directly, wave by wave."""

    @pytest.fixture
    def b(self):
        net = to_network(graph_of([("a", "b", 2_000), ("b", "c", 2_000)]), jitter_us=0)
        coordinator = LockstepCoordinator(net, Recording())
        coordinator.attach(
            lambda node_id, stack: CountingDaemon(
                node_id, stack, forward_to="c" if node_id == "b" else None
            )
        )
        coordinator.start()
        stack = coordinator.stacks["b"]
        stack._begin_group(0, [])
        return stack

    @staticmethod
    def arrive(stack, payload, delay_us):
        """``payload`` from ``a``; its ordering key grows with ``delay_us``."""
        msg = Message(
            src="a", dst="b", protocol="ping", payload=payload,
            annotation=Annotation(
                origin="a", seq=delay_us, delay_us=delay_us, group=0,
                chain=0, sub=0, sender="a",
            ),
        )
        msg.uid = stack.node.network.next_uid()
        stack._on_logical(msg)
        return msg

    def test_a_later_wave_with_a_smaller_key_reruns_only_the_suffix(self, b):
        for payload, delay_us in (("m1", 2_000), ("m2", 4_000), ("m3", 6_000)):
            self.arrive(b, payload, delay_us)
        assert b._do_processing() == 3 + 3  # three deliveries, three forwards queued
        assert b.daemon.calls == ["m1", "m2", "m3"]
        first_wave_uids = emitted(b)

        self.arrive(b, "m0", 3_000)  # sorts between m1 and m2
        b._do_processing()
        # m1 sits before the insertion point: not invoked again
        assert b.daemon.calls == ["m1", "m2", "m3", "m0", "m2", "m3"]
        assert b.daemon.seen == ["m1", "m0", "m2", "m3"]
        assert b.group_deliveries() == [e.tag() for e in b.pending_inputs()]
        keys = b.history.keys()
        assert list(keys) == sorted(keys) and len(keys) == 4
        # m1's forward kept its uid; nothing before the insertion point moved
        now = emitted(b)
        kept = [oid for oid in first_wave_uids if oid in now]
        assert len(kept) == 1
        assert now[kept[0]] == first_wave_uids[kept[0]]

    def test_retracting_the_last_processed_input_executes_nothing(self, b):
        self.arrive(b, "m1", 2_000)
        last = self.arrive(b, "m2", 4_000)
        b._do_processing()
        b._send_buffer.clear()  # as a transmission phase would
        forwarded_uid = max(emitted(b).values())

        b._remove_uid(last.uid)
        assert b._do_processing() == 0 + 1  # nothing executed, one unsend owed
        assert b.daemon.calls == ["m1", "m2"]
        assert b.daemon.seen == ["m1"]
        assert b.group_deliveries() == [e.tag() for e in b.pending_inputs()]
        assert b._unsend_buffer == {"c": [forwarded_uid]}


class _MarkerSink:
    """Stands in for the coordinator: records each marker and when it
    would reach the coordinator (no round trip: the delay is zero)."""

    current_group = 0

    def __init__(self):
        self.markers = []

    def delay_to(self, node_id):
        return 0

    def on_marker(self, count, arrives_us):
        self.markers.append((count, arrives_us))


class _AckingStack(Stack):
    """A peer that only terminates the reliable transport (ACKs frames)."""

    def __init__(self, node):
        super().__init__(node)
        self.received = []
        self.transport = ReliableTransport(node.node_id, node.network, self.received.append)

    def send(self, dst, protocol, payload, parent=None, size_bytes=64):  # pragma: no cover
        raise AssertionError("unused")

    def set_timer(self, delay_units, key):  # pragma: no cover
        pass

    def cancel_timer(self, key):  # pragma: no cover
        pass

    def time_units(self):  # pragma: no cover
        return 0

    def start(self):  # pragma: no cover
        pass

    def on_wire(self, msg):
        self.transport.on_wire(msg)

    def on_external(self, event):  # pragma: no cover
        pass


T0 = 10_000


def _transmit_and_await(
    frame_us, ack_us, frames=1, rto_us=50_000, lose_first=False, ack_us_from=None
):
    """Node ``a`` sends ``frames`` frames to ``b`` in one transmit phase
    at ``T0`` over a jitter-free link (``frame_us`` a->b, ``ack_us``
    b->a) and waits for their ACKs.  With
    ``lose_first`` the link is down for the first transmission, so every
    frame goes out again when its RTO fires.  ``ack_us_from`` =
    ``(at_us, delay)`` changes the ACK delay at ``at_us``.  Returns the
    marker, the retransmission count and both nodes' counters."""
    net = Network(seed=0)
    for node_id in ("a", "b"):
        net.add_node(node_id)
    link = net.add_link("a", "b", DelayModel(base_us=frame_us, jitter_us=0))
    # links are symmetric: the ACK direction's delay is set on its route
    ack_route = net.route("b", "a")._replace(model=DelayModel(base_us=ack_us, jitter_us=0))
    net._routes["b", "a"] = ack_route
    stack = LockstepStack(net.nodes["a"], make_ordering("OO"), Recording())
    stack.transport.rto_us = rto_us
    stack.coordinator = sink = _MarkerSink()
    net.nodes["a"].stack = stack
    net.nodes["b"].stack = _AckingStack(net.nodes["b"])
    for i in range(frames):
        stack._send_buffer.append(
            Message(src="a", dst="b", protocol="_unsend", payload=Unsend(uids=(10_000 + i,)))
        )
    if lose_first:
        link.up = False
        net.sim.push(T0 + 1, setattr, link, "up", True)
    if ack_us_from is not None:
        at_us, delay = ack_us_from
        route = net.route("b", "a")._replace(model=DelayModel(base_us=delay, jitter_us=0))
        net.sim.push(at_us, net._routes.__setitem__, ("b", "a"), route)
    net.sim.push(T0, stack._on_coordinator, "transmit")
    net.run()
    counters = {
        nid: (
            s.control_packets_sent,
            s.control_packets_received,
            s.data_packets_sent,
            s.data_packets_received,
            s.bytes_sent,
        )
        for nid, s in sorted(net.run_stats.per_node.items())
    }
    return sink.markers, stack.transport.retransmissions, counters, net.nodes["b"].stack.received


class TestMarkerAtTheLastAck:
    """``_await_idle`` sends the marker at the instant the last ACK
    lands: ``T0`` plus the frame's and the ACK's delays."""

    @pytest.mark.parametrize(
        "frame_us, ack_us, marker_us",
        [
            (1_000, 3_000, T0 + 4_000),
            (2_000, 2_000, T0 + 4_000),
            (3_000, 1_000, T0 + 4_000),
            (0, 2_000, T0 + 2_000),  # zero-delay frame
            (0, 0, T0),  # zero-delay frame and ACK
            (1_100, 1_300, T0 + 2_400),
        ],
    )
    def test_the_marker_leaves_when_the_ack_lands(self, frame_us, ack_us, marker_us):
        markers, retransmissions, counters, received = _transmit_and_await(frame_us, ack_us)
        assert markers == [(1, marker_us)]
        assert retransmissions == 0
        assert len(received) == 1
        # a: the marker and the frame out, the ACK in; b: the ACK out,
        # the frame in (frames are data packets, ACKs control packets)
        assert counters == {"a": (1, 1, 1, 0, 72), "b": (1, 0, 0, 1, 8)}

    def test_several_frames_wait_for_the_last_ack(self):
        markers, _retransmissions, counters, received = _transmit_and_await(
            1_500, 1_000, frames=3
        )
        # FIFO clamp: frames land at +1500, +1501, +1502, ACKs 1 ms later
        assert markers == [(3, T0 + 2_502)]
        assert len(received) == 3
        assert counters == {"a": (1, 3, 3, 0, 216), "b": (3, 0, 0, 3, 24)}

    @pytest.mark.parametrize(
        "frame_us, ack_us, marker_us",
        [
            # the RTO fires at T0 + 50 ms and sends the frame again
            (1_000, 1_000, T0 + 52_000),
            (2_000, 2_000, T0 + 54_000),
            (0, 2_000, T0 + 52_000),
            (0, 0, T0 + 50_000),
        ],
    )
    def test_a_retransmission(self, frame_us, ack_us, marker_us):
        markers, retransmissions, counters, received = _transmit_and_await(
            frame_us, ack_us, lose_first=True
        )
        assert markers == [(1, marker_us)]
        assert retransmissions == 1
        assert len(received) == 1
        assert counters == {"a": (1, 1, 2, 0, 144), "b": (1, 0, 0, 1, 8)}

    @pytest.mark.parametrize("rto_us", [3_000, 4_000])
    def test_a_late_ack_lands_after_its_rto_fired(self, rto_us):
        """The RTO (3 ms, or 4 ms: a tie, which the RTO wins) fires before
        the ACK (4 ms) lands: the frame goes out again, the first ACK
        clears it, and the duplicate's ACK changes nothing but the
        counters."""
        markers, retransmissions, counters, received = _transmit_and_await(
            2_000, 2_000, rto_us=rto_us
        )
        assert markers == [(1, T0 + 4_000)]
        assert retransmissions == 1
        assert len(received) == 1
        assert counters == {"a": (1, 2, 2, 0, 144), "b": (2, 0, 0, 2, 16)}

    def test_the_first_ack_to_land_clears_the_frame(self):
        """The first ACK is late (it lands at T0 + 4 ms, after the 3 ms
        RTO); the retransmission's ACK, sent once the ACK delay has
        dropped to 0.5 ms, would land before its own RTO but queues
        behind the first on the link.  The first clears the frame; the
        second lands on nothing."""
        markers, retransmissions, counters, received = _transmit_and_await(
            500, 3_500, rto_us=3_000, ack_us_from=(T0 + 1_000, 500)
        )
        assert markers == [(1, T0 + 4_000)]
        assert retransmissions == 1
        assert len(received) == 1
        assert counters == {"a": (1, 2, 2, 0, 144), "b": (2, 0, 0, 2, 16)}
