"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from _fixtures import graph_of

from repro.simnet.engine import MS, SECOND, SimulationError, Simulator
from repro.simnet.messages import Message
from repro.simnet.node import VanillaStack
from repro.topology import to_network


def test_constants():
    assert MS == 1_000
    assert SECOND == 1_000_000


def test_schedule_and_run_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, fired.append, "c")
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    sim.drain()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_equal_time_ties_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(50, fired.append, name)
    sim.drain()
    assert fired == list("abcde")


def test_zero_delay_runs_after_current_instant_events():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "first")

    def schedule_more():
        fired.append("second")
        sim.schedule(0, fired.append, "third")

    sim.schedule(10, schedule_more)
    sim.drain()
    assert fired == ["first", "second", "third"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_push_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.push(100, fired.append, "x")
    sim.run(until_us=50)
    assert fired == []
    sim.run(until_us=150)
    assert fired == ["x"]


def test_push_into_the_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.drain()
    with pytest.raises(SimulationError):
        sim.push(5, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10, fired.append, "x")
    sim.schedule(5, handle.cancel)
    sim.drain()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(10, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.drain() == 0


def test_run_until_advances_clock_even_when_queue_drains():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run(until_us=500)
    assert sim.now == 500


def test_run_until_does_not_execute_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, "late")
    sim.run(until_us=50)
    assert fired == []
    assert sim.pending == 1


def test_max_events_bound():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(i, fired.append, i)
    executed = sim.run(max_events=3)
    assert executed == 3
    assert fired == [0, 1, 2]


def test_event_bound_leaves_the_clock_at_the_last_event():
    """A run stopped by ``max_events`` must not advance the clock to
    ``until_us`` past events still due before it."""
    sim = Simulator()
    fired = []
    for t in (10, 20, 30):
        sim.schedule(t, fired.append, t)
    assert sim.run(until_us=100, max_events=1) == 1
    assert sim.now == 10
    assert sim.run(until_us=100) == 2
    assert fired == [10, 20, 30] and sim.now == 100


class _Stop(Exception):
    pass


def _stop():
    raise _Stop


def test_a_raising_callback_ends_the_run_at_its_event():
    """An exception from a callback propagates out of ``run`` with the
    clock and the counter at that event (not at ``until_us``); the rest
    of the queue stays queued, and a second ``run`` is allowed and fires
    it in key order, events scheduled in between included."""
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, _stop)
    sim.schedule(20, fired.append, "b")
    sim.schedule(30, fired.append, "c")
    sim.schedule(5, fired.append, "first")
    with pytest.raises(_Stop):
        sim.run(until_us=100)
    assert fired == ["first", "a"]
    assert sim.now == 20 and sim.events_executed == 3
    assert sim.pending == 2
    sim.schedule(0, fired.append, "same instant")
    assert sim.run() == 3
    assert fired == ["first", "a", "b", "same instant", "c"]
    assert sim.now == 30 and sim.events_executed == 6


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.drain()
    assert sim.events_executed == 5


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        sim.run()

    sim.schedule(1, reenter)
    with pytest.raises(SimulationError):
        sim.drain()


def test_callbacks_can_schedule_new_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.drain()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 50


class TestCancelCompaction:
    def test_pending_reports_live_events_only(self):
        sim = Simulator()
        handles = [sim.schedule(10 + i, lambda: None) for i in range(10)]
        for handle in handles[:4]:
            handle.cancel()
        assert sim.pending == 6
        assert sim.queue_size == 10

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        keep = sim.schedule(5, lambda: None)
        victim = sim.schedule(10, lambda: None)
        victim.cancel()
        victim.cancel()
        assert sim.pending == 1
        del keep

    def test_cancel_after_firing_does_not_corrupt_pending(self):
        sim = Simulator()
        fired = sim.schedule(1, lambda: None)
        sim.schedule(10, lambda: None)
        sim.run(max_events=1)
        fired.cancel()  # too late: already executed
        assert sim.pending == 1

    def test_heavy_cancellation_compacts_queue(self):
        """Timer-churn pattern: schedule/cancel far more entries than ever
        fire.  The heap must not retain the dead entries."""
        sim = Simulator()
        sim.schedule(10_000, lambda: None)
        for i in range(1_000):
            sim.schedule(100 + i, lambda: None).cancel()
        assert sim.compactions > 0
        assert sim.queue_size < 2 * Simulator.COMPACT_MIN_CANCELLED
        assert sim.pending == 1

    def test_compaction_preserves_execution_order(self):
        sim = Simulator()
        fired = []
        keepers = {}
        for i in range(500):
            handle = sim.schedule(i + 1, fired.append, i)
            if i % 25 == 0:
                keepers[i] = handle
            else:
                handle.cancel()
        sim.drain()
        assert fired == sorted(keepers)
        assert sim.pending == 0

    def test_cancel_inside_callback_during_run(self):
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(50 + i, fired.append, f"d{i}") for i in range(100)]

        def cancel_all():
            for handle in doomed:
                handle.cancel()

        sim.schedule(10, cancel_all)
        sim.schedule(200, fired.append, "survivor")
        sim.drain()
        assert fired == ["survivor"]
        assert sim.pending == 0

    def test_pending_drops_as_cancelled_entries_are_popped(self):
        sim = Simulator()
        a = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        a.cancel()
        assert sim.pending == 1
        sim.drain()
        assert sim.pending == 0
        assert sim.queue_size == 0


def tapped_star(fired):
    """Nodes ``a``, ``c`` and ``d``, each 10 us from ``b`` with no jitter,
    whose stacks append each arriving packet's payload to ``fired``: a
    packet is an event nobody can cancel, a :meth:`Simulator.schedule`
    event one that can be.  Packets from one sender keep FIFO order, so
    a burst from ``a`` lands 1 us apart."""

    class Tap(VanillaStack):
        def on_wire(self, msg):
            fired.append(msg.payload)

    net = to_network(
        graph_of([("a", "b", 10), ("c", "b", 10), ("d", "b", 10)]), jitter_us=0
    )
    net.attach(Tap)
    return net


def packet(payload, src="a"):
    return Message(src=src, dst="b", protocol="p", payload=payload)


class TestBothKindsOfEvent:
    """Packets (no handle) and scheduled events (a handle) are one queue."""

    def test_same_instant_events_fire_in_push_order(self):
        fired = []
        net = tapped_star(fired)
        sim = net.sim
        sim.schedule(10, fired.append, "s1")
        net.transmit(packet("p1"))
        doomed = sim.schedule(10, fired.append, "cancelled")
        net.transmit(packet("p2", src="c"))
        sim.schedule(10, fired.append, "s2")
        net.transmit(packet("p3", src="d"))
        doomed.cancel()
        net.run()
        assert fired == ["s1", "p1", "p2", "s2", "p3"]
        assert sim.now == 10

    def test_cancelled_event_never_fires_across_a_compaction(self):
        fired = []
        net = tapped_star(fired)
        sim = net.sim
        doomed = [sim.schedule(1_000 + i, fired.append, f"d{i}") for i in range(200)]
        for i in range(100):
            net.transmit(packet(f"p{i}"))
        sim.schedule(1_000, fired.append, "kept")
        for handle in doomed[:50]:
            handle.cancel()
        net.run(until_us=50)
        assert sim.compactions == 0
        for handle in doomed[50:]:
            handle.cancel()
        assert sim.compactions > 0
        net.run()
        assert fired == [f"p{i}" for i in range(100)] + ["kept"]
        assert sim.pending == 0 and sim.queue_size == 0

    def test_cancelling_a_fired_event_is_a_noop(self):
        fired = []
        net = tapped_star(fired)
        sim = net.sim
        early = sim.schedule(5, fired.append, "early")
        net.transmit(packet("p"))
        late = sim.schedule(20, fired.append, "late")
        sim.run(until_us=15)
        assert fired == ["early", "p"]
        early.cancel()
        early.cancel()
        assert sim.pending == 1 and sim.queue_size == 1
        net.run()
        assert fired == ["early", "p", "late"]
        late.cancel()
        assert sim.pending == 0 and sim.events_executed == 3

    def test_reserved_keys_interleave_with_pushed_events(self):
        fired = []
        net = tapped_star(fired)
        sim = net.sim
        sim.schedule(10, fired.append, "before")
        seq = sim.reserve_seq()
        net.transmit(packet("after-1", src="c"))
        sim.schedule(10, fired.append, "after-2")
        sim.schedule_reserved(10, seq, fired.append, "reserved")
        cancelled_seq = sim.reserve_seq()
        sim.schedule_reserved(10, cancelled_seq, fired.append, "gone").cancel()
        net.run()
        assert fired == ["before", "reserved", "after-1", "after-2"]

    def test_counters_count_both_kinds(self):
        fired = []
        net = tapped_star(fired)
        sim = net.sim
        handles = [sim.schedule(30 + i, fired.append, i) for i in range(3)]
        for i in range(4):
            net.transmit(packet(f"p{i}"))
        assert sim.pending == 7 and sim.queue_size == 7
        handles[0].cancel()
        assert sim.pending == 6 and sim.queue_size == 7
        assert sim.run(until_us=13) == 4
        assert sim.events_executed == 4
        assert sim.pending == 2
        assert sim.run(max_events=1) == 1
        assert sim.events_executed == 5 and sim.pending == 1
        net.run()
        assert sim.events_executed == 6 and sim.pending == 0 and sim.queue_size == 0
        assert fired == ["p0", "p1", "p2", "p3", 1, 2]


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
def test_property_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired_times = []
    for d in delays:
        sim.schedule(d, lambda: fired_times.append(sim.now))
    sim.drain()
    assert fired_times == sorted(fired_times)
    assert len(fired_times) == len(delays)


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=1000), st.integers()),
        min_size=1,
        max_size=40,
    )
)
def test_property_same_schedule_same_execution(items):
    def run_once():
        sim = Simulator()
        out = []
        for delay, tag in items:
            sim.schedule(delay, out.append, (sim.now, tag))
        sim.drain()
        return out

    assert run_once() == run_once()
