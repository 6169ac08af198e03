"""Unit tests for the RIP daemon and the Quagga 0.96.5 bug."""

import pytest

from _fixtures import FakeStack, graph_of

from repro.core.shim import DefinedShim
from repro.routing.rip import (
    BuggyQuaggaRip,
    CorrectRip,
    INFINITY_METRIC,
    PROTO_UPDATE,
)
from repro.simnet.messages import Message
from repro.topology import to_network


def make(cls=CorrectRip, own=None, **kw):
    stack = FakeStack("R1", ["R2", "R3"])
    daemon = cls("R1", stack, neighbors=["R2", "R3"], own_destinations=own, **kw)
    daemon.on_start()
    return daemon, stack


def update(sender, routes):
    return Message(
        src=sender, dst="R1", protocol=PROTO_UPDATE,
        payload=("rip", sender, tuple(routes)),
    )


class TestBoot:
    def test_own_destinations_installed_as_connected(self):
        daemon, _ = make(own={"d": 0, "e": 2})
        assert daemon.rib.lookup("d").source == "connected"
        assert daemon.rib.lookup("e").metric == 2

    def test_announce_timer_armed(self):
        _, stack = make()
        assert "announce" in stack.timers

    def test_own_destinations_list_form(self):
        daemon, _ = make(own=["d"])
        assert daemon.rib.lookup("d").metric == 0


class TestAnnouncements:
    def test_announce_timer_sends_vector_to_all_neighbors(self):
        daemon, stack = make(own={"d": 0})
        stack.clear()
        daemon.on_timer("announce")
        sends = [(dst, pl) for dst, p, pl, _ in stack.sent if p == PROTO_UPDATE]
        assert [dst for dst, _ in sends] == ["R2", "R3"]
        assert all(pl == ("rip", "R1", (("d", 0),)) for _, pl in sends)
        assert "announce" in stack.timers  # re-armed

    def test_empty_table_announces_nothing(self):
        daemon, stack = make()
        stack.clear()
        daemon.on_timer("announce")
        assert stack.sent == []

    def test_infinity_routes_not_announced(self):
        daemon, _ = make()
        daemon.on_message(update("R2", [("d", INFINITY_METRIC)]))
        assert "d" not in daemon.rib


class TestLearning:
    def test_new_route_installed_with_incremented_metric(self):
        daemon, stack = make()
        daemon.on_message(update("R2", [("d", 0)]))
        entry = daemon.rib.lookup("d")
        assert entry.metric == 1 and entry.next_hop == "R2"
        assert "expire|d" in stack.timers

    def test_better_metric_displaces(self):
        daemon, _ = make()
        daemon.on_message(update("R2", [("d", 5)]))
        daemon.on_message(update("R3", [("d", 1)]))
        assert daemon.rib.lookup("d").next_hop == "R3"

    def test_connected_route_never_displaced(self):
        daemon, _ = make(own={"d": 5})
        daemon.on_message(update("R2", [("d", 0)]))
        assert daemon.rib.lookup("d").source == "connected"

    def test_expiry_timer_removes_rip_route(self):
        daemon, _ = make()
        daemon.on_message(update("R2", [("d", 0)]))
        daemon.on_timer("expire|d")
        assert "d" not in daemon.rib

    def test_expiry_timer_spares_connected_route(self):
        daemon, _ = make(own={"d": 0})
        daemon.on_timer("expire|d")
        assert "d" in daemon.rib

    def test_unknown_timer_rejected(self):
        daemon, _ = make()
        with pytest.raises(ValueError):
            daemon.on_timer("mystery")


class TestCorrectMatching:
    def test_refresh_only_from_current_next_hop(self):
        daemon, stack = make()
        daemon.on_message(update("R2", [("d", 0)]))
        stack.now_units = 5
        daemon.on_message(update("R2", [("d", 0)]))
        assert daemon.rib.lookup("d").expires_vt == 5 + daemon.timeout_units

    def test_other_router_does_not_refresh(self):
        daemon, stack = make()
        daemon.on_message(update("R2", [("d", 0)]))
        expiry = daemon.rib.lookup("d").expires_vt
        stack.now_units = 5
        daemon.on_message(update("R3", [("d", 0)]))  # equal metric, ignored
        assert daemon.rib.lookup("d").expires_vt == expiry
        assert daemon.rib.lookup("d").next_hop == "R2"

    def test_next_hop_withdrawal_via_infinity(self):
        daemon, _ = make()
        daemon.on_message(update("R2", [("d", 0)]))
        daemon.on_message(update("R2", [("d", INFINITY_METRIC)]))
        assert "d" not in daemon.rib

    def test_metric_tracks_next_hop_announcements(self):
        daemon, _ = make()
        daemon.on_message(update("R2", [("d", 0)]))
        daemon.on_message(update("R2", [("d", 4)]))
        assert daemon.rib.lookup("d").metric == 5


class TestBuggyMatching:
    """Quagga 0.96.5: destination-only matching."""

    def test_any_router_refreshes_the_timer(self):
        daemon, stack = make(cls=BuggyQuaggaRip)
        daemon.on_message(update("R2", [("d", 0)]))
        stack.now_units = 7
        daemon.on_message(update("R3", [("d", 5)]))  # worse metric, wrong hop
        entry = daemon.rib.lookup("d")
        assert entry.next_hop == "R2"  # route unchanged...
        assert entry.expires_vt == 7 + daemon.timeout_units  # ...timer refreshed!

    def test_better_metric_still_displaces(self):
        daemon, _ = make(cls=BuggyQuaggaRip)
        daemon.on_message(update("R2", [("d", 5)]))
        daemon.on_message(update("R3", [("d", 0)]))
        assert daemon.rib.lookup("d").next_hop == "R3"

    def test_infinity_does_not_refresh(self):
        daemon, stack = make(cls=BuggyQuaggaRip)
        daemon.on_message(update("R2", [("d", 0)]))
        expiry = daemon.rib.lookup("d").expires_vt
        stack.now_units = 9
        daemon.on_message(update("R3", [("d", INFINITY_METRIC)]))
        assert daemon.rib.lookup("d").expires_vt == expiry


class TestCheckpointing:
    def test_snapshot_restore_roundtrip(self):
        """A store rewind restores the RIB: the later route is gone."""
        daemon, _ = make(own={"d": 0})
        daemon.on_message(update("R2", [("x", 0)]))
        before = daemon.state()
        token = daemon.store.snapshot()
        daemon.on_message(update("R3", [("y", 0)]))
        daemon.store.restore(token)
        assert "y" not in daemon.rib
        assert "x" in daemon.rib
        assert daemon.state() == before


class TestInspection:
    def test_on_a_stack_the_view_includes_the_timer_table(self):
        net = to_network(graph_of([("R1", "R2", 2_000)]), jitter_us=0)
        net.attach(DefinedShim, lambda node_id, stack: CorrectRip(node_id, stack, []))
        net.start()
        assert sorted(net.nodes["R1"].daemon.state()) == ["_timers", "_timers.meta", "rib"]
