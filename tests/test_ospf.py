"""Unit tests for the OSPF daemon (link-state protocol)."""

from contextlib import nullcontext

import pytest

from _fixtures import (
    FakeStack,
    line_graph,
    run_scenario_cell,
    spf_oracle,
    square_graph,
)
from _oracles import DeepcopyStore, deepcopy_stores

from repro.core.statestore import StateStore
from repro.harness import SLICE_US, ospf_daemon_factory, run_production
from repro.routing.ospf import PROTO_ACK, PROTO_HELLO, PROTO_LSA, OspfDaemon
from repro.simnet.events import EventSchedule, ExternalEvent
from repro.simnet.messages import Message
from repro.simnet.network import Network


def make_daemon(neighbors=("b", "c"), **kw):
    stack = FakeStack("a", list(neighbors))
    daemon = OspfDaemon("a", stack, neighbors=list(neighbors), **kw)
    daemon.on_start()
    return daemon, stack


def lsa(router, seq, links, src="b"):
    return Message(
        src=src, dst="a", protocol=PROTO_LSA,
        payload=("lsa", router, seq, tuple(sorted(links))),
    )


class TestBoot:
    def test_originates_own_lsa_to_all_neighbors(self):
        daemon, stack = make_daemon()
        lsas = [(d, pl) for d, p, pl, _ in stack.sent if p == PROTO_LSA]
        assert {d for d, _ in lsas} == {"b", "c"}
        assert all(pl[1] == "a" and pl[2] == 1 for _, pl in lsas)

    def test_hello_timer_armed(self):
        daemon, stack = make_daemon()
        assert "hello" in stack.timers

    def test_own_lsa_installed(self):
        daemon, _ = make_daemon()
        assert daemon.lsdb["a"] == (1, ("b", "c"))


class TestFlooding:
    def test_new_lsa_installed_acked_and_flooded(self):
        daemon, stack = make_daemon()
        stack.clear()
        daemon.on_message(lsa("b", 1, ["a"], src="b"))
        protocols = stack.sent_protocols()
        assert PROTO_ACK in protocols
        # flooded to c but not back to sender b
        flood_dsts = [d for d, p, _pl, _ in stack.sent if p == PROTO_LSA]
        assert flood_dsts == ["c"]

    def test_flood_marks_causal_parent(self):
        daemon, stack = make_daemon()
        stack.clear()
        incoming = lsa("b", 1, ["a"], src="b")
        daemon.on_message(incoming)
        parents = [par for _d, p, _pl, par in stack.sent if p == PROTO_LSA]
        assert parents == [incoming]

    def test_stale_lsa_ignored_but_acked(self):
        daemon, stack = make_daemon()
        daemon.on_message(lsa("b", 5, ["a"], src="b"))
        stack.clear()
        daemon.on_message(lsa("b", 4, ["a", "c"], src="c"))
        assert daemon.lsdb["b"] == (5, ("a",))
        assert stack.sent_protocols() == [PROTO_ACK]

    def test_ack_cancels_retransmit(self):
        daemon, stack = make_daemon()
        stack.clear()
        daemon.on_message(lsa("b", 1, ["a"], src="b"))
        assert any(k.startswith("rexmit|c|b|1") for k in stack.timers)
        daemon.on_message(
            Message(src="c", dst="a", protocol=PROTO_ACK, payload=("ack", "b", 1))
        )
        assert not any(k.startswith("rexmit|c|b|1") for k in stack.timers)

    def test_retransmit_timer_resends_unacked_lsa(self):
        daemon, stack = make_daemon()
        daemon.on_message(lsa("b", 1, ["a"], src="b"))
        stack.clear()
        daemon.on_timer("rexmit|c|b|1")
        assert [p for _d, p, _pl, _ in stack.sent] == [PROTO_LSA]

    def test_retransmit_after_ack_is_noop(self):
        daemon, stack = make_daemon()
        daemon.on_message(lsa("b", 1, ["a"], src="b"))
        daemon.on_message(
            Message(src="c", dst="a", protocol=PROTO_ACK, payload=("ack", "b", 1))
        )
        stack.clear()
        daemon.on_timer("rexmit|c|b|1")
        assert stack.sent == []


class TestHello:
    def test_hello_timer_sends_and_rearms(self):
        daemon, stack = make_daemon()
        stack.clear()
        daemon.on_timer("hello")
        hellos = [d for d, p, _pl, _ in stack.sent if p == PROTO_HELLO]
        assert hellos == ["b", "c"]
        assert "hello" in stack.timers

    def test_incoming_hello_is_ignored(self):
        daemon, stack = make_daemon()
        stack.clear()
        daemon.on_message(
            Message(src="b", dst="a", protocol=PROTO_HELLO, payload=("hello", "b"))
        )
        assert stack.sent == []


class TestInterfaceEvents:
    def down_event(self):
        return ExternalEvent(time_us=0, kind="link_down", target=("a", "b"))

    def test_link_down_reoriginates_without_dead_link(self):
        daemon, stack = make_daemon()
        stack.clear()
        daemon.on_external(self.down_event())
        assert daemon.lsdb["a"] == (2, ("c",))
        lsa_dsts = [d for d, p, _pl, _ in stack.sent if p == PROTO_LSA]
        assert lsa_dsts == ["c"]

    def test_link_down_clears_retransmit_state_toward_dead_interface(self):
        daemon, stack = make_daemon()
        daemon.on_message(lsa("c", 1, ["a"], src="c"))  # pending ack from b
        assert any(k[0] == "b" for k in daemon.pending_acks)
        daemon.on_external(self.down_event())
        assert not any(k[0] == "b" for k in daemon.pending_acks)

    def test_duplicate_event_is_idempotent(self):
        daemon, stack = make_daemon()
        daemon.on_external(self.down_event())
        seq = daemon.my_seq
        daemon.on_external(self.down_event())
        assert daemon.my_seq == seq

    def test_link_up_triggers_database_exchange(self):
        daemon, stack = make_daemon()
        daemon.on_message(lsa("b", 3, ["a"], src="b"))
        daemon.on_external(self.down_event())
        stack.clear()
        daemon.on_external(
            ExternalEvent(time_us=0, kind="link_up", target=("a", "b"))
        )
        sent_to_b = [pl for d, p, pl, _ in stack.sent if d == "b" and p == PROTO_LSA]
        # b gets our re-originated LSA and the stored copy of its own
        routers = {pl[1] for pl in sent_to_b}
        assert routers == {"a", "b"}

    def test_unknown_neighbor_event_ignored(self):
        daemon, stack = make_daemon()
        stack.clear()
        daemon.on_external(
            ExternalEvent(time_us=0, kind="link_down", target=("x", "y"))
        )
        assert stack.sent == []


class TestSpfIntegration:
    def test_two_way_check_requires_both_lsas(self):
        daemon, _ = make_daemon(neighbors=("b",))
        daemon.on_message(lsa("c", 1, ["b"], src="b"))
        # c claims b, but b has no LSA yet: c unreachable
        assert "c" not in daemon.routing_distances()
        daemon.on_message(lsa("b", 1, ["a", "c"], src="b"))
        assert daemon.routing_distances() == {"a": 0, "b": 1, "c": 2}


def assert_table_follows_lsdb(daemon):
    distances, first_hops = spf_oracle(daemon)
    state = daemon.state()
    assert daemon.routing_distances() == state["distances"] == distances
    assert state["first_hops"] == first_hops
    # sorted key order, as the debugger prints it
    assert list(state["distances"]) == sorted(distances)
    assert list(state["first_hops"]) == sorted(first_hops)


class TestDerivedRoutingTable:
    """The routing table is a view of the LSDB computed on read: whenever
    it is read it equals a from-scratch Dijkstra over the *current* LSDB,
    whichever way the LSDB got there."""

    def three_router_daemon(self):
        daemon, _ = make_daemon(neighbors=("b",))
        daemon.on_message(lsa("b", 1, ["a", "c"]))
        daemon.on_message(lsa("c", 1, ["b"]))
        assert daemon.routing_distances() == {"a": 0, "b": 1, "c": 2}
        return daemon

    @pytest.mark.parametrize("store_cls", [StateStore, DeepcopyStore])
    def test_store_rewind_drops_the_table(self, store_cls):
        with deepcopy_stores() if store_cls is DeepcopyStore else nullcontext():
            daemon = self.three_router_daemon()
        assert type(daemon.store) is store_cls
        before = daemon.state()
        token = daemon.store.snapshot()
        daemon.on_message(lsa("c", 2, []))  # c withdraws its adjacency
        assert daemon.routing_distances() == {"a": 0, "b": 1}
        daemon.store.restore(token)
        assert daemon.state() == before
        assert_table_follows_lsdb(daemon)

    def test_reads_do_not_write_to_the_store(self):
        daemon = self.three_router_daemon()
        daemon.store.snapshot()
        daemon.on_message(lsa("c", 2, []))
        private = daemon.store.private_bytes()
        dirty = daemon.store.dirty_key_counts()
        assert_table_follows_lsdb(daemon)
        assert daemon.store.private_bytes() == private
        assert daemon.store.dirty_key_counts() == dirty
        assert daemon.store.namespaces() == (
            "delayed_floods", "live_interfaces", "lsdb", "meta", "pending_acks",
        )

    def test_reboot_yields_the_table_of_the_new_lsdb(self):
        daemon = self.three_router_daemon()
        daemon.on_start()
        assert daemon.routing_distances() == {"a": 0}
        assert_table_follows_lsdb(daemon)

    def test_returned_tables_are_copies(self):
        daemon = self.three_router_daemon()
        daemon.routing_distances().clear()
        daemon.state()["first_hops"].clear()
        assert_table_follows_lsdb(daemon)

    # crash-restart@20, not the 10-node cell: the playout hold leaves
    # the small cell without a rollback to probe across
    @pytest.mark.parametrize("name", ["flap-storm@20", "crash-restart@20"])
    def test_probing_a_rollback_run_sees_dijkstra_and_moves_nothing(
        self, name, monkeypatch
    ):
        unprobed = run_scenario_cell(name, "defined")
        real_run = Network.run
        probes = []

        def probe(net):
            for node in net.nodes.values():
                if node.up and node.daemon is not None:
                    assert_table_follows_lsdb(node.daemon)
                    probes.append(node.node_id)

        def run_in_probed_slices(net, until_us=None, max_events=None):
            executed = 0
            while until_us is not None and net.sim.now + SLICE_US < until_us:
                executed += real_run(net, until_us=net.sim.now + SLICE_US)
                probe(net)
            executed += real_run(net, until_us=until_us, max_events=max_events)
            probe(net)
            return executed

        monkeypatch.setattr(Network, "run", run_in_probed_slices)
        probed = run_scenario_cell(name, "defined")
        assert len(probes) > 1_000 and unprobed.rollbacks > 0
        # reads are pure: same execution, same journals
        assert probed.fingerprint == unprobed.fingerprint
        for node_id in probed.network.node_ids():
            assert (
                probed.network.run_stats.node(node_id).physical_memory_samples
                == unprobed.network.run_stats.node(node_id).physical_memory_samples
            )


class TestCheckpointing:
    def test_snapshot_restore_roundtrip(self):
        """A store rewind restores the LSDB across a message and a timer."""
        daemon, _ = make_daemon()
        daemon.on_message(lsa("b", 1, ["a", "c"], src="b"))
        before = daemon.state()
        token = daemon.store.snapshot()
        daemon.on_message(lsa("b", 2, ["a"], src="b"))
        daemon.on_timer("hello")
        daemon.store.restore(token)
        assert daemon.lsdb["b"] == (1, ("a", "c"))
        assert daemon.state() == before


class TestInspection:
    def test_state_is_isolated_from_mutation(self):
        daemon, _ = make_daemon()
        view = daemon.state()
        daemon.lsdb["zz"] = (1, ())
        assert "zz" not in view["lsdb"]

    def test_state_size_positive(self):
        daemon, _ = make_daemon()
        assert daemon.store.live_bytes() > 0

    def test_state_key_order(self):
        """The inspection view the debugger prints, in its order."""
        daemon, _ = make_daemon()
        assert list(daemon.state()) == [
            "live_interfaces", "lsdb", "my_seq", "pending_acks",
            "delayed_floods", "distances", "first_hops", "hello_count",
        ]


class TestForwardDelay:
    def test_delayed_flood_parks_and_fires(self):
        daemon, stack = make_daemon(forward_delay_units=4)
        stack.clear()
        daemon.on_message(lsa("b", 1, ["a"], src="b"))
        assert [p for _d, p, _pl, _ in stack.sent] == [PROTO_ACK]
        assert ("b", 1) in daemon.delayed_floods
        daemon.on_timer("fwd|b|1")
        assert PROTO_LSA in stack.sent_protocols()
        assert ("b", 1) not in daemon.delayed_floods


class TestConvergenceEndToEnd:
    def test_vanilla_network_converges_after_flap(self):
        graph = square_graph()
        from _fixtures import flap_schedule

        result = run_production(
            graph, flap_schedule(("b", "c")), mode="vanilla", seed=0
        )
        assert result.unconverged_events == 0
        assert len(result.convergence_times_us) == 2

    def test_line_network_partition_and_heal(self):
        graph = line_graph(3)
        schedule = EventSchedule()
        schedule.add(
            ExternalEvent(time_us=4_103_000, kind="link_down", target=("n0", "n1"))
        )
        schedule.add(
            ExternalEvent(time_us=10_201_000, kind="link_up", target=("n0", "n1"))
        )
        result = run_production(graph, schedule, mode="vanilla", seed=1)
        assert result.unconverged_events == 0
