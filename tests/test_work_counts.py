"""Deterministic work-count guard: counts, not clocks.

A sweep cell runs with ``measure_convergence=False``: nothing reads a
routing table, so no delivery may pay for one; an uninstrumented run
journals nothing, so no write may pay for sizing.  The bounds sit between
what the eager code did (SPF plus two whole-table rewrites per accepted
LSA: 12.0 barrier writes per delivery in ``defined``, 7.8 in ``vanilla``)
and what the lazy code does (2.1 / 0.76).  The lockstep replay is held to the
same kind of bound: daemon invocations and engine events per committed
delivery, with its simulated-time results pinned exactly.  So is the
rollback regime: rollbacks and daemon invocations per committed delivery,
between what retract-everything cost and what lazy cancellation costs.
So is the quiet path: engine events per beacon tick and link lookups per
packet.  So is what a node keeps for stragglers: the pruned-delivery
maps' peak size.  So is what a run retains at its end: bytes per
delivery-log entry and blocks per memory sample.
"""

import pytest

from _fixtures import run_scenario_cell

import repro.core.statestore as statestore
import repro.routing.ospf as ospf
import repro.routing.spf as spf


@pytest.mark.parametrize("mode, writes_per_delivery", [("defined", 4), ("vanilla", 2)])
def test_a_sweep_cell_pays_for_nothing_it_does_not_read(
    mode, writes_per_delivery, monkeypatch
):
    calls = {"dijkstra": 0, "estimate_bytes": 0, "setitem": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    dijkstra = counting("dijkstra", spf.dijkstra)
    monkeypatch.setattr(spf, "dijkstra", dijkstra)
    monkeypatch.setattr(ospf, "dijkstra", dijkstra)
    monkeypatch.setattr(
        statestore, "estimate_bytes", counting("estimate_bytes", statestore.estimate_bytes)
    )
    setitem = counting("setitem", statestore.Namespace.__setitem__)
    monkeypatch.setattr(statestore.Namespace, "__setitem__", setitem)
    monkeypatch.setattr(statestore.Namespace, "set", setitem)

    result = run_scenario_cell("flap-storm@20", mode, network_seed=1001)
    deliveries = sum(len(log) for log in result.logs.values())
    assert deliveries > 3_000
    assert calls["dijkstra"] == 0
    assert 0 < calls["setitem"] <= writes_per_delivery * deliveries
    if mode == "vanilla":
        assert calls["estimate_bytes"] == 0
    else:
        assert calls["estimate_bytes"] > 0  # the journal sizes what it records


@pytest.mark.parametrize(
    "size, rollbacks_per_committed, executed_per_committed",
    [
        # retract-everything: 0.175 / 1.41; lazy cancellation: 0.058 / 1.18
        (20, 0.10, 1.30),
        # 0.334 / 2.32 -> 0.090 / 1.46
        (40, 0.20, 1.90),
        # 0.623 / 3.45 -> 0.316 / 2.19
        pytest.param(60, 0.45, 2.80, marks=pytest.mark.slow),
    ],
)
def test_a_rollback_unsends_only_what_its_replay_did_not_reproduce(
    size, rollbacks_per_committed, executed_per_committed
):
    """Lazy cancellation, as counts: a rollback whose re-execution
    re-emits an output byte for byte leaves it on the wire, so the
    neighbours are not rolled back by an unsend and then again by the
    identical copy.  Each bound sits between the cascade the
    retract-everything protocol produced and what is measured now."""
    prod = run_scenario_cell(f"flap-storm@{size}", "defined", network_seed=1001)
    stats = prod.network.run_stats.per_node.values()
    committed = sum(len(log) for log in prod.logs.values())
    assert prod.rollbacks <= rollbacks_per_committed * committed
    assert prod.executed_deliveries <= executed_per_committed * committed
    kept = sum(s.outputs_kept for s in stats)
    retracted = sum(s.outputs_retracted for s in stats)
    assert kept > retracted > 0
    if size == 40:
        # 1.85 unsent uids per rollback when everything was retracted; 0.57
        assert retracted <= prod.rollbacks


def test_the_quiet_path_pays_once_per_beacon_instant_and_per_route(monkeypatch):
    """One engine event per beacon arrival instant instead of one per
    beacon, and one link lookup per directed pair instead of one per
    packet.  5 170 events and 5 084 ``Node.deliver`` calls were recorded
    when every beacon was its own event and every packet looked its link
    up; no delivery may move, only the per-beacon events may go."""
    import sys

    from repro.simnet.network import Network
    from repro.simnet.node import Node

    delivered = {"calls": 0}
    beacon_instants = set()
    lookups = []
    deliver, link_between = Node.deliver, Network.link_between

    def counting_deliver(self, msg):
        delivered["calls"] += 1
        if msg.protocol == "_beacon":
            beacon_instants.add(self.network.sim.now)
        return deliver(self, msg)

    def counting_link_between(self, a, b):
        lookups.append((sys._getframe(1).f_code.co_name, a, b))
        return link_between(self, a, b)

    monkeypatch.setattr(Node, "deliver", counting_deliver)
    monkeypatch.setattr(Network, "link_between", counting_link_between)
    prod = run_scenario_cell("flap-storm@20", "defined", network_seed=1001)
    net = prod.network
    beacons = sum(s.beacons_received for s in net.run_stats.per_node.values())
    assert beacons == 1_720 and len(beacon_instants) == 86
    assert net.sim.events_executed == 5_170 - (beacons - len(beacon_instants))
    assert delivered["calls"] == 5_084
    # the send / transmit path binds a route per directed pair; the only
    # other reader is the link-event handler
    assert {caller for caller, _a, _b in lookups} == {"route", "apply_event"}
    pairs = [(a, b) for caller, a, b in lookups if caller == "route"]
    assert len(pairs) == len(set(pairs)) <= 2 * len(net.links)


def test_the_pruned_delivery_maps_keep_only_what_an_unsend_can_reach(monkeypatch):
    """Fossil collection, as a count: the peak of the pruned-delivery
    maps summed over nodes, sampled after every prune.  3 122 when every
    pruned delivery was kept for the whole run (57 576 on
    ``rb-ebone-trace``, 4 599 at one node); an entry now goes once its
    expiry has passed, or is never inserted."""
    from repro.core.shim import DefinedShim

    peak = {"summed": 0}
    prune = DefinedShim._prune_window

    def sampled(self):
        prune(self)
        summed = sum(
            len(node.stack._pruned_uid_log)
            for node in self.node.network.nodes.values()
            if isinstance(node.stack, DefinedShim)
        )
        peak["summed"] = max(peak["summed"], summed)

    monkeypatch.setattr(DefinedShim, "_prune_window", sampled)
    run_scenario_cell("flap-storm@20", "defined", network_seed=1001)
    assert peak["summed"] == 42


def test_a_run_retains_each_tag_once_and_no_boxed_memory_sample():
    """Retained memory, as counts: what the run still holds at its end,
    attributed by the file that allocated it.  The delivery log kept a
    UTF-8 copy of every tag beside the tag (104.8 bytes per entry over
    3 634 entries); it now keeps the tag list alone and encodes at fold
    time.  The Figure-7c series boxed every ~100 MB sample as its own
    ``int`` (3 517 blocks for 1 720 samples); they are packed now."""
    import tracemalloc

    def retained(after, before, path):
        only = [tracemalloc.Filter(True, f"*{path}")]
        diff = after.filter_traces(only).compare_to(before.filter_traces(only), "filename")
        return sum(d.size_diff for d in diff), sum(d.count_diff for d in diff)

    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        prod = run_scenario_cell("flap-storm@20", "defined", network_seed=1001)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    entries = sum(len(log) for log in prod.logs.values())
    stats = prod.network.run_stats.per_node.values()
    samples = sum(len(s.virtual_memory_samples) for s in stats)
    assert entries == 3_634 and samples == 1_720

    log_bytes, _ = retained(after, before, "repro/core/fingerprint.py")
    assert log_bytes <= 12 * entries
    _, sample_blocks = retained(after, before, "repro/core/checkpoint.py")
    assert sample_blocks < 0.1 * samples


def test_ls_replay_and_the_run_it_verifies_stay_near_the_committed_work():
    """DEFINED-LS re-executes a suffix, not a node's whole input set,
    spends one engine event per phase on markers, not one per node, and
    delivers a phase-begin as an engine event only to a node with work
    in the phase (idle phase-begins and group-begins are accounted);
    DEFINED-RB keeps the outputs a rollback reproduces, so its neighbours
    re-execute less.  Both are held to an absolute multiple of the
    committed deliveries (the replay used to be compared with the
    production run, which now does *less* daemon work than it: 4 277
    against 4 574 invocations).  The replay's engine events are pinned
    exactly: 29 988 while every active node got every phase-begin as an
    event, 18 099 while only busy ones did, 8 609 since ACKs, transmit
    polls and retransmission timers are accounted by the transport.  The
    four exact figures after it were recorded before any of this (full
    re-execution, one ``marker:`` event per node per phase): neither
    folding the markers, nor lazy cancellation, nor accounting idle
    phase-begins, ACKs and polls moved simulated time or a control
    packet of the replay."""
    from repro.harness import run_ls_replay
    from repro.sweep import get_scenario

    prod = run_scenario_cell("flap-storm@20", "defined", network_seed=1001)
    scenario = get_scenario("flap-storm@20")
    replay = run_ls_replay(
        scenario.topology(1), prod.recording, ordering=scenario.ordering
    )
    assert replay.fingerprint == prod.fingerprint
    committed = sum(len(log) for log in replay.logs.values())
    # 8 875 (2.44 per committed delivery) when every late wave re-ran the
    # node's whole input set; the production run needed 5 112 (1.41) when
    # every rollback retracted all its outputs
    assert committed == 3_634
    assert replay.executed_deliveries <= 1.5 * committed
    assert prod.executed_deliveries <= 1.25 * committed
    assert replay.network.sim.events_executed == 8_609

    assert replay.cycles == 359
    assert sum(replay.step_times_us) == 53_565_800
    assert replay.network.run_stats.total_control_packets() == 39_386
    assert replay.network.sim.now == 59_900_966
