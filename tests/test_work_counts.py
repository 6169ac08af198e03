"""Deterministic work-count guard: counts, not clocks.

A sweep cell runs with ``measure_convergence=False``: nothing reads a
routing table, so no delivery may pay for one; an uninstrumented run
journals nothing, so no write may pay for sizing.  The bounds sit between
what the eager code did (SPF plus two whole-table rewrites per accepted
LSA: 12.0 barrier writes per delivery in ``defined``, 7.8 in ``vanilla``)
and what the lazy code does (2.1 / 0.76).  The lockstep replay is held to the
same kind of bound: daemon invocations and engine events per committed
delivery, with its simulated-time results pinned exactly.
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


def test_ls_replay_costs_less_daemon_work_than_the_run_it_verifies():
    """DEFINED-LS re-executes a suffix, not a node's whole input set, and
    spends one engine event per phase on markers, not one per node.  The
    four exact figures were recorded before either change (full
    re-execution, one ``marker:`` event per node per phase): folding the
    markers moved no simulated time and dropped no control packet."""
    from repro.harness import run_ls_replay
    from repro.sweep import get_scenario

    prod = run_scenario_cell("flap-storm@20", "defined", network_seed=1001)
    scenario = get_scenario("flap-storm@20")
    replay = run_ls_replay(
        scenario.topology(1), prod.recording, ordering=scenario.ordering
    )
    assert replay.fingerprint == prod.fingerprint
    committed = sum(len(log) for log in replay.logs.values())
    production_executed = sum(
        stats.deliveries for stats in prod.network.run_stats.per_node.values()
    )
    # 8 875 (2.44 per committed delivery) when every late wave re-ran the
    # node's whole input set; the production run itself needs 5 112
    assert committed == 3_634
    assert replay.executed_deliveries <= 1.5 * committed
    assert replay.executed_deliveries <= production_executed
    assert replay.network.sim.events_executed <= 9 * committed  # was 12.46

    assert replay.cycles == 359
    assert sum(replay.step_times_us) == 53_565_800
    assert replay.network.run_stats.total_control_packets() == 39_386
    assert replay.network.sim.now == 59_900_966
