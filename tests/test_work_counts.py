"""Deterministic work-count guard: counts, not clocks.

A sweep cell runs with ``measure_convergence=False``: nothing reads a
routing table, so no delivery may pay for one; an uninstrumented run
journals nothing, so no write may pay for sizing.  The bounds sit between
what the eager code did (SPF plus two whole-table rewrites per accepted
LSA: 12.0 barrier writes per delivery in ``defined``, 7.8 in ``vanilla``)
and what the lazy code does (2.1 / 0.76).
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
