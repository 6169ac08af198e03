"""The rollback trace (:mod:`repro.explain`) against the cell's counters.

The trace is installed from outside the program, so its totals must equal
what the shims counted themselves, and the run it watched must be the run
that happens without it.
"""

from __future__ import annotations

from _fixtures import run_scenario_cell

from repro.core.shim import DefinedShim
from repro.explain import RETRACTION, ROLLBACK, UNSEND, audited


def test_flap_storm_40_totals_equal_the_cell_counters():
    with audited() as records:
        result = run_scenario_cell("flap-storm@40", "defined")
    stats = result.network.run_stats
    nodes = stats.per_node.values()
    rollbacks = [r for r in records if r.kind == ROLLBACK]
    rewound = sum(r.depth for r in rollbacks)

    assert len(rollbacks) == result.rollbacks == stats.total_rollbacks() == 1_425
    assert rewound == sum(s.messages_rolled_back for s in nodes)
    # 14 504 committed deliveries: every daemon invocation less the ones
    # a rollback rewound
    assert stats.total_deliveries() - rewound == 14_504
    assert sum(r.kind == UNSEND for r in records) == sum(
        s.outputs_retracted for s in nodes
    )
    assert not any(r.kind == RETRACTION for r in records)
    for node in stats.per_node:
        assert sum(r.node == node for r in rollbacks) == stats.per_node[node].rollbacks
    for r in rollbacks:
        assert r.index >= 0 and r.depth >= 1 and r.since_us <= r.time_us

    untraced = run_scenario_cell("flap-storm@40", "defined")
    assert untraced.fingerprint == result.fingerprint


def test_the_trace_is_gone_outside_the_block():
    originals = (
        DefinedShim._rollback, DefinedShim._unsend_outputs, DefinedShim._retract_pruned,
    )
    with audited():
        assert DefinedShim._rollback is not originals[0]
    assert (
        DefinedShim._rollback, DefinedShim._unsend_outputs, DefinedShim._retract_pruned,
    ) == originals
