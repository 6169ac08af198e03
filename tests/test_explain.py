"""The rollback trace (:mod:`repro.explain`) against the cell's counters.

The trace is installed from outside the program, so its totals must equal
what the shims counted themselves, and the run it watched must be the run
that happens without it.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

from _fixtures import run_scenario_cell

from repro.core.shim import DefinedShim
from repro.explain import (
    CAUSES, RETRACTION, ROLLBACK, UNSEND, audited, rollback_cause,
)


def test_flap_storm_40_totals_equal_the_cell_counters():
    with audited() as records:
        result = run_scenario_cell("flap-storm@40", "defined")
    stats = result.network.run_stats
    nodes = stats.per_node.values()
    rollbacks = [r for r in records if r.kind == ROLLBACK]
    rewound = sum(r.depth for r in rollbacks)

    assert len(rollbacks) == result.rollbacks == stats.total_rollbacks() == 901
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


def test_flap_storm_40_rollbacks_by_cause_and_phase():
    """Where ``flap-storm@40``'s rollbacks come from: the count per
    (cause, boot = group 0 / steady state)."""
    with audited() as records:
        run_scenario_cell("flap-storm@40", "defined")
    counts = Counter(
        (r.cause, "boot" if r.group == 0 else "steady")
        for r in records if r.kind == ROLLBACK
    )
    # before the playout hold: msg 828 / 338, ext 0 / 55, unsend 66 / 138,
    # timer 0 / 0 (boot / steady; 1 425 in all)
    assert dict(counts) == {
        ("msg", "boot"): 643,
        ("msg", "steady"): 81,
        ("ext", "steady"): 53,
        ("unsend", "boot"): 27,
        ("unsend", "steady"): 96,
        ("timer", "steady"): 1,
    }
    assert all(r.cause is None for r in records if r.kind != ROLLBACK)


def test_each_rollback_argument_shape_names_one_cause():
    msg, ext = SimpleNamespace(kind="msg"), SimpleNamespace(kind="ext")
    assert [
        rollback_cause([msg], set()),
        rollback_cause([ext], set()),
        rollback_cause([msg], {7}),
        rollback_cause([], {7}),
        rollback_cause([], set()),
    ] == list(CAUSES)


def test_the_trace_is_gone_outside_the_block():
    originals = (
        DefinedShim._rollback, DefinedShim._unsend_outputs, DefinedShim._retract_pruned,
    )
    with audited():
        assert DefinedShim._rollback is not originals[0]
    assert (
        DefinedShim._rollback, DefinedShim._unsend_outputs, DefinedShim._retract_pruned,
    ) == originals
