"""Differential tests: the COW store vs the full-deepcopy oracle.

The copy-on-write store must be *observably indistinguishable* from the
trusted-simple deepcopy store (:class:`_oracles.DeepcopyStore`, test code
only): same fingerprints (production and replay), same rollback counts,
same headroom statistics, across the whole default sweep grid.  The fast
subset pins the rollback-heavy fault families in tier-1; the full default
grid runs under the ``slow`` marker (nightly).

Also covered here: the shim-level restore semantics the store must
preserve -- mid-group crash retraction, and restore-twice-from-the-same-
checkpoint pristinity as exercised by the lockstep group re-execution.
"""

from contextlib import nullcontext

import pytest

from _oracles import DeepcopyStore, deepcopy_stores

from repro.core.statestore import StateStore
from repro.sweep import SweepCell, default_grid, run_cell


def _run_pair(scenario: str, seed: int, mode: str):
    cow = run_cell(SweepCell(scenario, seed, mode))
    with deepcopy_stores():
        deep = run_cell(SweepCell(scenario, seed, mode))
    return cow, deep


def _assert_identical(cow, deep):
    assert cow.error is None, f"cow cell failed: {cow.error}"
    assert deep.error is None, f"deepcopy cell failed: {deep.error}"
    label = (cow.scenario, cow.seed, cow.mode)
    assert cow.fingerprint == deep.fingerprint, f"fingerprint split at {label}"
    assert cow.replay_fingerprint == deep.replay_fingerprint, (
        f"replay fingerprint split at {label}"
    )
    assert cow.invariant_ok == deep.invariant_ok, f"invariant split at {label}"
    assert cow.rollbacks == deep.rollbacks, f"rollback-count split at {label}"
    assert cow.late_deliveries == deep.late_deliveries, f"late split at {label}"
    assert cow.headroom == deep.headroom, f"headroom split at {label}"
    assert cow.deliveries == deep.deliveries, f"delivery-count split at {label}"


class TestFastDifferential:
    """Rollback-heavy representatives, tier-1 speed."""

    @pytest.mark.parametrize(
        "scenario",
        ["flap-storm", "partition", "latency-jitter"],
    )
    def test_fault_families_identical(self, scenario):
        cow, deep = _run_pair(scenario, seed=1, mode="defined")
        _assert_identical(cow, deep)
        assert cow.invariant_ok is True  # Theorem 1 held, both mechanisms

    def test_mid_group_crash_and_reboot_identical(self):
        # crash-restart schedules node_down/node_up at arbitrary (mid-
        # group) times: the on_crash retraction truncates history without
        # a restore, and the reboot resets the store -- both must leave
        # the execution bit-identical to the deepcopy path
        cow, deep = _run_pair("crash-restart", seed=1, mode="defined")
        _assert_identical(cow, deep)
        assert cow.invariant_ok is True

    def test_composition_identical(self):
        cow, deep = _run_pair("flap-storm+partition", seed=1, mode="defined")
        _assert_identical(cow, deep)


class TestRestoreTwicePristinity:
    """The lockstep replay restores one group checkpoint repeatedly; the
    restored state must be pristine every time (also under rollbacks on
    the production side, which re-checkpoint on top of a restored
    version)."""

    def test_lockstep_group_reexecution_under_both_mechanisms(self):
        from repro.harness import run_ls_replay, run_production
        from repro.sweep import get_scenario

        scenario = get_scenario("flap-storm")
        graph = scenario.topology(3)
        schedule = scenario.schedule(graph, 3)
        replays = {}
        for label, stores in (("cow", nullcontext), ("deepcopy", deepcopy_stores)):
            with stores():
                production = run_production(
                    graph, schedule, mode="defined", seed=3,
                    jitter_us=scenario.jitter_us, measure_convergence=False,
                )
                assert production.recording is not None
                replay = run_ls_replay(graph, production.recording)
            for result in (production, replay):  # the oracle really ran
                kinds = {
                    type(node.stack._store) for node in result.network.nodes.values()
                }
                assert kinds == {DeepcopyStore if label == "deepcopy" else StateStore}
            assert replay.fingerprint == production.fingerprint
            replays[label] = replay.fingerprint
        assert replays["cow"] == replays["deepcopy"]


@pytest.mark.slow
class TestFullGridDifferential:
    """The whole default sweep grid, both mechanisms, every mode."""

    def test_default_grid_identical(self):
        failures = []
        for scenario in default_grid():
            from repro.sweep import get_scenario

            for mode in get_scenario(scenario).modes:
                if mode == "vanilla":
                    continue  # timing-dependent by design; nothing to pin
                cow, deep = _run_pair(scenario, seed=1, mode=mode)
                try:
                    _assert_identical(cow, deep)
                except AssertionError as exc:
                    failures.append(str(exc))
        assert not failures, "\n".join(failures)
