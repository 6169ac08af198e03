"""End-to-end case-study tests (Section 4 of the paper).

These are the headline demonstrations: the two historical bugs are
nondeterministic under the vanilla stack, deterministic under DEFINED-RB,
and exactly reproducible in a DEFINED-LS debugging network.
"""

import os

import pytest

from _golden import assert_rows

from repro.harness import run_ls_replay
from repro.scenarios import (
    BGP_CORRECT_BEST,
    bgp_daemon_factory,
    bgp_topology,
    quagga_rip_scenario,
    rip_daemon_factory,
    rip_topology,
    xorp_bgp_scenario,
)

SEEDS = range(10)

CASE_STUDIES_GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "case-studies.jsonl"
)


class TestXorpBgpCaseStudy:
    def test_vanilla_buggy_outcome_is_order_dependent(self):
        outcomes = {
            xorp_bgp_scenario(mode="vanilla", decision="buggy", seed=s).best_at_r3
            for s in SEEDS
        }
        assert outcomes == {"p2", "p3"}

    def test_vanilla_correct_always_selects_p3(self):
        for seed in (0, 3, 7):
            outcome = xorp_bgp_scenario(mode="vanilla", decision="correct", seed=seed)
            assert outcome.best_at_r3 == BGP_CORRECT_BEST
            assert not outcome.bug_manifested

    def test_defined_makes_buggy_outcome_deterministic(self):
        outcomes = [
            xorp_bgp_scenario(mode="defined", decision="buggy", seed=s)
            for s in (1, 2, 3)
        ]
        fingerprints = {o.result.fingerprint for o in outcomes}
        bests = {o.best_at_r3 for o in outcomes}
        assert len(fingerprints) == 1
        assert len(bests) == 1

    def test_replay_reproduces_the_buggy_execution(self):
        prod = xorp_bgp_scenario(mode="defined", decision="buggy", seed=1)
        replay = run_ls_replay(
            bgp_topology(),
            prod.result.recording,
            daemon_factory=bgp_daemon_factory("buggy"),
        )
        assert replay.fingerprint == prod.result.fingerprint
        replay_best = replay.network.nodes["R3"].daemon.best_path_id("10.0.0.0/8")
        assert replay_best == prod.best_at_r3

    def test_patch_validated_in_debugging_network(self):
        """The case-study workflow: once the bug is understood, the fixed
        decision process is validated against the same recording."""
        prod = xorp_bgp_scenario(mode="defined", decision="buggy", seed=1)
        patched = run_ls_replay(
            bgp_topology(),
            prod.result.recording,
            daemon_factory=bgp_daemon_factory("correct"),
        )
        best = patched.network.nodes["R3"].daemon.best_path_id("10.0.0.0/8")
        assert best == BGP_CORRECT_BEST

    def test_correct_daemon_under_defined_still_correct(self):
        outcome = xorp_bgp_scenario(mode="defined", decision="correct", seed=4)
        assert outcome.best_at_r3 == BGP_CORRECT_BEST


class TestQuaggaRipCaseStudy:
    def test_vanilla_race_is_timing_dependent(self):
        outcomes = {
            quagga_rip_scenario(mode="vanilla", matching="buggy", config="race",
                                seed=s).route_via
            for s in range(16)
        }
        # the two scenarios of the paper: the dead route survives (black
        # hole) or the expiry won and the backup took over
        assert "R2" in outcomes
        assert len(outcomes) > 1

    def test_blackhole_config_is_permanent_under_buggy_matching(self):
        for seed in (0, 4, 9):
            outcome = quagga_rip_scenario(
                mode="vanilla", matching="buggy", config="blackhole", seed=seed
            )
            assert outcome.black_hole

    def test_correct_matching_always_fails_over(self):
        for seed in (0, 5):
            outcome = quagga_rip_scenario(
                mode="vanilla", matching="correct", config="blackhole", seed=seed
            )
            assert outcome.recovered

    def test_defined_makes_race_outcome_deterministic(self):
        outcomes = [
            quagga_rip_scenario(mode="defined", matching="buggy", config="race",
                                seed=s)
            for s in (1, 2, 3)
        ]
        assert len({o.route_via for o in outcomes}) == 1
        assert len({o.result.fingerprint for o in outcomes}) == 1

    def test_replay_reproduces_rip_execution(self):
        prod = quagga_rip_scenario(
            mode="defined", matching="buggy", config="blackhole", seed=1
        )
        replay = run_ls_replay(
            rip_topology(),
            prod.result.recording,
            daemon_factory=rip_daemon_factory("buggy", 8),
        )
        assert replay.fingerprint == prod.result.fingerprint
        assert replay.network.nodes["R1"].daemon.route_via("dst") == prod.route_via

    def test_observation_must_follow_death(self):
        with pytest.raises(ValueError):
            quagga_rip_scenario(observe_at_us=1)

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            quagga_rip_scenario(config="mystery")


def _case_study_row(study, variant, config, mode, seed, outcome, via):
    result = outcome.result
    return {
        "study": study,
        "variant": variant,
        "config": config,
        "mode": mode,
        "seed": seed,
        "fingerprint": result.fingerprint,
        "outcome": via,
        "rollbacks": result.rollbacks,
        "deliveries": sum(len(log) for log in result.logs.values()),
    }


def test_case_studies_match_their_golden_rows():
    """Every configuration of both case studies, not only the registered
    ones, pinned run by run: fingerprint, observed outcome, rollbacks and
    committed deliveries."""
    rows = []
    for decision in ("buggy", "correct"):
        for mode in ("vanilla", "defined"):
            for seed in range(3):
                outcome = xorp_bgp_scenario(mode=mode, decision=decision, seed=seed)
                rows.append(_case_study_row(
                    "xorp-bgp", decision, None, mode, seed, outcome,
                    outcome.best_at_r3,
                ))
    for matching in ("buggy", "correct"):
        for config in ("race", "blackhole"):
            for mode in ("vanilla", "defined"):
                for seed in range(2):
                    outcome = quagga_rip_scenario(
                        mode=mode, matching=matching, config=config, seed=seed
                    )
                    rows.append(_case_study_row(
                        "quagga-rip", matching, config, mode, seed, outcome,
                        outcome.route_via,
                    ))
    assert len(rows) == 28
    assert_rows(
        CASE_STUDIES_GOLDEN, rows, key=("study", "variant", "config", "mode", "seed")
    )
