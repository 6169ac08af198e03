"""Regression tests for the ``--repeats`` seed-invariance probe.

The probe re-runs each (scenario, seed, mode) cell under K seed-split
*jitter seeds*: identical workload (topology + external schedule),
different network timing.  DEFINED's whole claim is that timing cannot
change the execution -- the K fingerprints of a deterministic mode must
collapse to one -- while vanilla's splits are the paper's motivation and
must *not* fail the sweep.  An injected nondeterminism (an RNG leak into
the fingerprint) must be caught and reported as a first-class split.
"""

from __future__ import annotations

import pytest

import repro.sweep as sweep_mod
from repro.sweep import CellResult, SweepReport, SweepRunner


class TestProbeGrid:
    def test_repeats_derive_distinct_jitter_seeds(self):
        runner = SweepRunner(
            scenarios=["latency-jitter"], seeds=(1,), modes=("defined",),
            repeats=3,
        )
        grid = runner.grid()
        assert len(grid) == 3
        # repeat 0 keeps the legacy identity (network seeded by the
        # workload seed); later repeats probe fresh jitter seeds
        assert grid[0].jitter_seed is None
        seeds = {cell.network_seed for cell in grid}
        assert len(seeds) == 3

    def test_single_repeat_grid_unchanged(self):
        (cell,) = SweepRunner(
            scenarios=["latency-jitter"], seeds=(4,), modes=("defined",)
        ).grid()
        assert cell.jitter_seed is None and cell.network_seed == 4


class TestFingerprintCollapse:
    def test_defined_collapses_on_diamond(self):
        """latency-jitter lives on the fixed diamond topology: 3 jitter
        seeds, one DEFINED fingerprint."""
        report = SweepRunner(
            scenarios=["latency-jitter"], seeds=(1,),
            modes=("vanilla", "defined"), repeats=3,
        ).run()
        assert report.ok(), report.render()
        assert report.invariance_splits() == []
        assert report.distinct_fingerprints("latency-jitter", "defined") == 1

    def test_defined_collapses_on_waxman20(self):
        report = SweepRunner(
            scenarios=["partition@20"], seeds=(1,), modes=("defined",),
            repeats=3,
        ).run()
        assert report.ok(), report.render()
        assert report.invariance_splits() == []
        assert report.distinct_fingerprints("partition@20", "defined") == 1

    def test_vanilla_splits_are_not_failures(self):
        """The probe demands collapse only of the deterministic modes;
        a vanilla split is the expected nondeterminism baseline."""
        report = SweepRunner(
            scenarios=["latency-jitter"], seeds=(1,),
            modes=("vanilla",), repeats=4,
        ).run()
        assert report.invariance_splits() == []
        assert report.ok(), report.render()
        # under 2.5ms per-packet jitter the vanilla stack diverges; pin
        # it so this test keeps meaning "splits observed, not flagged"
        assert report.distinct_fingerprints("latency-jitter", "vanilla") > 1


class TestInjectedNondeterminism:
    def test_rng_leak_reported_as_split(self, monkeypatch):
        """A nondeterminism that leaks the network's timing seed into
        the execution must surface as a seed-invariance split, not pass
        silently.  The leak keeps production and replay consistent, so
        Theorem 1 alone would never catch it -- only the probe does."""
        real_production = sweep_mod.run_production
        real_replay = sweep_mod.run_ls_replay
        leak = {}

        def leaky_production(graph, schedule, **kwargs):
            result = real_production(graph, schedule, **kwargs)
            leak["suffix"] = f"|rng-leak:{kwargs.get('seed')}"
            result.fingerprint += leak["suffix"]
            return result

        def leaky_replay(graph, recording, **kwargs):
            result = real_replay(graph, recording, **kwargs)
            result.fingerprint += leak["suffix"]
            return result

        monkeypatch.setattr(sweep_mod, "run_production", leaky_production)
        monkeypatch.setattr(sweep_mod, "run_ls_replay", leaky_replay)

        report = SweepRunner(
            scenarios=["latency-jitter"], seeds=(1,), modes=("defined",),
            repeats=3,
        ).run()
        assert not report.errors(), report.render()
        # the leak is invisible to the per-cell replay check...
        assert not report.invariant_violations()
        # ...but the probe catches the split and fails the sweep
        assert report.invariance_splits() == [("latency-jitter", 1, "defined")]
        assert not report.ok()
        assert "seed-invariance splits: 1" in report.render()
        payload = report.to_dict()
        assert payload["ok"] is False
        (split,) = payload["invariance_splits"]
        assert split["scenario"] == "latency-jitter"
        assert len(split["fingerprints"]) == 3
        assert len(set(split["fingerprints"].values())) == 3

    def test_splits_compare_only_cells_of_one_workload(self):
        """Cells at different ``window_us`` / ``jitter_us`` overrides (an
        envelope grid) run different workloads and never split; cells
        differing only in their jitter seed still do."""

        def splits(cells):
            return SweepReport(
                cells=cells, seeds=(1,), workers=1, repeats=1
            ).invariance_splits()

        assert splits([
            CellResult("latency-jitter", 1, "defined", window_us=w,
                       jitter_us=j, fingerprint=f"fp-{w}-{j}")
            for w in (100_000, 1_500_000) for j in (0, 300_000)
        ]) == []
        assert splits([
            CellResult("latency-jitter", 1, "defined", jitter_seed=s,
                       fingerprint=f"fp-{s}")
            for s in (None, 7)
        ]) == [("latency-jitter", 1, "defined")]

    def test_clean_run_has_no_splits_in_report_dict(self):
        report = SweepRunner(
            scenarios=["latency-jitter"], seeds=(1,), modes=("defined",),
            repeats=2,
        ).run()
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["invariance_splits"] == []
        assert payload["repeats"] == 2


@pytest.mark.parametrize("mode", ["defined", "ddos"])
def test_deterministic_modes_cover_ddos_baseline(mode):
    """Both deterministic stacks must be timing-independent: the
    stop-and-wait DDOS baseline blocks instead of rolling back, but the
    probe's collapse requirement applies to it all the same."""
    report = SweepRunner(
        scenarios=["ddos-overload"], seeds=(2,), modes=(mode,), repeats=2,
    ).run()
    assert report.ok(), report.render()
    assert report.distinct_fingerprints("ddos-overload", mode) == 1
