"""Tests for the window-envelope mapper (:mod:`repro.envelope`).

The contract under test, end to end: grid jitter x window x size, capture
the *full* slack-deficit distribution per cell (not just warnings), and
recommend a window whose verification re-run is deficit-free -- the
ROADMAP's "map the envelope and auto-suggest" item.  The fast cases run
on the fixed diamond (latency-jitter family); the sized-Waxman acceptance
grid (``flap-storm@20``) is exercised small here and at full size by the
CI envelope-smoke job.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.core.history import WindowHeadroomStats
from repro.core.shim import HistoryWindowWarning, default_window_us
from repro.envelope import (
    AUTO_WINDOW_FRACTIONS,
    EnvelopeRunner,
    WINDOW_GRANULARITY_US,
    scenario_default_window_us,
    _round_window,
)
from repro.sweep import SweepCell, run_cell

#: Envelope mapping exhausts windows *on purpose*; the warning traffic
#: is the subject of test_window_headroom.py, not noise for this module.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.core.shim.HistoryWindowWarning"
)

#: The diamond envelope's two regimes (see tests/test_window_headroom.py):
#: 100 ms of window is exhausted by 300 ms delivery jitter, roomy at none.
TIGHT_WINDOW_US = 100_000
HEAVY_JITTER_US = 300_000


def _map_diamond(**overrides):
    kwargs = dict(
        scenarios=["latency-jitter"],
        jitters_us=(0, HEAVY_JITTER_US),
        windows_us=(TIGHT_WINDOW_US, 1_500_000),
        seeds=(1,),
    )
    kwargs.update(overrides)
    return EnvelopeRunner(**kwargs)


class TestWindowHeadroomStats:
    def test_from_samples_quantiles(self):
        stats = WindowHeadroomStats.from_samples(
            50_000, [100, 200, 300, 400, 1_000]
        )
        assert stats.window_us == 50_000
        assert stats.late_count == 5
        assert stats.max_deficit_us == 1_000
        assert stats.p50_deficit_us == 300
        assert stats.p90_deficit_us == 1_000
        assert not stats.clean

    def test_empty_samples_are_clean(self):
        stats = WindowHeadroomStats.from_samples(50_000, [])
        assert stats.clean
        assert stats.max_deficit_us == 0

    def test_deficit_at_maps_onto_summary_points(self):
        stats = WindowHeadroomStats(
            window_us=1, late_count=4, max_deficit_us=40,
            p50_deficit_us=10, p90_deficit_us=20, p99_deficit_us=30,
        )
        assert stats.deficit_at(0.5) == 10
        assert stats.deficit_at(0.75) == 20   # next summary point up
        assert stats.deficit_at(0.95) == 30
        assert stats.deficit_at(1.0) == 40
        with pytest.raises(ValueError):
            stats.deficit_at(0.0)

    def test_round_trip_dict(self):
        stats = WindowHeadroomStats.from_samples(9, [3])
        assert WindowHeadroomStats(**stats.to_dict()) == stats


class TestCellOverrides:
    """The shim/history plumbing: per-cell window and jitter overrides
    thread all the way through ``run_cell`` into measured headroom."""

    def test_window_override_reaches_the_shims(self):
        result = run_cell(SweepCell(
            "latency-jitter", 1, "defined",
            window_us=TIGHT_WINDOW_US, jitter_us=HEAVY_JITTER_US,
            check_invariant=False,
        ))
        assert result.error is None
        assert result.window_us == TIGHT_WINDOW_US
        assert result.headroom is not None
        assert result.headroom.window_us == TIGHT_WINDOW_US
        assert result.headroom.late_count == result.late_deliveries > 0
        assert result.headroom.max_deficit_us > 0

    def test_default_window_reported_when_no_override(self):
        result = run_cell(SweepCell(
            "latency-jitter", 1, "defined", check_invariant=False,
        ))
        assert result.error is None
        assert result.window_us is None  # no override requested...
        assert result.headroom is not None
        assert result.headroom.window_us > 0  # ...effective window echoed
        assert result.headroom.clean

    def test_check_invariant_false_skips_the_replay(self):
        result = run_cell(SweepCell(
            "latency-jitter", 1, "defined", check_invariant=False,
        ))
        assert result.invariant_ok is None
        assert result.replay_fingerprint is None

    def test_vanilla_cells_have_no_headroom(self):
        result = run_cell(SweepCell("latency-jitter", 1, "vanilla"))
        assert result.error is None
        assert result.headroom is None


class TestEnvelopeMapping:
    def test_grid_covers_every_axis_combination(self):
        report = _map_diamond(seeds=(1, 2)).run(suggest=False)
        cells = report.mapping.cells
        assert len(cells) == 1 * 2 * 2 * 2  # scenario x jitter x window x seed
        combos = {(c.scenario, c.jitter_us, c.window_us, c.seed) for c in cells}
        assert len(combos) == len(cells)
        # mapping cells run with the Theorem-1 replay off
        assert all(c.mode == "defined" and c.invariant_ok is None for c in cells)
        # the report's axes are the ones the mapping cells ran
        assert report.scenarios == ("latency-jitter",)
        assert report.jitters_us == (0, HEAVY_JITTER_US)
        assert report.windows_us == (TIGHT_WINDOW_US, 1_500_000)
        assert report.mapping.seeds == (1, 2)
        # cells at different windows and jitters are different workloads
        assert report.mapping.invariance_splits() == []

    def test_mapping_measures_the_envelope(self):
        report = _map_diamond().run(suggest=False)
        assert not report.mapping.errors()
        assert report.ok() and report.verification is None
        by_axes = {
            (c.jitter_us, c.window_us): c.headroom for c in report.mapping.cells
        }
        # tight window + heavy jitter: slack exhausted, distribution captured
        hot = by_axes[(HEAVY_JITTER_US, TIGHT_WINDOW_US)]
        assert hot.late_count > 0 and hot.max_deficit_us > 0
        assert hot.p50_deficit_us <= hot.p90_deficit_us <= hot.max_deficit_us
        # no jitter: every window clean; roomy window: clean at any jitter
        assert by_axes[(0, TIGHT_WINDOW_US)].clean
        assert by_axes[(0, 1_500_000)].clean
        assert by_axes[(HEAVY_JITTER_US, 1_500_000)].clean
        safe = report.safe_windows()
        assert safe[("latency-jitter", 0)] == TIGHT_WINDOW_US
        assert safe[("latency-jitter", HEAVY_JITTER_US)] == 1_500_000

    def test_suggested_window_verifies_deficit_free(self):
        """The acceptance loop: deficits measured, window recommended,
        re-run at the recommendation reports zero slack deficits."""
        report = _map_diamond().run(suggest=True)
        assert report.suggestion is not None
        s = report.suggestion
        assert s.verified, report.render()
        assert report.ok()
        # the recommendation came from the measured distribution: at
        # least the q-target reach, above the exhausted window
        assert s.window_us > TIGHT_WINDOW_US
        assert report.verification.cells
        for cell in report.verification.cells:
            assert cell.error is None
            assert cell.headroom is not None and cell.headroom.clean
            # verification runs the full Theorem-1 check
            assert cell.invariant_ok is not None
        assert s.rounds[-1][0] == s.window_us
        assert s.rounds[-1][1] == 0

    def test_suggestion_without_deficits_is_smallest_clean_window(self):
        runner = _map_diamond(jitters_us=(0,))
        report = runner.run(suggest=True)
        assert report.suggestion is not None
        assert report.suggestion.window_us == TIGHT_WINDOW_US
        assert report.suggestion.verified

    def test_boundary_jitter_wrapper_reuses_the_fuzzer(self):
        runner = _map_diamond(boundary_jitter_us=2)
        assert runner.scenarios == ("latency-jitter~j2us",)
        assert runner.run(suggest=False).mapping.errors() == []

    def test_sizes_rescale_through_the_name_grammar(self):
        runner = EnvelopeRunner(
            scenarios=["flap_storm"], jitters_us=(0,),
            windows_us=(1_000_000,), sizes=[12],
        )
        assert runner.scenarios == ("flap-storm@12",)

    def test_auto_windows_ladder_brackets_the_default_formula(self):
        runner = _map_diamond(windows_us="auto")
        default = scenario_default_window_us("latency-jitter", seed=1)
        assert len(runner.windows_us) == len(AUTO_WINDOW_FRACTIONS)
        assert runner.windows_us[-1] == _round_window(default)
        assert runner.windows_us[0] == _round_window(
            int(default * AUTO_WINDOW_FRACTIONS[0])
        )

    def test_report_json_shape(self):
        report = _map_diamond().run(suggest=True)
        payload = json.loads(json.dumps(report.to_dict()))
        # the mapping pass's sweep report, plus the envelope's own keys
        assert set(payload) == set(report.mapping.to_dict()) | {
            "scenarios", "jitters_us", "windows_us", "mode", "cells",
            "safe_windows", "suggestion", "verification_cells",
        }
        assert payload["ok"] is True
        assert payload["mode"] == "defined"
        assert payload["suggestion"]["verified"] is True
        assert payload["grid_cells"] == len(payload["cells"]) == 4
        assert payload["coverage"]["completed"] == 4
        assert payload["semantic_digest"] == report.mapping.semantic_digest()
        assert payload["wall_seconds"] == pytest.approx(
            report.mapping.wall_seconds + report.verification.wall_seconds
        )
        hot = [
            c for c in payload["cells"]
            if c["jitter_us"] == HEAVY_JITTER_US
            and c["window_us"] == TIGHT_WINDOW_US
        ]
        assert hot and hot[0]["headroom"]["late_count"] > 0
        assert payload["verification_cells"]

    def test_rejects_bad_axes(self):
        with pytest.raises(ValueError, match="at least one scenario"):
            EnvelopeRunner(scenarios=[])
        with pytest.raises(ValueError, match="negative"):
            _map_diamond(jitters_us=(-1,))
        with pytest.raises(ValueError, match="positive"):
            _map_diamond(windows_us=(0,))
        with pytest.raises(ValueError, match="'auto'"):
            _map_diamond(windows_us="ladder")
        with pytest.raises(ValueError, match="target_quantile"):
            _map_diamond(target_quantile=1.5)
        with pytest.raises(KeyError):
            EnvelopeRunner(scenarios=["no-such-scenario"])

    def test_parallel_mapping_matches_serial(self):
        serial = _map_diamond().run(suggest=False).mapping
        streamed = _map_diamond(workers=2).run(suggest=False).mapping
        assert streamed.workers == 2
        assert serial.semantic_rows() == streamed.semantic_rows(), (
            "headroom stats must survive the shared-memory record intact"
        )


class TestDefaultWindowHelper:
    def test_scenario_default_matches_shim_formula(self):
        from repro.sweep import get_scenario
        from repro.topology import to_network

        sc = get_scenario("latency-jitter")
        graph = sc.topology(1)
        net = to_network(graph, seed=1, jitter_us=sc.jitter_us)
        assert scenario_default_window_us("latency-jitter", 1) == (
            default_window_us(net)
        )

    def test_round_window_granularity(self):
        assert _round_window(1) == WINDOW_GRANULARITY_US
        assert _round_window(1_000) == 1_000
        assert _round_window(1_001) == 2_000


class TestEnvelopeCli:
    def _run(self, argv):
        from repro.cli import main

        with warnings.catch_warnings():
            # the mapping pass exhausts windows on purpose; the CLI's
            # exit code and report are the interface under test
            warnings.simplefilter("ignore", HistoryWindowWarning)
            return main(argv)

    def test_envelope_suggest_writes_verified_report(self, tmp_path, capsys):
        """The acceptance-criteria command shape, on the fast diamond:
        ``repro envelope --scenarios ... --jitters 0,300 --windows auto
        --suggest`` must exit 0 with a verified suggestion in the JSON."""
        out_path = tmp_path / "envelope.json"
        rc = self._run([
            "envelope", "--scenarios", "latency-jitter",
            "--jitters", "0,300", "--windows", "auto",
            "--suggest", "--report-out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "suggested window_us" in out
        assert "VERIFIED" in out
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True
        assert payload["suggestion"]["verified"] is True
        deficits = sum(
            c["headroom"]["late_count"]
            for c in payload["verification_cells"]
            if c["headroom"] is not None
        )
        assert deficits == 0

    def test_envelope_explicit_windows_no_suggest(self, capsys):
        rc = self._run([
            "envelope", "--scenarios", "latency-jitter",
            "--jitters", "0", "--windows", "200000,400000",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "late deliveries at window=200000us" in out
        assert "smallest mapped deficit-free window" in out

    def test_envelope_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            self._run(["envelope", "--scenarios", "nope"])

    def test_envelope_rejects_bad_windows(self):
        with pytest.raises(SystemExit):
            self._run([
                "envelope", "--scenarios", "latency-jitter",
                "--windows", "soon",
            ])


@pytest.mark.slow
class TestSizedAcceptanceGrid:
    def test_flap_storm_20_envelope_suggests_verified_window(self):
        """The full acceptance grid (sized Waxman, 0/50/300 ms jitter,
        auto ladder): nightly-sized, also exercised by the CI
        envelope-smoke job via the CLI."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HistoryWindowWarning)
            report = EnvelopeRunner(
                scenarios=["flap-storm@20"],
                jitters_us=(0, 50_000, 300_000),
                windows_us="auto",
                seeds=(1,),
            ).run(suggest=True)
        assert report.ok(), report.render()
        assert report.suggestion is not None and report.suggestion.verified
        # the 300 ms column must have actually exhausted the small rungs
        assert any(
            c.jitter_us == 300_000 and c.headroom and not c.headroom.clean
            for c in report.mapping.cells
        )
