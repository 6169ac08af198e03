"""Run bundles, the first-divergence diff engine, and the Theorem-1
super-beacon-jitter regression.

The regression class pins the exact cell that exposed the lockstep
divergence: ``flap-storm@20`` / seed 1 / 300 ms delivery jitter -- a
jitter magnitude *above* the 250 ms beacon interval, the regime where
chain-delay estimates used to cross a whole group phase and the replay
silently parted ways with production at zero slack deficits.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.artifact import RunBundle, canonical_json
from repro.core.recorder import Recording
from repro.diff import diff_bundles, diff_logs, parse_tag, render_divergence
from repro.harness import run_ls_replay, run_production
from repro.sweep import SweepCell, get_scenario, run_cell

JITTER_US = 300_000  # > the 250 ms beacon interval
WINDOW_US = 5_000_000


@pytest.fixture(scope="module")
def storm_production():
    """One flap-storm@20 production run in the super-beacon regime."""
    scenario = get_scenario("flap-storm@20")
    graph = scenario.topology(1)
    schedule = scenario.schedule(graph, 1)
    result = run_production(
        graph,
        schedule,
        mode="defined",
        seed=1,
        jitter_us=JITTER_US,
        ordering=scenario.ordering,
        settle_us=scenario.settle_us,
        tail_us=scenario.tail_us,
        window_us=WINDOW_US,
    )
    return scenario, graph, result


class TestTheorem1SuperBeaconJitter:
    """The closed hole: delivery jitter above the beacon interval."""

    def test_flap_storm_replay_is_fingerprint_identical(self, storm_production):
        scenario, graph, result = storm_production
        assert result.headroom is not None and result.headroom.clean, (
            "the regression cell must not rely on late deliveries: "
            "divergence at *zero* deficits is what made the bug a bug"
        )
        replay = run_ls_replay(
            graph, result.recording, ordering=scenario.ordering
        )
        assert replay.fingerprint == result.fingerprint
        assert replay.logs == result.logs

    def test_run_cell_invariant_holds(self):
        cell = SweepCell(
            "flap-storm@20", seed=1, mode="defined",
            jitter_us=JITTER_US, window_us=WINDOW_US,
        )
        result = run_cell(cell)
        assert result.error is None
        assert result.invariant_ok is True
        assert result.headroom is not None and result.headroom.clean

    def test_envelope_verified_subsumes_invariant(self):
        from repro.envelope import EnvelopeRunner

        runner = EnvelopeRunner(
            scenarios=["flap-storm@20"],
            jitters_us=[JITTER_US],
            windows_us=[WINDOW_US],
            seeds=[1],
        )
        report = runner.run(suggest=True)
        assert report.ok()
        assert report.suggestion is not None
        assert report.suggestion.verified is True
        assert report.suggestion.invariant_clean is True

    def test_verified_suggestion_requires_clean_invariant(self):
        from repro.envelope import WindowSuggestion

        with pytest.raises(ValueError, match="invariant_clean"):
            WindowSuggestion(
                window_us=1_000, target_quantile=0.99, margin=0.25,
                verified=True, invariant_clean=False,
            )


class TestRunBundle:
    def test_round_trip_and_content_address(self, storm_production, tmp_path):
        _, _, result = storm_production
        bundle = RunBundle.from_production(
            result, context={"scenario": "flap-storm@20", "seed": 1}
        )
        path = bundle.save(str(tmp_path))
        assert path.endswith(f"production-{bundle.sha256[:12]}.run")
        loaded = RunBundle.load(path)
        assert loaded.sha256 == bundle.sha256
        assert loaded.fingerprint == result.fingerprint
        assert loaded.logs() == result.logs

    def test_env_metadata_is_outside_the_hash(self, storm_production):
        _, _, result = storm_production
        a = RunBundle.from_production(result)
        b = RunBundle.from_production(result)
        b.env = {"python": "9.99.9", "platform": "somewhere-else"}
        assert a.sha256 == b.sha256

    def test_embedded_recording_is_replayable(self, storm_production):
        scenario, graph, result = storm_production
        bundle = RunBundle.from_production(result)
        recording = bundle.recording()
        assert recording is not None
        assert recording.spill_bound_us == result.recording.spill_bound_us
        replay = run_ls_replay(graph, recording, ordering=scenario.ordering)
        assert replay.fingerprint == result.fingerprint

    def test_corruption_is_detected(self, storm_production, tmp_path):
        _, _, result = storm_production
        bundle = RunBundle.from_production(result, include_recording=False)
        path = bundle.save(str(tmp_path))
        doc = json.loads(open(path).read())
        doc["run"]["fingerprint"] = "0" * 64
        tampered = tmp_path / "tampered.run"
        tampered.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="corrupt"):
            RunBundle.load(str(tampered))

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == \
            canonical_json(dict([("a", [1, 2]), ("b", 1)]))


class TestTagParsing:
    def test_message_tag_with_pipes_in_payload(self):
        tag = "m|ospf_lsa|n007|n007|10|0|11|265988|('lsa', 'a|b', 2)"
        parsed = parse_tag(tag)
        assert parsed.kind == "msg"
        assert parsed.group == 11
        assert parsed.identity == "n007:10:0"
        assert parsed.fields["payload"] == "('lsa', 'a|b', 2)"

    def test_external_tag(self):
        parsed = parse_tag("e|link_down|('n007', 'n014')|11|0")
        assert parsed.kind == "ext"
        assert parsed.group == 11
        assert parsed.identity == "link_down:0"

    def test_timer_tag_and_late_prefix(self):
        parsed = parse_tag("late:t|hello:n003|7")
        assert parsed.kind == "timer"
        assert parsed.late is True
        assert parsed.group == 7
        assert parsed.identity == "hello:n003"

    def test_junk_rejected(self):
        with pytest.raises(ValueError):
            parse_tag("x|whatever")


class TestDiffEngine:
    def test_identical_logs_have_no_divergence(self):
        logs = {"a": ("t|hello|1", "m|p|b|b|1|0|2|100|'x'")}
        assert diff_logs(logs, dict(logs)) is None

    def test_mis_grouped_flood_pinpoints_group_field(self):
        a = {"n1": ("t|hello|1", "m|ospf|n2|n2|1|0|2|100|('f',)")}
        b = {"n1": ("t|hello|1", "m|ospf|n2|n2|1|0|3|100|('f',)")}
        d = diff_logs(a, b)
        assert d is not None
        assert (d.node, d.step) == ("n1", 1)
        assert d.group == 2  # the smaller side: where the runs split
        assert d.identity == "n2:1:0"
        assert d.field == "group"

    def test_earliest_group_wins_across_nodes(self):
        # node "a" diverges at step 0 but in group 9; node "z" diverges
        # at step 1 in group 3 -- the group-3 split is the cause, the
        # group-9 one is fallout, regardless of node sort order
        a = {"a": ("t|x|9",), "z": ("t|y|1", "t|z|3")}
        b = {"a": ("t|x2|9",), "z": ("t|y|1", "t|z2|3")}
        d = diff_logs(a, b)
        assert d.node == "z" and d.step == 1 and d.group == 3

    def test_prefix_end_divergence(self):
        a = {"n1": ("t|hello|1", "t|hello|2")}
        b = {"n1": ("t|hello|1",)}
        d = diff_logs(a, b)
        assert d.field == "<end>"
        assert d.b_tag is None
        assert d.group == 2

    def test_kind_mismatch(self):
        a = {"n1": ("t|hello|2",)}
        b = {"n1": ("e|link_down|('a', 'b')|2|0",)}
        d = diff_logs(a, b)
        assert d.field == "<kind>"
        assert d.group == 2


class TestDiffCorpus:
    """An injected mis-grouped flood must be pinpointed at its exact
    first step, deterministically."""

    @pytest.fixture(scope="class")
    def divergent_pair(self, storm_production):
        scenario, graph, result = storm_production
        rec = result.recording
        # inject the defect: mis-group the first daemon-observed event
        # (shift its group by one), the exact shape of the chain-delay
        # bug -- traffic attributed to the wrong group phase
        idx = next(
            i for i, ev in enumerate(rec.events) if ev.node != "__net__"
        )
        events = list(rec.events)
        events[idx] = replace(events[idx], group=events[idx].group + 1)
        bad = Recording(
            events=events, drops=rec.drops,
            horizon_group=rec.horizon_group, hop_cost_us=rec.hop_cost_us,
            delay_estimates=rec.delay_estimates,
            spill_bound_us=rec.spill_bound_us,
        )
        replay = run_ls_replay(graph, bad, ordering=scenario.ordering)
        return (
            RunBundle.from_production(result, include_recording=False),
            RunBundle.from_replay(replay),
            events[idx].group - 1,
        )

    def test_diff_halts_at_single_first_divergence(self, divergent_pair):
        prod, rep, injected_group = divergent_pair
        assert prod.fingerprint != rep.fingerprint
        d = diff_bundles(prod, rep)
        assert d is not None
        # the verdict carries the full location: node, step, group,
        # identity and the first differing field
        assert d.node and d.step >= 0
        assert d.group is not None and d.group >= injected_group
        assert d.identity is not None
        assert d.field not in ("<identical>",)
        # and it is stable: same inputs, same verdict
        assert diff_bundles(prod, rep) == d
        text = render_divergence(d)
        assert d.node in text and "first divergence" in text

    def test_diff_cli_round_trip(self, divergent_pair, tmp_path, capsys):
        from repro.cli import main

        prod, rep, _ = divergent_pair
        pa = prod.save(str(tmp_path))
        pb = rep.save(str(tmp_path))
        assert main(["diff", pa, pb]) == 1
        out = capsys.readouterr().out
        assert "first divergence" in out
        assert main(["diff", pa, pa]) == 0
        out = capsys.readouterr().out
        assert "identical" in out


class TestParityGrid:
    def test_hash_lines_are_stable_and_well_formed(self):
        from repro.parity import bundle_hashes

        grid = (("crash-restart", 1, None),)
        first = bundle_hashes(grid)
        assert len(first) == 2  # production + replay
        for line in first:
            name, seed, role, digest = line.split()
            assert name == "crash-restart"
            assert seed == "seed=1"
            assert role in ("production", "replay")
            assert len(digest) == 64 and int(digest, 16) >= 0
        # same grid, same process, byte-identical lines -- the in-process
        # half of what the CI parity job asserts across interpreters
        assert bundle_hashes(grid) == first

    def test_a_custom_daemon_cell_replays_its_own_daemon(self, monkeypatch):
        """``xorp-bgp-med`` runs BGP: its replay bundle must hold the
        execution a BGP replay reproduces (Theorem 1), not an OSPF one."""
        from repro.parity import bundle_hashes

        fingerprints = {}
        for role in ("production", "replay"):
            bundle = getattr(RunBundle, f"from_{role}")

            def capture(result, context=None, _bundle=bundle, _role=role):
                fingerprints[_role] = result.fingerprint
                return _bundle(result, context=context)

            monkeypatch.setattr(RunBundle, f"from_{role}", capture)
        assert len(bundle_hashes((("xorp-bgp-med", 1, None),))) == 2
        assert fingerprints["replay"] == fingerprints["production"]


class TestDivergenceArchiving:
    @pytest.mark.filterwarnings("ignore::repro.core.shim.HistoryWindowWarning")
    def test_divergent_cell_writes_replayable_bundles(self, tmp_path):
        # an undersized window forfeits determinism by construction:
        # the replay check fails, and the cell must leave both sides
        # behind as bundles
        cell = SweepCell(
            "flap-storm@20", seed=1, mode="defined", jitter_us=JITTER_US,
            window_us=400_000, check_invariant=True,
            artifact_dir=str(tmp_path),
        )
        result = run_cell(cell)
        assert result.error is None
        assert result.invariant_ok is False
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == 2
        assert any(n.startswith("production-") for n in names)
        assert any(n.startswith("replay-") for n in names)
        bundles = [RunBundle.load(str(tmp_path / n)) for n in names]
        prod = next(b for b in bundles if b.role == "production")
        rep = next(b for b in bundles if b.role == "replay")
        assert prod.recording() is not None  # replayable
        assert prod.run["context"]["scenario"] == "flap-storm@20"
        d = diff_bundles(prod, rep)
        assert d is not None and d.node

    def test_clean_cell_writes_nothing(self, tmp_path):
        cell = SweepCell(
            "flap-storm@20", seed=1, mode="defined", jitter_us=JITTER_US,
            window_us=WINDOW_US, check_invariant=True,
            artifact_dir=str(tmp_path),
        )
        result = run_cell(cell)
        assert result.invariant_ok is True
        assert list(tmp_path.iterdir()) == []
