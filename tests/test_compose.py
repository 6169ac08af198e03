"""Tests for scenario composition and the boundary-jitter fuzzer."""

from dataclasses import replace

import pytest

import repro.sweep as sweep_mod
from repro.simnet.events import (
    LINK_DOWN,
    NODE_DOWN,
    NODE_UP,
    EventSchedule,
    ExternalEvent,
)
from repro.sweep import (
    CellResult,
    Scenario,
    SweepCell,
    SweepRunner,
    compose,
    default_grid,
    fuzz_grid,
    get_scenario,
    jittered,
    latency_jitter_scenario,
    run_cell,
    scenario_names,
    seed_split,
    shrink_failure,
)


class TestSeedSplit:
    def test_deterministic_and_tag_sensitive(self):
        assert seed_split(7, "a") == seed_split(7, "a")
        assert seed_split(7, "a") != seed_split(7, "b")
        assert seed_split(7, "a") != seed_split(8, "a")
        assert seed_split(7, "a") >= 0


class TestCompose:
    def test_composed_builtins_are_registered(self):
        """The builtin compositions and the jittered variant of every
        builtin (compositions included) are in the default grid, as specs
        the grammar resolves: none of them is registered."""
        grid, registered = default_grid(), scenario_names()
        for spec in (
            "flap-storm+partition", "crash-restart+ddos-overload",
            "flap-storm~j1us", "flap-storm+partition~j1us", "xorp-bgp-med~j1us",
        ):
            assert spec in grid
            assert spec not in registered
            assert get_scenario(spec).name == spec

    def test_mode_intersection_drops_ddos_for_crash_components(self):
        composed = get_scenario("crash-restart+ddos-overload")
        assert composed.modes == ("vanilla", "defined")

    def test_widest_topology_hosts_the_composition(self):
        # latency-jitter runs on the fixed 4-node diamond; flap-storm on
        # an 8-node Waxman graph -- the wider one must win
        composed = compose(get_scenario("latency-jitter"), get_scenario("flap-storm"))
        assert composed.topology(1).node_count() == 8

    def test_schedule_overlays_both_components(self):
        composed = get_scenario("crash-restart+ddos-overload")
        graph = composed.topology(3)
        kinds = set(composed.schedule(graph, 3).kinds())
        assert {NODE_DOWN, NODE_UP} <= kinds  # the crash component
        assert LINK_DOWN in kinds             # the overload component

    def test_composed_schedule_is_seed_deterministic(self):
        composed = get_scenario("flap-storm+partition")
        graph = composed.topology(5)
        assert composed.schedule(graph, 5).sorted() == composed.schedule(graph, 5).sorted()
        assert composed.schedule(graph, 5).sorted() != composed.schedule(graph, 6).sorted()

    def test_expectations_are_anded(self):
        verdicts = {"a": True, "b": True}
        base = latency_jitter_scenario(name="expect-a")
        a = replace(base, name="expect-a", expect=lambda r: verdicts["a"])
        b = replace(base, name="expect-b", expect=lambda r: verdicts["b"])
        composed = compose(a, b)
        assert composed.expect(object()) is True
        verdicts["b"] = False
        assert composed.expect(object()) is False

    def test_degenerate_compositions_rejected(self):
        flap = get_scenario("flap-storm")
        with pytest.raises(ValueError, match="at least two"):
            compose(flap)
        with pytest.raises(ValueError, match="custom daemon"):
            compose(get_scenario("xorp-bgp-med"), flap)
        ro = replace(
            latency_jitter_scenario(name="ro-variant"), ordering="RO"
        )
        with pytest.raises(ValueError, match="ordering"):
            compose(flap, ro)
        ddos_only = replace(
            latency_jitter_scenario(name="ddos-only"), modes=("ddos",)
        )
        with pytest.raises(ValueError, match="no modes"):
            compose(get_scenario("crash-restart"), ddos_only)

    def test_adversarial_knobs_win(self):
        composed = get_scenario("flap-storm+partition")
        flap, part = get_scenario("flap-storm"), get_scenario("partition")
        assert composed.jitter_us == max(flap.jitter_us, part.jitter_us)
        assert composed.settle_us == min(flap.settle_us, part.settle_us)
        assert composed.tail_us == max(flap.tail_us, part.tail_us)


class TestDynamicResolution:
    def test_composed_spec_resolves_without_registration(self):
        scenario = get_scenario("partition+latency-jitter")
        assert scenario.name == "partition+latency-jitter"
        assert "partition+latency-jitter" not in scenario_names()

    def test_resolution_is_cached(self):
        assert get_scenario("partition+latency-jitter") is get_scenario(
            "partition+latency-jitter"
        )

    def test_underscores_normalize_to_hyphens(self):
        # aliases resolve to the canonical composition: the name seeds
        # the RNG streams, so both spellings must yield identical cells
        assert get_scenario("flap_storm+partition").name == "flap-storm+partition"
        assert get_scenario("flap_storm").name == "flap-storm"

    def test_alias_spellings_produce_identical_schedules(self):
        alias = get_scenario("flap_storm+partition~j1us")
        canonical = get_scenario("flap-storm+partition~j1us")
        graph = canonical.topology(3)
        assert alias.schedule(graph, 3).sorted() == canonical.schedule(graph, 3).sorted()

    def test_jitter_suffix_applies_to_whole_composition(self):
        scenario = get_scenario("flap-storm+partition~j2us")
        assert scenario.name == "flap-storm+partition~j2us"
        assert "snapped to beacon-group" in scenario.description

    def test_unknown_component_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("flap-storm+heat-death")

    def test_canonical_scenario_name(self):
        from repro.sweep import canonical_scenario_name

        assert canonical_scenario_name("flap_storm+partition~j2us") == (
            "flap-storm+partition~j2us"
        )
        assert canonical_scenario_name("flap-storm") == "flap-storm"
        # unresolvable parts pass through so lookup errors stay intact
        assert canonical_scenario_name("heat_death") == "heat_death"


class TestPerComponentJitter:
    """``a~j1us+b~j5us`` jitters each component *before* the merge;
    whole-composition jitter keeps its trailing-suffix spelling (or the
    explicit paren form); stacked suffixes are parse errors."""

    def test_each_component_gets_its_own_jitter(self):
        scenario = get_scenario("flap-storm~j1us+partition~j5us")
        assert scenario.name == "flap-storm~j1us+partition~j5us"
        graph = scenario.topology(3)
        merged = scenario.schedule(graph, 3).sorted()
        # the merged schedule is the union of the two jittered component
        # schedules, each run on its seed-split stream -- i.e. jitter
        # applied per component before the merge, not once after it
        comp_a = get_scenario("flap-storm~j1us")
        comp_b = get_scenario("partition~j5us")
        split_a = sweep_mod.seed_split(
            3, "flap-storm~j1us+partition~j5us#0:flap-storm~j1us")
        split_b = sweep_mod.seed_split(
            3, "flap-storm~j1us+partition~j5us#1:partition~j5us")
        expected = comp_a.schedule(graph, split_a).merged(
            comp_b.schedule(graph, split_b)
        ).sorted()
        assert merged == expected

    def test_trailing_suffix_stays_whole_composition(self):
        # back-compat: with no per-component jitter anywhere, a trailing
        # suffix means what it always did
        scenario = get_scenario("flap-storm+partition~j2us")
        assert scenario.name == "flap-storm+partition~j2us"

    def test_mixed_form_binds_trailing_jitter_to_final_component(self):
        scenario = get_scenario("flap-storm~j1us+partition~j5us")
        paren = get_scenario("(flap-storm~j1us+partition)~j5us")
        assert paren.name == "(flap-storm~j1us+partition)~j5us"
        assert scenario.name != paren.name  # different scenarios

    def test_paren_spelling_is_whole_composition_jitter(self):
        plain = get_scenario("(flap-storm+partition)~j2us")
        # without inner jitter the parens are redundant: same scenario
        assert plain is get_scenario("flap-storm+partition~j2us") or (
            plain.name == "flap-storm+partition~j2us"
        )

    @pytest.mark.parametrize("bad", [
        "(flap-storm+partition)~j1us~j2us",
        "flap-storm~j1us~j2us",
        "flap-storm+partition~j1us~j2us",
    ])
    def test_stacked_jitter_suffixes_rejected(self, bad):
        with pytest.raises(ValueError, match="stacks more than one"):
            get_scenario(bad)

    def test_sized_spec_closes_the_grammar_under_sizes(self):
        from repro.sweep import sized_spec

        spec = sized_spec("flap-storm~j1us+partition", 20)
        assert spec == "flap-storm@20~j1us+partition@20"
        assert get_scenario(spec).name == spec

    def test_per_component_jitter_cell_upholds_theorem1(self):
        result = run_cell(SweepCell(
            "latency-jitter~j1us+partition~j3us", seed=2, mode="defined"))
        assert result.error is None
        assert result.invariant_ok is True


class TestJittered:
    def test_jittered_schedule_lands_on_boundaries(self):
        scenario = get_scenario("flap-storm~j1us")
        graph = scenario.topology(4)
        for event in scenario.schedule(graph, 4):
            phase = event.time_us % 250_000
            distance = min(phase, 250_000 - phase)
            # the per-target anti-inversion clamp can nudge past the
            # jitter window by a few microseconds at most
            assert distance <= 1 + 4

    def test_jittered_preserves_daemon_and_modes(self):
        base = get_scenario("xorp-bgp-med")
        fuzzed = get_scenario("xorp-bgp-med~j1us")
        assert fuzzed.daemon is base.daemon
        assert fuzzed.modes == base.modes

    def test_jittered_cell_upholds_theorem1(self):
        result = run_cell(SweepCell("latency-jitter~j1us", seed=3, mode="defined"))
        assert result.error is None
        assert result.invariant_ok is True


class TestDdosRestart:
    """DdosStack now rejoins at the current group, so crash/restart
    schedules run under the ddos mode instead of being refused."""

    def test_crash_schedule_under_ddos_mode_runs(self):
        result = run_cell(SweepCell("crash-restart", seed=1, mode="ddos"))
        assert result.error is None
        assert result.ok

    def test_composed_crash_under_ddos_mode_runs(self):
        result = run_cell(
            SweepCell("crash-restart+ddos-overload", seed=1, mode="ddos")
        )
        assert result.error is None

    def test_link_only_schedules_still_run_under_ddos(self):
        result = run_cell(SweepCell("ddos-overload~j1us", seed=1, mode="ddos"))
        assert result.error is None

    def test_rejoin_is_at_current_group_not_zero(self):
        from repro.sweep import get_scenario
        from repro.harness import run_production

        scenario = get_scenario("crash-restart")
        graph = scenario.topology(1)
        schedule = scenario.schedule(graph, 1)
        result = run_production(
            graph,
            schedule,
            mode="ddos",
            seed=1,
            jitter_us=scenario.jitter_us,
            ordering=scenario.ordering,
            settle_us=scenario.settle_us,
            tail_us=scenario.tail_us,
        )
        # every post-restart delivery at the victim is tagged with the
        # rejoin group, not group 0: a time-0 reboot would re-log startup
        # timers as "t|...|0" a second time
        victims = {
            ev.target for ev in schedule.events if ev.kind == "node_up"
        }
        assert victims
        for victim in victims:
            log = result.logs[victim]
            starts = [i for i, tag in enumerate(log) if tag.endswith("|0")
                      and tag.startswith("t|")]
            # timer tags for group 0 must all precede the first crash --
            # i.e. appear only in one contiguous startup prefix
            if starts:
                assert starts == list(range(starts[0], starts[0] + len(starts)))


def _fuzz(scenarios, seeds, jitters_us):
    """``repro fuzz``'s grid: the jittered specs on a one-mode sweep."""
    return SweepRunner(
        fuzz_grid(scenarios, jitters_us), seeds, modes=("defined",)
    ).run()


def _triple(minimized):
    return minimized["scenario"], minimized["seed"], minimized["jitter_us"]


class TestFuzz:
    def test_validation(self):
        with pytest.raises(KeyError):
            fuzz_grid(["heat-death"])
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            SweepRunner(["flap-storm"], modes=["bogus"])
        with pytest.raises(ValueError, match="negative"):
            fuzz_grid(["flap-storm"], jitters_us=(-1,))
        with pytest.raises(ValueError, match="workers"):
            SweepRunner(fuzz_grid(["flap-storm"]), modes=("defined",), workers=0)

    def test_any_known_mode_fuzzes(self, tmp_path, capsys):
        """A scenario's modes are its defaults, not a limit: ``repro
        fuzz --mode ddos`` runs a scenario that lists only vanilla and
        defined."""
        import json

        from repro.cli import main

        out = tmp_path / "fuzz.json"
        assert main([
            "fuzz", "--scenarios", "flap-storm", "--mode", "ddos",
            "--seeds", "1", "--jitters-us", "0,1", "--report-out", str(out),
        ]) == 0
        assert "fuzzing 2 cells" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["grid_cells"] == payload["coverage"]["completed"] == 2
        # the semantic digest is the 2-cell ddos sweep's
        assert payload["semantic_digest"] == SweepRunner(
            ["flap-storm~j0us", "flap-storm~j1us"], (1,), modes=("ddos",)
        ).run().semantic_digest()
        assert get_scenario("flap-storm").modes == ("vanilla", "defined")
        with pytest.raises(SystemExit, match="unknown mode 'bogus'"):
            main(["fuzz", "--scenarios", "flap-storm", "--mode", "bogus"])

    def test_default_catalogue_excludes_prejittered_builtins(self):
        # the default grid's '*~j1us' specs fold onto their bases
        assert fuzz_grid(jitters_us=(0,)) == [
            f"{name}~j0us" for name in default_grid() if "~" not in name
        ]
        assert "flap-storm~j0us" in fuzz_grid(jitters_us=(0,))

    def test_prejittered_names_are_stripped_not_double_jittered(self):
        # the grid owns the jitter axis: a registered '*~j1us' variant
        # must not produce 'a~j1us~j0us' grid names (unresolvable)
        assert fuzz_grid(
            ["latency-jitter~j2us", "latency-jitter"], jitters_us=(0,)
        ) == ["latency-jitter~j0us"]

    def test_grid_is_base_major_over_sorted_unique_jitters(self):
        assert fuzz_grid(["flap_storm", "partition"], jitters_us=(2, 0, 2)) == [
            "flap-storm~j0us", "flap-storm~j2us",
            "partition~j0us", "partition~j2us",
        ]

    def test_small_real_grid_is_green(self):
        report = _fuzz(["latency-jitter"], (1, 2), (0, 1))
        assert report.ok(), report.render()
        assert shrink_failure(report) is None
        assert len(report.cells) == 4
        assert "verdict: OK" in report.render()
        payload = report.to_dict()
        assert payload["ok"] is True and payload["theorem1_violations"] == []

    def _patched_run_cell(self, failing):
        """A fake run_cell failing exactly when ``failing(base, seed, j)``."""

        def fake(cell):
            base, jitter = sweep_mod._Spec.fuzz_axes(cell.scenario)
            bad = failing(base, cell.seed, jitter)
            return CellResult(
                scenario=cell.scenario,
                seed=cell.seed,
                mode=cell.mode,
                fingerprint=f"fp-{cell.scenario}-{cell.seed}",
                invariant_ok=not bad,
            )

        return fake

    def test_minimizer_shrinks_to_smallest_failing_triple(self, monkeypatch):
        monkeypatch.setattr(
            sweep_mod, "run_cell",
            self._patched_run_cell(lambda base, seed, j: j >= 3),
        )
        report = _fuzz(["flap-storm"], (1, 2), (0, 2, 4, 8))
        assert not report.ok()
        minimized = shrink_failure(report)
        # grid failures at 4 and 8; binary search must land on true min 3
        assert _triple(minimized) == ("flap-storm", 1, 3)
        assert minimized["shrink_runs"] > 0

    def test_minimizer_shrinks_seed_after_jitter(self, monkeypatch):
        monkeypatch.setattr(
            sweep_mod, "run_cell",
            self._patched_run_cell(
                lambda base, seed, j: j >= 3 and seed >= 2
            ),
        )
        report = _fuzz(["flap-storm"], (1, 2, 3), (0, 4))
        assert _triple(shrink_failure(report)) == ("flap-storm", 2, 3)
