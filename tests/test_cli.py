"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import load_topology, main


class TestLoadTopology:
    def test_rocketfuel_names(self):
        assert load_topology("ebone", 0, 0).node_count() == 25

    def test_synthetic_generators(self):
        assert load_topology("waxman", 20, 1).node_count() == 20
        assert load_topology("ba", 20, 1).node_count() == 20

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            load_topology("arpanet", 10, 0)


class TestCommands:
    def test_production_vanilla(self, capsys):
        rc = main([
            "production", "--topology", "waxman", "--size", "10",
            "--events", "2", "--mode", "vanilla", "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "production run (vanilla)" in out
        assert "mean convergence" in out

    def test_production_defined_writes_recording(self, tmp_path, capsys):
        path = str(tmp_path / "run.recording.json")
        rc = main([
            "production", "--topology", "waxman", "--size", "10",
            "--events", "2", "--mode", "defined", "--seed", "1",
            "--recording-out", path,
        ])
        assert rc == 0
        assert "recording written" in capsys.readouterr().out

        rc = main([
            "replay", "--topology", "waxman", "--size", "10",
            "--recording", path,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lockstep replay" in out
        # replay work is attributable from the CLI: executed >= committed
        executed, committed = re.search(
            r"deliveries executed / committed\s+(\d+) / (\d+)", out
        ).groups()
        assert int(executed) >= int(committed) > 0
        assert "engine events per committed delivery" in out

    def test_debug_network_is_the_replay_network(self, tmp_path, monkeypatch):
        """``repro debug`` and ``repro replay`` step one recording on the
        same debugging network: the same nodes and link delay models."""
        import repro.repl
        from repro.core.recorder import Recording
        from repro.harness import run_ls_replay

        path = str(tmp_path / "run.recording.json")
        topology = ["--topology", "waxman", "--size", "10"]
        assert main([
            "production", *topology, "--events", "2", "--mode", "defined",
            "--recording-out", path,
        ]) == 0
        consoles = []

        class Console:
            def __init__(self, debugger):
                consoles.append(debugger)

            def loop(self):
                pass

        monkeypatch.setattr(repro.repl, "DebugConsole", Console)
        assert main(["debug", *topology, "--recording", path]) == 0
        debug_net = consoles[0].coordinator.network
        replay_net = run_ls_replay(
            load_topology("waxman", 10, 1), Recording.load(path)
        ).network

        def link_models(net):
            return {
                (a, b): net.route(a, b).model
                for link in net.links.values()
                for a, b in ((link.a, link.b), (link.b, link.a))
            }

        assert debug_net.node_ids() == replay_net.node_ids()
        assert link_models(debug_net) == link_models(replay_net)

    def test_recording_out_requires_defined(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "production", "--topology", "waxman", "--size", "10",
                "--events", "2", "--mode", "vanilla",
                "--recording-out", str(tmp_path / "x.json"),
            ])

    def test_casestudy_bgp(self, capsys):
        rc = main(["casestudy", "bgp"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "XORP" in out and "best path" in out

    def test_sweep_list(self, capsys):
        rc = main(["sweep", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flap-storm" in out and "xorp-bgp-med" in out
        # the default grid's compositions and jittered specs are listed
        assert "flap-storm+partition" in out
        assert "crash-restart+ddos-overload" in out
        assert "flap-storm~j1us" in out

    def test_sweep_small_grid(self, capsys):
        rc = main([
            "sweep", "--scenarios", "xorp-bgp-med,latency-jitter",
            "--seeds", "1,2", "--workers", "1", "--verbose",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out
        assert "theorem1" in out

    def test_sweep_list_includes_size_variants(self, capsys):
        """``--list`` prints the default grid, which holds no size
        variant, plus one line saying how to size a fault family."""
        rc = main(["sweep", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "as name@N" in out and "flap-storm@40" in out
        rows = [line for line in out.splitlines() if "  vanilla," in line]
        assert len(rows) == 18
        assert not [row for row in rows if "@" in row.split()[0]]

    def test_sweep_repeats_with_report_out(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "grid.json"
        rc = main([
            "sweep", "--scenarios", "latency-jitter", "--modes", "defined",
            "--seeds", "1", "--repeats", "3",
            "--report-out", str(report_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "x 3 jitter-seed repeat(s)" in out
        assert "verdict: OK" in out
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["repeats"] == 3
        assert payload["invariance_splits"] == []

    def test_sweep_sizes_flag_rescales_selection(self, capsys):
        rc = main([
            "sweep", "--scenarios", "latency-jitter", "--sizes", "12",
            "--modes", "defined", "--seeds", "1", "--verbose",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "latency-jitter@12/defined" in out
        assert "verdict: OK" in out

    def test_scale_sweep_still_works(self, capsys):
        rc = main(["scale", "--sizes", "12", "--events", "2"])
        assert rc == 0
        assert "convergence time" in capsys.readouterr().out

    def test_sweep_compose_with_boundary_jitter(self, capsys):
        # --boundary-jitter-us wraps a composition in the fuzzer variant
        rc = main([
            "sweep", "--scenarios", "latency-jitter+ddos-overload",
            "--boundary-jitter-us", "1", "--seeds", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "latency-jitter+ddos-overload~j1us" in out
        assert "verdict: OK" in out

    def test_boundary_jitter_rewraps_and_dedupes_prejittered_names(self, capsys):
        # 'latency-jitter' and the registered 'latency-jitter~j1us' must
        # collapse to ONE grid entry at the requested magnitude, not run
        # twice (nor keep a stale 1us magnitude)
        rc = main([
            "sweep", "--scenarios", "latency-jitter,latency-jitter~j1us",
            "--boundary-jitter-us", "2", "--seeds", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sweeping 2 cells (1 scenario(s)" in out
        assert "latency-jitter~j2us" in out

    def test_explicit_scenarios_all_keeps_catalogue_alongside_compose(self):
        from repro.cli import build_parser
        from repro.sweep import default_grid

        # regression: an "all" item must not be silently narrowed to
        # just the compositions named beside it
        args = build_parser().parse_args([
            "sweep",
            "--scenarios", "all,flap_storm+partition,latency-jitter+ddos-overload",
            "--seeds", "1",
        ])

        import repro.cli as cli_mod

        captured = {}

        class FakeRunner:
            def __init__(self, scenarios=None, **kwargs):
                captured["names"] = scenarios
                raise SystemExit(0)

        import repro.sweep as sweep_mod
        original = sweep_mod.SweepRunner
        sweep_mod.SweepRunner = FakeRunner
        try:
            with pytest.raises(SystemExit):
                cli_mod.cmd_sweep(args)
        finally:
            sweep_mod.SweepRunner = original
        # "all" covers the whole default grid; @N size variants are an
        # explicit opt-in (an 80-node cell runs for minutes)
        assert set(default_grid()) <= set(captured["names"])
        assert not [n for n in captured["names"] if "@" in n]
        assert "latency-jitter+ddos-overload" in captured["names"]
        # 'flap-storm+partition' is both registered and a compose spec
        # (given in its underscore spelling, even): it must appear
        # exactly once, canonically, not run its cells twice
        assert captured["names"].count("flap-storm+partition") == 1
        assert "flap_storm+partition" not in captured["names"]

    def test_sweep_compose_rejects_unknown_component(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--scenarios", "latency-jitter+heat-death",
                  "--seeds", "1"])

    @pytest.mark.parametrize("argv, error", [
        (["sweep", "--transport", "futures", "--seeds", "1"], "unrecognized arguments"),
        (["production", "--snapshots", "deepcopy"], "unrecognized arguments"),
        (["sweep", "--snapshots", "cow"], "unrecognized arguments"),
        (["bench"], "invalid choice"),
        (["bench", "--baseline", "BENCH_5.json"], "invalid choice"),
        (["lint", "--strict", "src/repro"], "unrecognized arguments"),
        (["lint", "--baseline", "x.json", "src/repro"], "unrecognized arguments"),
        (["lint", "--write-baseline", "src/repro"], "unrecognized arguments"),
        (["sweep", "--compose", "flap-storm+partition"], "unrecognized arguments"),
        (["sweep", "--scenario-file", "examples/clock_skew_storm.yaml"],
         "unrecognized arguments"),
    ])
    def test_retired_flags_are_errors_not_ignored(self, argv, error, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert error in capsys.readouterr().err

    def test_sweep_and_envelope_share_the_supervision_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        for command in (["sweep"], ["envelope", "--scenarios", "flap-storm"]):
            args = parser.parse_args(command)
            assert (args.cell_timeout, args.retries) == (None, None)
            args = parser.parse_args(
                command + ["--cell-timeout", "2.5", "--retries", "0"]
            )
            assert (args.cell_timeout, args.retries) == (2.5, 0)

    def test_fuzz_small_grid_writes_report(self, tmp_path, capsys):
        from repro.sweep import SweepRunner

        report_path = tmp_path / "fuzz.json"
        rc = main([
            "fuzz", "--scenarios", "latency-jitter", "--seeds", "1",
            "--jitters-us", "0,1", "--report-out", str(report_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fuzzing 2 cells" in out
        assert "latency-jitter~j1us" in out
        assert "verdict: OK" in out

        import json

        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["minimized"] is None
        assert payload["coverage"]["completed"] == payload["grid_cells"] == 2
        # the fuzz report is the sweep report of its jittered grid
        assert payload["semantic_digest"] == SweepRunner(
            ["latency-jitter~j0us", "latency-jitter~j1us"],
            seeds=(1,), modes=("defined",),
        ).run().semantic_digest()

    def test_fuzz_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--scenarios", "heat-death", "--seeds", "1"])

    @staticmethod
    def _fail_from_jitter(monkeypatch, least):
        """Make every fuzz cell with ``least`` us of jitter or more fail
        Theorem 1, without simulating."""
        import repro.sweep as sweep_mod

        def fake_run_cell(cell):
            jitter = sweep_mod._Spec.fuzz_axes(cell.scenario)[1]
            return sweep_mod.CellResult(
                scenario=cell.scenario, seed=cell.seed, mode=cell.mode,
                fingerprint="fp", invariant_ok=jitter < least,
            )

        monkeypatch.setattr(sweep_mod, "run_cell", fake_run_cell)

    def test_fuzz_minimizes_and_reports_failures(
        self, tmp_path, capsys, monkeypatch
    ):
        self._fail_from_jitter(monkeypatch, 3)
        report_path = tmp_path / "fuzz.json"
        rc = main([
            "fuzz", "--scenarios", "flap-storm", "--seeds", "1,2",
            "--jitters-us", "0,4", "--report-out", str(report_path),
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "verdict: FAILED -- Theorem-1 violations: 2" in out
        assert (
            "minimized: scenario='flap-storm' seed=1 jitter_us=3 (after 2 "
            "shrink runs); reproduce with "
            "run_cell(SweepCell('flap-storm~j3us', 1, 'defined'))"
        ) in out

        import json

        payload = json.loads(report_path.read_text())
        assert payload["ok"] is False
        assert payload["minimized"] == {
            "scenario": "flap-storm", "seed": 1, "jitter_us": 3,
            "shrink_runs": 2,
        }
        assert [
            (row["scenario"], row["seed"])
            for row in payload["theorem1_violations"]
        ] == [("flap-storm~j4us", 1), ("flap-storm~j4us", 2)]

    def test_fuzz_fails_a_ddos_ordering_miss(self, tmp_path, monkeypatch, capsys):
        # the fuzz verdict is the sweep's, which counts ddos late
        # deliveries, and the shrink counts them as failures too
        import json

        import repro.sweep as sweep_mod

        def late_run_cell(cell):
            return sweep_mod.CellResult(
                scenario=cell.scenario, seed=cell.seed, mode=cell.mode,
                fingerprint="fp", late_deliveries=int(cell.seed > 1),
            )

        monkeypatch.setattr(sweep_mod, "run_cell", late_run_cell)
        report_path = tmp_path / "fuzz.json"
        assert main([
            "fuzz", "--scenarios", "ddos-overload", "--seeds", "1,2",
            "--jitters-us", "0", "--mode", "ddos",
            "--report-out", str(report_path),
        ]) == 1
        out = capsys.readouterr().out
        assert "ordering misses (ddos): 1" in out
        assert (
            "minimized: scenario='ddos-overload' seed=2 jitter_us=0 "
            "(after 1 shrink runs); reproduce with "
            "run_cell(SweepCell('ddos-overload~j0us', 2, 'ddos'))"
        ) in out
        assert json.loads(report_path.read_text())["minimized"] == {
            "scenario": "ddos-overload", "seed": 2, "jitter_us": 0,
            "shrink_runs": 1,
        }

    def test_fuzz_minimize_can_be_disabled(self, tmp_path, capsys, monkeypatch):
        self._fail_from_jitter(monkeypatch, 1)
        report_path = tmp_path / "fuzz.json"
        rc = main([
            "fuzz", "--scenarios", "flap-storm", "--seeds", "1",
            "--jitters-us", "0,1", "--no-minimize",
            "--report-out", str(report_path),
        ])
        assert rc == 1
        assert "minimized" not in capsys.readouterr().out

        import json

        assert json.loads(report_path.read_text())["minimized"] is None


class _GridCaptured(Exception):
    """Carries the cells a ``repro sweep`` invocation would run."""


def _sweep_grid(monkeypatch, *argv):
    """The ``(scenario, seed, mode)`` cells ``repro sweep argv`` builds,
    captured at ``SweepRunner.run`` instead of running them."""
    from repro.sweep import SweepRunner

    def run(self, progress=None):
        raise _GridCaptured([(c.scenario, c.seed, c.mode) for c in self.grid()])

    monkeypatch.setattr(SweepRunner, "run", run)
    with pytest.raises(_GridCaptured) as captured:
        main(["sweep", *argv, "--seeds", "1", "--modes", "vanilla"])
    return captured.value.args[0]


CLOCK_SKEW_FILE = "examples/clock_skew_storm.yaml"
#: The composition and the chaos file, one vanilla cell each.
COMPOSE_AND_FILE_GRID = [
    ("flap-storm+partition", 1, "vanilla"),
    (CLOCK_SKEW_FILE, 1, "vanilla"),
]
#: The default grid, one vanilla cell per spec, then the chaos file.
DEFAULT_GRID_AND_FILE = [
    (spec, 1, "vanilla")
    for spec in (
        "crash-restart", "crash-restart+ddos-overload",
        "crash-restart+ddos-overload~j1us", "crash-restart~j1us",
        "ddos-overload", "ddos-overload~j1us",
        "flap-storm", "flap-storm+partition", "flap-storm+partition~j1us",
        "flap-storm~j1us", "latency-jitter", "latency-jitter~j1us",
        "partition", "partition~j1us",
        "quagga-rip-blackhole", "quagga-rip-blackhole~j1us",
        "xorp-bgp-med", "xorp-bgp-med~j1us",
        CLOCK_SKEW_FILE,
    )
]


class TestSweepGridSelection:
    """``--scenarios`` alone names every grid: compositions, chaos files
    and the default grid."""

    def test_scenarios_cover_compositions_and_files(self, monkeypatch):
        grid = _sweep_grid(
            monkeypatch, "--scenarios", f"flap-storm+partition,{CLOCK_SKEW_FILE}"
        )
        assert grid == COMPOSE_AND_FILE_GRID

    def test_default_grid_plus_a_file(self, monkeypatch):
        grid = _sweep_grid(monkeypatch, "--scenarios", f"all,{CLOCK_SKEW_FILE}")
        assert grid == DEFAULT_GRID_AND_FILE

    def test_default_is_the_default_grid(self, monkeypatch):
        assert _sweep_grid(monkeypatch) == DEFAULT_GRID_AND_FILE[:-1]


#: Every option of the three grid commands: option strings, destination,
#: default, type and whether it is required.  Regrouping the flags must
#: leave this unchanged.
GRID_COMMAND_OPTIONS = {
    "sweep": [
        (("--artifact-out",), "artifact_out", None, None, False),
        (("--boundary-jitter-us",), "boundary_jitter_us", None, "int", False),
        (("--cell-timeout",), "cell_timeout", None, "float", False),
        (("--journal",), "journal", None, None, False),
        (("--list",), "list", False, None, False),
        (("--modes",), "modes", None, None, False),
        (("--repeats",), "repeats", 1, "int", False),
        (("--report-out",), "report_out", None, None, False),
        (("--resume",), "resume", None, None, False),
        (("--retries",), "retries", None, "int", False),
        (("--scenarios",), "scenarios", None, None, False),
        (("--seeds",), "seeds", "1,2,3", None, False),
        (("--sizes",), "sizes", None, None, False),
        (("--verbose",), "verbose", False, None, False),
        (("--workers",), "workers", 1, "int", False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, False),
    ],
    "fuzz": [
        (("--jitters-us",), "jitters_us", "0,1,2,5", None, False),
        (("--mode",), "mode", "defined", None, False),
        (("--no-minimize",), "no_minimize", False, None, False),
        (("--report-out",), "report_out", None, None, False),
        (("--scenarios",), "scenarios", "all", None, False),
        (("--seeds",), "seeds", "1,2,3,4", None, False),
        (("--verbose",), "verbose", False, None, False),
        (("--workers",), "workers", 1, "int", False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, False),
    ],
    "envelope": [
        (("--artifact-out",), "artifact_out", None, None, False),
        (("--boundary-jitter-us",), "boundary_jitter_us", None, "int", False),
        (("--cell-timeout",), "cell_timeout", None, "float", False),
        (("--jitters",), "jitters", "0,50,300", None, False),
        (("--margin",), "margin", 0.25, "float", False),
        (("--report-out",), "report_out", None, None, False),
        (("--retries",), "retries", None, "int", False),
        (("--scenarios",), "scenarios", None, None, True),
        (("--seeds",), "seeds", "1", None, False),
        (("--sizes",), "sizes", None, None, False),
        (("--suggest",), "suggest", False, None, False),
        (("--target-quantile",), "target_quantile", 0.99, "float", False),
        (("--verbose",), "verbose", False, None, False),
        (("--windows",), "windows", "auto", None, False),
        (("--workers",), "workers", 1, "int", False),
        (("-h", "--help"), "help", "==SUPPRESS==", None, False),
    ],
}


@pytest.mark.parametrize("command", sorted(GRID_COMMAND_OPTIONS))
def test_grid_command_options_are_unchanged(command):
    import argparse

    from repro.cli import build_parser

    sub = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = sorted(
        (
            tuple(action.option_strings),
            action.dest,
            action.default,
            getattr(action.type, "__name__", None),
            action.required,
        )
        for action in sub.choices[command]._actions
    )
    assert options == GRID_COMMAND_OPTIONS[command]
