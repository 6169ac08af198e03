"""Tests for the scenario-sweep subsystem (:mod:`repro.sweep`)."""

import os

import pytest

from _fixtures import resolved_names, square_graph
from _golden import assert_rows

from repro.scenarios import BUILTINS
from repro.simnet.engine import SECOND
from repro.simnet.events import LINK_DOWN, LINK_UP, NODE_DOWN, NODE_UP
from repro.sweep import (
    SweepCell,
    SweepRunner,
    canonical_scenario_name,
    default_grid,
    crash_restart_schedule,
    ddos_overload_schedule,
    flap_storm_schedule,
    get_scenario,
    partition_schedule,
    run_cell,
    scenario_names,
)

GOLDEN_DEFAULT_GRID = os.path.join(
    os.path.dirname(__file__), "golden", "default-grid-seed1.jsonl"
)
#: The fields that identify a cell's row in a golden grid file.
CELL_ROW_KEY = (
    "scenario", "seed", "mode", "repeat", "jitter_seed", "window_us", "jitter_us",
)


class TestRegistry:
    def test_builtin_catalogue(self):
        names = scenario_names()
        assert len(names) >= 5
        for expected in (
            "flap-storm", "crash-restart", "partition", "latency-jitter",
            "ddos-overload", "xorp-bgp-med", "quagga-rip-blackhole",
        ):
            assert expected in names

    def test_names_are_the_constant_catalogue(self):
        assert scenario_names() == sorted(s.name for s in BUILTINS)

    @pytest.mark.parametrize("builtin", BUILTINS, ids=lambda s: s.name)
    def test_builtin_name_resolves_to_its_catalogue_entry(self, builtin):
        assert get_scenario(builtin.name) is builtin
        assert canonical_scenario_name(builtin.name) == builtin.name

    def test_lookup_returns_descriptor(self):
        scenario = get_scenario("flap-storm")
        assert scenario.name == "flap-storm"
        assert "defined" in scenario.modes

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("heat-death")

    def test_runner_rejects_unknown_scenario(self):
        with pytest.raises(KeyError):
            SweepRunner(scenarios=["heat-death"])


class TestFaultGenerators:
    def test_flap_storm_is_seed_deterministic_and_heals(self, square):
        a = flap_storm_schedule(square, seed=7)
        b = flap_storm_schedule(square, seed=7)
        assert a.sorted() == b.sorted()
        assert flap_storm_schedule(square, seed=8).sorted() != a.sorted()
        downs = [e for e in a if e.kind == LINK_DOWN]
        ups = [e for e in a if e.kind == LINK_UP]
        assert len(downs) == len(ups) == 4
        # every flapped link comes back up
        assert sorted(e.target for e in downs) == sorted(e.target for e in ups)

    def test_crash_restart_pairs_down_with_up(self, square):
        schedule = crash_restart_schedule(square, seed=3, n_crashes=2)
        downs = [e for e in schedule if e.kind == NODE_DOWN]
        ups = [e for e in schedule if e.kind == NODE_UP]
        assert len(downs) == len(ups) == 2
        for down, up in zip(downs, ups):
            assert down.target == up.target
            assert up.time_us > down.time_us
        assert schedule.sorted() == crash_restart_schedule(
            square, seed=3, n_crashes=2
        ).sorted()

    def test_partition_cuts_and_heals_a_bipartition(self, square):
        schedule = partition_schedule(square, seed=5)
        downs = {e.target for e in schedule if e.kind == LINK_DOWN}
        ups = {e.target for e in schedule if e.kind == LINK_UP}
        assert downs == ups and downs
        # removing the downed links must disconnect the graph
        remaining = [
            (a, b, d) for a, b, d in square.edges if (a, b) not in downs
        ]
        from repro.topology import TopologyGraph

        cut = TopologyGraph(name="cut", nodes=square.nodes, edges=remaining)
        assert not cut.is_connected()
        assert schedule.sorted() == partition_schedule(square, seed=5).sorted()

    def test_ddos_overload_respects_rate(self, square):
        schedule = ddos_overload_schedule(
            square, seed=2, events_per_second=8, n_events=8
        )
        events = schedule.sorted()
        assert len(events) >= 8
        gaps = [
            b.time_us - a.time_us for a, b in zip(events, events[1:])
        ]
        assert all(gap == SECOND // 8 for gap in gaps)
        assert schedule.sorted() == ddos_overload_schedule(
            square, seed=2, events_per_second=8, n_events=8
        ).sorted()

    def test_generators_reject_degenerate_topologies(self):
        from repro.topology import TopologyGraph

        lonely = TopologyGraph(name="lonely", nodes=["x"], edges=[])
        with pytest.raises(ValueError):
            flap_storm_schedule(lonely, seed=1)
        with pytest.raises(ValueError):
            partition_schedule(lonely, seed=1)


class TestRunCell:
    def test_defined_cell_upholds_theorem1(self):
        result = run_cell(SweepCell("latency-jitter", seed=2, mode="defined"))
        assert result.error is None
        assert result.invariant_ok is True
        assert result.replay_fingerprint == result.fingerprint

    def test_same_cell_twice_is_bit_identical(self):
        cell = SweepCell("flap-storm", seed=4, mode="defined")
        a, b = run_cell(cell), run_cell(cell)
        assert a.error is None and b.error is None
        assert a.fingerprint == b.fingerprint
        assert a.replay_fingerprint == b.replay_fingerprint
        assert a.rollbacks == b.rollbacks

    def test_vanilla_cell_runs_without_invariant(self):
        result = run_cell(SweepCell("flap-storm", seed=4, mode="vanilla"))
        assert result.error is None
        assert result.invariant_ok is None
        assert result.deliveries > 0

    def test_errors_are_captured_not_raised(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text(
            "schema: chaos/v1\n"
            "name: broken-test\n"
            "topology: {family: diamond}\n"
            "events:\n"
            "  - kind: flap_storm\n"
            "    links: [[a, c]]\n"
        )
        result = run_cell(SweepCell(str(path), seed=1, mode="vanilla"))
        assert result.ok is False
        assert result.error is not None and "not in diamond" in result.error


class TestSweepRunner:
    def test_grid_covers_scenarios_seeds_and_modes(self):
        runner = SweepRunner(
            scenarios=["ddos-overload", "flap-storm"], seeds=(1, 2)
        )
        grid = runner.grid()
        # ddos-overload runs three modes, flap-storm two
        assert len(grid) == 2 * 3 + 2 * 2
        assert len(set(grid)) == len(grid)

    def test_serial_report_checks_out(self):
        report = SweepRunner(
            scenarios=["latency-jitter", "xorp-bgp-med"], seeds=(1, 2)
        ).run()
        assert report.ok(), report.render()
        assert not report.invariant_violations()
        # seed-invariance of DEFINED-RB on a fixed workload: one
        # fingerprint across seeds, while vanilla diverges
        assert report.distinct_fingerprints("xorp-bgp-med", "defined") == 1
        assert report.distinct_fingerprints("xorp-bgp-med", "vanilla") == 2

    def test_parallel_equals_serial(self):
        kwargs = dict(scenarios=["latency-jitter", "quagga-rip-blackhole"], seeds=(1, 2))
        serial = SweepRunner(workers=1, **kwargs).run()
        parallel = SweepRunner(workers=2, **kwargs).run()
        assert parallel.ok(), parallel.render()
        assert serial.fingerprint_index() == parallel.fingerprint_index()

    def test_repeats_probe_seed_invariance(self):
        report = SweepRunner(
            scenarios=["latency-jitter"], seeds=(1,), repeats=2
        ).run()
        # the repeats axis varies the *jitter* seed; deterministic modes
        # must still collapse to one fingerprint per (scenario, seed)
        assert report.invariance_splits() == []
        assert len(report.cells) == 4  # 2 modes x 2 repeats
        defined = [c for c in report.cells if c.mode == "defined"]
        assert {c.network_seed_label for c in defined} != {1}
        assert len({c.fingerprint for c in defined}) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_builtin_scenario_upholds_theorem1(self, workers):
        """The default grid, in process and on the pool, against the
        stored golden rows: how a grid is executed must not show in what
        it computed.  Adding or changing a builtin scenario moves rows;
        regenerate with ``rm tests/golden/default-grid-seed1.jsonl &&
        python -m pytest tests/test_sweep.py -k upholds_theorem1``.
        """
        report = SweepRunner(seeds=(1,), workers=workers).run()
        assert report.ok(), report.render()
        defined = [c for c in report.cells if c.mode == "defined"]
        assert defined and all(c.invariant_ok for c in defined)
        assert_rows(GOLDEN_DEFAULT_GRID, report.semantic_rows(), CELL_ROW_KEY)

    def test_render_mentions_verdict(self):
        report = SweepRunner(scenarios=["xorp-bgp-med"], seeds=(1,)).run()
        text = report.render()
        assert "verdict: OK" in text
        assert "xorp-bgp-med" in text

    def test_every_runner_carries_a_policy(self):
        """"No deadline, default retries" is a policy, not the absence
        of one: there is no unsupervised runner to fall back to."""
        from repro.supervise.executor import DEFAULT_RETRIES

        policy = SweepRunner(scenarios=["latency-jitter"]).policy
        assert (policy.cell_timeout_s, policy.retries) == (None, DEFAULT_RETRIES)
        policy = SweepRunner(
            scenarios=["latency-jitter"], cell_timeout_s=5, retries=0
        ).policy
        assert (policy.cell_timeout_s, policy.retries) == (5, 0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)
        with pytest.raises(ValueError):
            SweepRunner(repeats=0)


class TestCrashRestartDeterminism:
    """The reboot protocol: a restarted node rejoins at the current group."""

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_restart_cell_reproduces(self, seed):
        result = run_cell(SweepCell("crash-restart", seed=seed, mode="defined"))
        assert result.error is None
        assert result.invariant_ok is True
        assert result.late_deliveries == 0

    @pytest.mark.parametrize("crash_offset_us", [500, 2_000, 4_000])
    def test_boundary_crash_with_flood_in_flight_reproduces(
        self, square, crash_offset_us
    ):
        """A crash just after a beacon boundary, while the previous
        group's flood is still in flight, must still satisfy Theorem 1:
        the crash protocol retracts back to the last *closed* group and
        retags the recorded death group to match."""
        from repro.diff import diff_logs
        from repro.harness import run_ls_replay, run_production
        from repro.simnet.events import EventSchedule, ExternalEvent

        beacon_us = 4_250_000  # group 17 opens here (250 ms beacons)
        schedule = EventSchedule()
        schedule.add(ExternalEvent(
            time_us=beacon_us - 2_000, kind=LINK_DOWN, target=("b", "c")
        ))
        schedule.add(ExternalEvent(
            time_us=beacon_us + crash_offset_us, kind=NODE_DOWN, target="d"
        ))
        schedule.add(ExternalEvent(time_us=8_000_000, kind=NODE_UP, target="d"))
        schedule.add(ExternalEvent(
            time_us=9_000_000, kind=LINK_UP, target=("b", "c")
        ))
        prod = run_production(
            square, schedule, mode="defined", seed=1,
            measure_convergence=False, tail_us=3 * SECOND,
        )
        assert prod.late_deliveries == 0
        replay = run_ls_replay(square, prod.recording)
        assert diff_logs(prod.logs, replay.logs) is None
        assert replay.fingerprint == prod.fingerprint


class TestSpawnedWorkerResolution:
    def test_spawned_worker_resolves_every_default_spec(self):
        """A worker started with ``spawn`` (a fresh interpreter that
        inherits nothing from this process) resolves every default-grid
        spec, and a sized, jittered chaos/v1 file, to its canonical name."""
        import multiprocessing

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no spawn start method")
        skew = os.path.join(
            os.path.dirname(__file__), "..", "examples", "clock_skew_storm.yaml"
        )
        names = [*default_grid(), f"{skew}@20~j1us"]
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            remote = pool.apply(resolved_names, (names,))
        assert remote == [*default_grid(), "skew-storm@20~j1us"]
