"""Tests for the DDOS stop-and-wait and comprehensive-logging baselines."""

from _fixtures import flap_schedule, square_graph

from repro.analysis.metrics import mean
from repro.baselines.logging_replay import log_volume_comparison
from repro.diff import diff_logs
from repro.harness import run_production


class TestDdosDeterminism:
    def test_seed_invariant_execution(self, square, square_flap):
        a = run_production(square, square_flap, mode="ddos", seed=1)
        b = run_production(square, square_flap, mode="ddos", seed=2)
        assert diff_logs(a.logs, b.logs) is None
        assert a.late_deliveries == 0

    def test_no_rollbacks_ever(self, square, square_flap):
        result = run_production(square, square_flap, mode="ddos", seed=1)
        assert result.rollbacks == 0
        assert result.network.run_stats.total_control_packets() == 0

    def test_converges_despite_blocking(self, square, square_flap):
        result = run_production(square, square_flap, mode="ddos", seed=1)
        assert result.unconverged_events == 0


class TestDdosCost:
    def test_blocking_slows_convergence_vs_speculation(self, square, square_flap):
        """The paper's argument for speculative execution: stop-and-wait
        pays worst-case skew on every delivery."""
        ddos = run_production(square, square_flap, mode="ddos", seed=1)
        defined = run_production(square, square_flap, mode="defined", seed=1)
        assert mean(ddos.convergence_times_us) > mean(defined.convergence_times_us)


class TestComprehensiveLogging:
    def test_comprehensive_log_dwarfs_partial_recording(self, square, square_flap):
        logged = run_production(square, square_flap, mode="logging", seed=1)
        defined = run_production(square, square_flap, mode="defined", seed=1)
        comprehensive = logged.comprehensive_log
        partial = defined.recording.size_bytes()
        assert comprehensive.records > 100
        assert comprehensive.bytes > 20 * partial

    def test_log_volume_rows(self, square, square_flap):
        logged = run_production(square, square_flap, mode="logging", seed=1)
        rows = log_volume_comparison(logged.comprehensive_log, partial_bytes=500)
        assert len(rows) == 3
        assert rows[2][1] > 1.0  # reduction factor

    def test_logging_stack_does_not_perturb_execution(self, square, square_flap):
        """Observation-only: the logging stack's execution matches the
        plain vanilla stack's for the same seed."""
        logged = run_production(square, square_flap, mode="logging", seed=5)
        vanilla = run_production(square, square_flap, mode="vanilla", seed=5)
        assert logged.fingerprint == vanilla.fingerprint


class TestNaivePartialReplay:
    def test_naive_replay_fails_to_reproduce(self, square, square_flap):
        """The motivating failure: replaying external events on a fresh
        vanilla network (different seed = different internal
        nondeterminism) does not reproduce the original execution."""
        original = run_production(square, square_flap, mode="vanilla", seed=1)
        naive_replay = run_production(square, square_flap, mode="vanilla", seed=99)
        assert naive_replay.fingerprint != original.fingerprint
