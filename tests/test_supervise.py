"""Tests for supervised sweep execution (:mod:`repro.supervise`).

Covers the failure classifier, the backoff ladder, the heartbeat board,
the durable cell journal, and -- through fault-injectable worker shims
(sleep-forever, SIGKILL-self, fail-once-then-succeed, ring-stall) --
the pooled supervision loop itself: hung workers are reaped within the
deadline, transient failures retry within the budget and quarantine
past it, deterministic failures are never re-executed, ring-push
failures recover the finished record from the exception, and a resumed
grid re-executes nothing while reporting semantically identically.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import signal
import time

import pytest

import repro.sweep as sweep_mod
from repro.core.history import WindowHeadroomStats
from repro.supervise import (
    DETERMINISTIC,
    TRANSIENT,
    CellJournal,
    HeartbeatBoard,
    SKIPPABLE_OUTCOMES,
    SupervisionPolicy,
    backoff_delay,
    cell_fingerprint,
    classify_error,
    load_completed,
    load_records,
)
from repro.supervise.executor import BACKOFF_BASE_S, BACKOFF_CAP_S
from repro.supervise.journal import cell_identity, journal_summary
from repro.sweep import CellResult, SweepCell, SweepRunner
from repro.sweep_stream import ResultPushError, ResultRing, decode_record, encode_result

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform has no fork start method",
)

_MARKED_SEED = 13

GOLDEN_JOURNAL_SEGMENT = os.path.join(
    os.path.dirname(__file__), "golden", "journal-v1-segment.jsonl"
)


# ----------------------------------------------------------------------
# fault-injectable worker shims (module-level so they pickle by reference
# and propagate to fork-context pool workers via monkeypatch)
# ----------------------------------------------------------------------

def _count_execution(cell) -> int:
    """Append one line per execution to the counter file named by the
    environment (inherited across fork); returns this cell's count."""
    path = os.environ["REPRO_TEST_EXEC_LOG"]
    with open(path, "a", encoding="ascii") as fh:
        fh.write(f"{cell.scenario}|{cell.seed}|{cell.mode}\n")
        fh.flush()
        os.fsync(fh.fileno())
    with open(path, encoding="ascii") as fh:
        key = f"{cell.scenario}|{cell.seed}|{cell.mode}"
        return sum(1 for line in fh if line.strip() == key)


def _ok_run_cell(cell):
    return CellResult(
        scenario=cell.scenario, seed=cell.seed, mode=cell.mode,
        repeat=cell.repeat, jitter_seed=cell.jitter_seed,
        fingerprint=f"fp|{cell.scenario}|{cell.seed}|{cell.mode}",
        deliveries=1, wall_seconds=0.0,
    )


def _every_field_cell_result():
    """A cell with every identity override set and a completed result
    that sets every ``CellResult`` field (the journal fixture's source)."""
    cell = SweepCell(
        "flap-storm@20", seed=7, mode="defined", repeat=1, jitter_seed=4242,
        window_us=400_000, jitter_us=300,
    )
    result = CellResult.for_cell(
        cell,
        fingerprint="a" * 64,
        replay_fingerprint="b" * 64,
        invariant_ok=False,
        expected_ok=True,
        late_deliveries=5,
        rollbacks=17,
        deliveries=1234,
        recording_bytes=5678,
        headroom=WindowHeadroomStats(
            window_us=400_000, late_count=5, max_deficit_us=9_000,
            p50_deficit_us=1_000, p90_deficit_us=6_000, p99_deficit_us=8_500,
            unmeasured_count=1,
        ),
        node_headroom={
            "r2": WindowHeadroomStats.from_samples(400_000, [1_000, 9_000]),
            "r10": WindowHeadroomStats.from_samples(400_000, [2_000], 1),
        },
        wall_seconds=1.25,
        error=("replay diverged from production at group 12; " * 7)[:300],
        attempts=3,
    )
    assert len(result.error) == 300
    return cell, result


def _sleep_forever_run_cell(cell):
    if cell.seed == _MARKED_SEED:
        time.sleep(600)
    return _ok_run_cell(cell)


def _sigkill_run_cell(cell):
    if cell.seed == _MARKED_SEED:
        os.kill(os.getpid(), signal.SIGKILL)
    return _ok_run_cell(cell)


def _fail_once_run_cell(cell):
    """Transient (OOM-shaped) failure on the marked cell's first
    execution only; clean success on every later attempt."""
    if cell.seed == _MARKED_SEED and _count_execution(cell) == 1:
        result = _ok_run_cell(cell)
        return dataclasses.replace(
            result, error="MemoryError: synthetic OOM (injected)"
        )
    return _ok_run_cell(cell)


def _deterministic_error_run_cell(cell):
    _count_execution(cell)
    result = _ok_run_cell(cell)
    if cell.seed == _MARKED_SEED:
        return dataclasses.replace(
            result,
            error="divergence: production and replay fingerprints differ",
        )
    return result


def _stalled_push(self, record, poll_interval=0.001, timeout=30.0):
    raise TimeoutError(
        f"result ring full and consumer not draining (capacity {self.capacity})"
    )


def _cell(**overrides) -> SweepCell:
    base = dict(scenario="flap-storm", seed=1, mode="vanilla")
    base.update(overrides)
    return SweepCell(**base)


# ----------------------------------------------------------------------
# classifier
# ----------------------------------------------------------------------

class TestClassifier:
    def test_none_is_deterministic(self):
        assert classify_error(None) == DETERMINISTIC

    @pytest.mark.parametrize("error", [
        "MemoryError: out of memory",
        "BrokenProcessPool: A child process terminated abruptly",
        "worker pool broken while the cell was executing",
        "result ring full and consumer not draining (capacity 4)",
        "RingClosedError: result ring closed by consumer",
    ])
    def test_infra_failures_are_transient(self, error):
        assert classify_error(error) == TRANSIENT

    @pytest.mark.parametrize("error", [
        "divergence: production and replay fingerprints differ",
        "expectation failed",
        "ValueError: scenario rejected the seed",
        "Theorem-1 invariant violated",
    ])
    def test_semantic_failures_are_deterministic(self, error):
        assert classify_error(error) == DETERMINISTIC


# ----------------------------------------------------------------------
# backoff ladder
# ----------------------------------------------------------------------

class TestBackoff:
    def test_exponential_within_jitter_envelope_and_capped(self):
        for failures in range(1, 10):
            expected = min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** (failures - 1))
            delay = backoff_delay("deadbeef", failures)
            assert expected * 0.5 <= delay < expected * 1.5
        # far past the cap the delay stays bounded
        assert backoff_delay("deadbeef", 50) < BACKOFF_CAP_S * 1.5

    def test_deterministic_per_cell_and_attempt(self):
        assert backoff_delay("aa", 2) == backoff_delay("aa", 2)
        # different cells (and different ordinals) decorrelate
        assert backoff_delay("aa", 2) != backoff_delay("bb", 2)
        assert backoff_delay("aa", 2) != backoff_delay("aa", 3)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(cell_timeout_s=0)
        with pytest.raises(ValueError):
            SupervisionPolicy(retries=-1)


# ----------------------------------------------------------------------
# heartbeat board
# ----------------------------------------------------------------------

class TestHeartbeatBoard:
    def test_claim_begin_overdue_clear(self):
        board = HeartbeatBoard.create(2)
        try:
            peer = HeartbeatBoard.attach(board.name)
            peer.claim(0, pid=4242)
            assert board.active() == []
            peer.begin(0, pid=4242, cell_index=7)
            active = board.active()
            assert [(e[0], e[1], e[2]) for e in active] == [(0, 4242, 7)]
            assert board.overdue(3600.0) == []
            # the same stamp, read an hour later, is overdue on a 1s deadline
            # (slots are unsigned: never back-date a stamp to fake age)
            an_hour_on = active[0][3] + 3_600 * 1_000_000_000
            assert [e[2] for e in board.overdue(1.0, now_ns=an_hour_on)] == [7]
            assert board.overdue(3600.0, now_ns=an_hour_on) == []
            peer.clear(0, pid=4242)
            assert board.active() == []
            peer.destroy()
        finally:
            board.destroy()

    def test_deadlines_work_on_a_freshly_booted_host(self, monkeypatch):
        """CLOCK_MONOTONIC counts from boot: with 5 s of uptime every
        stamp is tiny, and nothing the board computes may go below
        zero on its way into an unsigned slot."""
        uptime_ns = 5_000_000_000
        monkeypatch.setattr(time, "monotonic_ns", lambda: uptime_ns)
        board = HeartbeatBoard.create(1)
        try:
            board.claim(0, pid=4242)
            board.begin(0, pid=4242, cell_index=0)
            assert board.read(0) == (4242, 1, uptime_ns)
            # a deadline far longer than the host has been up: not overdue
            assert board.overdue(3600.0) == []
            assert board.overdue(1.0) == []
            assert [e[2] for e in board.overdue(
                1.0, now_ns=uptime_ns + 1_000_000_001)] == [0]
            board.clear(0, pid=4242)
            assert board.active() == []
        finally:
            board.destroy()

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            HeartbeatBoard.create(0)
        board = HeartbeatBoard.create(1)
        try:
            with pytest.raises(ValueError):
                board.claim(1, pid=1)
        finally:
            board.destroy()


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------

class TestJournal:
    def test_fingerprint_covers_identity_not_artifacts(self):
        a = _cell(seed=3)
        assert cell_fingerprint(a) == cell_fingerprint(_cell(seed=3))
        assert cell_fingerprint(a) != cell_fingerprint(_cell(seed=4))
        assert cell_fingerprint(a) != cell_fingerprint(_cell(seed=3, mode="defined"))
        # where bundles land does not change what the cell computes
        assert cell_fingerprint(a) == cell_fingerprint(
            _cell(seed=3, artifact_dir="/elsewhere")
        )

    def test_recorded_result_resumes_marked_resumed(self, tmp_path):
        cell = _cell(seed=9)
        original = _ok_run_cell(cell)
        directory = str(tmp_path / "journal")
        CellJournal(directory).record(cell, original)
        [rebuilt] = SweepRunner(resume_dir=directory).run(cells=[cell]).cells
        assert rebuilt == dataclasses.replace(original, outcome="resumed")

    def test_record_load_and_later_records_win(self, tmp_path):
        directory = str(tmp_path / "journal")
        journal = CellJournal(directory)
        cell = _cell(seed=5)
        failed = dataclasses.replace(
            _ok_run_cell(cell), outcome="quarantined",
            error="quarantined after 3 consecutive transient failures",
        )
        journal.record(cell, failed)
        assert load_completed(directory) == {}
        assert journal_summary(directory) == {"quarantined": 1}
        # a later (resumed-run) completion supersedes the quarantine
        resumed = CellJournal(directory)  # numbering continues across writers
        resumed.record(cell, dataclasses.replace(
            _ok_run_cell(cell), outcome="completed"))
        records = load_records(directory)
        assert len(records) == 1
        assert records[cell_fingerprint(cell)]["outcome"] == "completed"
        assert set(load_completed(directory)) == {cell_fingerprint(cell)}
        assert sorted(os.listdir(directory)) == [
            "segment-00000000.jsonl", "segment-00000001.jsonl",
        ]

    def test_record_writes_the_golden_v1_segment(self, tmp_path):
        """The journal format is pinned byte for byte: a segment written
        by an older release must stay resumable, and this one is it."""
        cell, result = _every_field_cell_result()
        path = CellJournal(str(tmp_path / "journal")).record(cell, result)
        with open(path, "rb") as fh, open(GOLDEN_JOURNAL_SEGMENT, "rb") as gh:
            assert fh.read() == gh.read()

    def test_golden_v1_segment_resumes_to_the_original_result(self, tmp_path):
        cell, result = _every_field_cell_result()
        directory = tmp_path / "journal"
        directory.mkdir()
        with open(GOLDEN_JOURNAL_SEGMENT, "rb") as gh:
            (directory / "segment-00000000.jsonl").write_bytes(gh.read())
        [resumed] = SweepRunner(resume_dir=str(directory)).run(cells=[cell]).cells
        assert resumed == dataclasses.replace(result, outcome="resumed")

    def test_missing_directory_is_a_loud_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="resume journal"):
            load_records(str(tmp_path / "absent"))

    def test_skippable_outcomes_are_exactly_final_answers(self):
        assert SKIPPABLE_OUTCOMES == frozenset({"completed", "resumed"})

    def test_identity_fields_match_sweep_cell(self):
        # adding a semantic field to SweepCell must extend the journal's
        # identity tuple (or resumes could alias distinct cells)
        identity = set(cell_identity(_cell()))
        cell_fields = {f.name for f in dataclasses.fields(SweepCell)}
        assert identity == cell_fields - {"artifact_dir"}


# ----------------------------------------------------------------------
# ResultPushError transport
# ----------------------------------------------------------------------

class TestResultPushError:
    def test_pickles_across_process_boundary(self):
        record = encode_result(4, _ok_run_cell(_cell(seed=4)))
        exc = ResultPushError(4, record, "TimeoutError: ring full")
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.index == 4
        assert clone.record == record
        assert clone.cause == "TimeoutError: ring full"
        index, payload = decode_record(clone.record)
        assert index == 4 and payload["fingerprint"].startswith("fp|")


# ----------------------------------------------------------------------
# pooled supervision loop
# ----------------------------------------------------------------------

@needs_fork
class TestSupervisedPool:
    def test_hung_worker_is_reaped_and_cell_times_out(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "run_cell", _sleep_forever_run_cell)
        runner = SweepRunner(
            scenarios=["flap-storm"], seeds=(1, 2, _MARKED_SEED, 4),
            modes=("vanilla",), workers=2, cell_timeout_s=1.0, retries=2,
        )
        start = time.monotonic()
        report = runner.run()
        wall = time.monotonic() - start
        assert wall < 30, f"watchdog must bound the grid ({wall:.1f}s)"
        assert report.coverage()["timed_out"] == 1
        hung = report.timed_out()
        assert [c.seed for c in hung] == [_MARKED_SEED]
        assert "wall-clock deadline" in hung[0].error
        assert "reaped" in hung[0].error
        # a timeout is deterministic: the cell is never retried
        assert hung[0].attempts == 1
        assert sorted(c.seed for c in report.cells if c.outcome == "completed") \
            == [1, 2, 4]

    def test_crash_looping_cell_is_quarantined(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sweep_mod, "run_cell", _sigkill_run_cell)
        runner = SweepRunner(
            scenarios=["flap-storm"],
            seeds=(1, 2, 3, _MARKED_SEED, 5, 6),
            modes=("vanilla",), workers=2, retries=2,
            artifact_dir=str(tmp_path),
        )
        start = time.monotonic()
        report = runner.run()
        assert time.monotonic() - start < 60, "crash loop must not hang the grid"
        quarantined = report.quarantined()
        assert [c.seed for c in quarantined] == [_MARKED_SEED]
        # budget of 2 retries = 3 executions, then the cell is parked
        assert quarantined[0].attempts == 3
        assert "quarantined after 3 consecutive transient failures" \
            in quarantined[0].error
        assert sorted(c.seed for c in report.cells if c.outcome == "completed") \
            == [1, 2, 3, 5, 6]
        archives = [p for p in os.listdir(tmp_path) if p.startswith("quarantine-")]
        assert len(archives) == 1
        import json
        doc = json.loads((tmp_path / archives[0]).read_text())
        assert doc["cell"]["seed"] == _MARKED_SEED
        assert doc["consecutive_transient_failures"] == 3

    def test_transient_failure_retries_then_succeeds(self, monkeypatch, tmp_path):
        log = tmp_path / "exec.log"
        log.touch()
        monkeypatch.setenv("REPRO_TEST_EXEC_LOG", str(log))
        monkeypatch.setattr(sweep_mod, "run_cell", _fail_once_run_cell)
        runner = SweepRunner(
            scenarios=["flap-storm"], seeds=(1, _MARKED_SEED, 3),
            modes=("vanilla",), workers=2, retries=2,
        )
        report = runner.run()
        assert report.coverage() == {
            "completed": 3, "resumed": 0, "timed_out": 0,
            "quarantined": 0, "cells": 3,
        }
        healed = [c for c in report.cells if c.seed == _MARKED_SEED][0]
        assert healed.error is None
        assert healed.attempts == 2

    @pytest.mark.parametrize("knobs", [{"retries": 3}, {}])
    def test_deterministic_failure_is_never_retried(
        self, monkeypatch, tmp_path, knobs
    ):
        """The ISSUE's execution-count pin: a divergence-shaped error is
        final on first delivery, under a generous retry budget and
        under the default one alike."""
        log = tmp_path / "exec.log"
        log.touch()
        monkeypatch.setenv("REPRO_TEST_EXEC_LOG", str(log))
        monkeypatch.setattr(sweep_mod, "run_cell", _deterministic_error_run_cell)
        runner = SweepRunner(
            scenarios=["flap-storm"], seeds=(1, _MARKED_SEED),
            modes=("vanilla",), workers=2, **knobs,
        )
        report = runner.run()
        diverged = [c for c in report.cells if c.seed == _MARKED_SEED][0]
        assert diverged.error is not None and "divergence" in diverged.error
        assert diverged.outcome == "completed"  # delivered, just not ok
        assert diverged.attempts == 1
        executions = [
            line for line in log.read_text().splitlines()
            if line == f"flap-storm|{_MARKED_SEED}|vanilla"
        ]
        assert len(executions) == 1, "deterministic results must not be retried"

    def test_ring_stall_recovers_records_from_the_exception(self, monkeypatch):
        """With every push failing, each finished cell's record rides
        its ResultPushError back to the parent; nothing re-executes and
        nothing is lost (the ISSUE's retryable-transport satellite)."""
        monkeypatch.setattr(sweep_mod, "run_cell", _ok_run_cell)
        monkeypatch.setattr(ResultRing, "push", _stalled_push)
        runner = SweepRunner(
            scenarios=["flap-storm"], seeds=(1, 2, 3, 4),
            modes=("vanilla",), workers=2, retries=1,
        )
        report = runner.run()
        assert report.coverage()["completed"] == 4
        assert all(c.attempts == 1 for c in report.cells)
        assert all(c.fingerprint.startswith("fp|") for c in report.cells)


# ----------------------------------------------------------------------
# journal + resume through the runner
# ----------------------------------------------------------------------

@needs_fork
class TestResume:
    def test_resume_skips_completed_cells_and_reports_identically(
        self, monkeypatch, tmp_path
    ):
        log = tmp_path / "exec.log"
        log.touch()
        monkeypatch.setenv("REPRO_TEST_EXEC_LOG", str(log))
        monkeypatch.setattr(sweep_mod, "run_cell", _deterministic_error_run_cell)
        journal_dir = str(tmp_path / "journal")
        kwargs = dict(
            scenarios=["flap-storm"], seeds=(1, 2, 3), modes=("vanilla",),
            workers=2, retries=1,
        )
        baseline = SweepRunner(journal_dir=journal_dir, **kwargs).run()
        executed_once = log.read_text().splitlines()
        assert len(executed_once) == 3
        resumed = SweepRunner(resume_dir=journal_dir, **kwargs).run()
        # nothing re-executed: the journal answered every cell
        assert log.read_text().splitlines() == executed_once
        assert resumed.coverage()["resumed"] == 3
        assert resumed.coverage()["completed"] == 0
        assert resumed.semantic_digest() == baseline.semantic_digest()

    def test_partial_journal_resumes_only_the_missing_cells(
        self, monkeypatch, tmp_path
    ):
        log = tmp_path / "exec.log"
        log.touch()
        monkeypatch.setenv("REPRO_TEST_EXEC_LOG", str(log))
        monkeypatch.setattr(sweep_mod, "run_cell", _deterministic_error_run_cell)
        journal_dir = str(tmp_path / "journal")
        kwargs = dict(
            scenarios=["flap-storm"], modes=("vanilla",), workers=2, retries=1,
        )
        # journal covers seeds 1-2; the interrupted run never saw seed 3
        SweepRunner(seeds=(1, 2), journal_dir=journal_dir, **kwargs).run()
        baseline = SweepRunner(seeds=(1, 2, 3), **kwargs).run()
        resumed = SweepRunner(
            seeds=(1, 2, 3), resume_dir=journal_dir, **kwargs
        ).run()
        assert resumed.coverage()["resumed"] == 2
        assert resumed.coverage()["completed"] == 1
        assert resumed.semantic_digest() == baseline.semantic_digest()
        # the journal now holds all three: a second resume runs nothing
        lines_before = log.read_text().splitlines()
        again = SweepRunner(
            seeds=(1, 2, 3), resume_dir=journal_dir, **kwargs
        ).run()
        assert again.coverage()["resumed"] == 3
        assert log.read_text().splitlines() == lines_before

    def test_inline_single_worker_supervision(self, monkeypatch, tmp_path):
        """workers=1 with a retry budget takes the in-process path:
        same retry/quarantine semantics, no pool."""
        log = tmp_path / "exec.log"
        log.touch()
        monkeypatch.setenv("REPRO_TEST_EXEC_LOG", str(log))
        monkeypatch.setattr(sweep_mod, "run_cell", _fail_once_run_cell)
        report = SweepRunner(
            scenarios=["flap-storm"], seeds=(1, _MARKED_SEED),
            modes=("vanilla",), workers=1, retries=2,
        ).run()
        healed = [c for c in report.cells if c.seed == _MARKED_SEED][0]
        assert healed.error is None and healed.attempts == 2
        assert report.coverage()["completed"] == 2
