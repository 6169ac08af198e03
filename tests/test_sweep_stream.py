"""Tests for the shared-memory result streaming path
(:mod:`repro.sweep_stream` + ``SweepRunner(workers>1)``).

Covers the record codec, the bounded ring's ordering/backpressure
semantics, and -- as a marked-``slow`` soak -- a 1000-cell grid that
must stream to completion with flat parent memory, plus a worker crash
that must cost the grid exactly the one guilty cell, never a hang.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import tracemalloc

import pytest

import repro.sweep as sweep_mod
from repro.core.history import WindowHeadroomStats
from repro.supervise.executor import DEFAULT_RETRIES
from repro.sweep import CellResult, SweepRunner
from repro.sweep_stream import (
    RECORD_SIZE,
    RING_CAPACITY_BUDGET_BYTES,
    RING_CAPACITY_FLOOR,
    ResultRing,
    RingClosedError,
    adaptive_ring_capacity,
    decode_record,
    encode_result,
)

_HEADROOM = WindowHeadroomStats(
    window_us=150_000, late_count=7, max_deficit_us=216_276,
    p50_deficit_us=144_529, p90_deficit_us=144_533, p99_deficit_us=216_276,
)


def _result(**overrides) -> CellResult:
    base = dict(
        scenario="flap-storm", seed=3, mode="defined", repeat=1,
        jitter_seed=77, fingerprint="ab" * 32, replay_fingerprint="ab" * 32,
        invariant_ok=True, expected_ok=None, late_deliveries=2, rollbacks=9,
        deliveries=12345, recording_bytes=4096, headroom=_HEADROOM,
        wall_seconds=0.25,
    )
    base.update(overrides)
    return CellResult(**base)


class TestRecordCodec:
    def test_round_trip(self):
        raw = encode_result(42, _result())
        assert len(raw) == RECORD_SIZE
        index, payload = decode_record(raw)
        assert index == 42
        assert payload == {
            "fingerprint": "ab" * 32,
            "replay_fingerprint": "ab" * 32,
            "invariant_ok": True,
            "expected_ok": None,
            "late_deliveries": 2,
            "rollbacks": 9,
            "deliveries": 12345,
            "recording_bytes": 4096,
            "headroom": _HEADROOM,
            "node_headroom": None,
            "wall_seconds": 0.25,
            "error": None,
        }

    def test_round_trip_no_headroom(self):
        raw = encode_result(0, _result(headroom=None))
        _, payload = decode_record(raw)
        assert payload["headroom"] is None

    def test_round_trip_node_headroom(self):
        per_node = {
            "r1": WindowHeadroomStats(
                window_us=150_000, late_count=5, max_deficit_us=216_276,
                p50_deficit_us=100_000, p90_deficit_us=200_000,
                p99_deficit_us=216_276,
            ),
            "r2": WindowHeadroomStats(
                window_us=150_000, late_count=2, max_deficit_us=44_529,
                p50_deficit_us=44_529, p90_deficit_us=44_529,
                p99_deficit_us=44_529, unmeasured_count=1,
            ),
        }
        raw = encode_result(3, _result(node_headroom=per_node))
        _, payload = decode_record(raw)
        assert payload["node_headroom"] == per_node

    def test_node_headroom_keeps_worst_offenders_when_truncating(self):
        from repro.sweep_stream import NODE_HEADROOM_SLOTS

        per_node = {
            f"node-{i:02d}": WindowHeadroomStats(
                window_us=150_000, late_count=1, max_deficit_us=1_000 * i,
                p50_deficit_us=1_000 * i, p90_deficit_us=1_000 * i,
                p99_deficit_us=1_000 * i,
            )
            for i in range(NODE_HEADROOM_SLOTS + 4)
        }
        raw = encode_result(0, _result(node_headroom=per_node))
        _, payload = decode_record(raw)
        decoded = payload["node_headroom"]
        assert len(decoded) == NODE_HEADROOM_SLOTS
        # worst max-deficit nodes survive the fixed-slot truncation
        kept = sorted(decoded)
        expect = sorted(
            sorted(per_node, key=lambda n: -per_node[n].max_deficit_us)
            [:NODE_HEADROOM_SLOTS]
        )
        assert kept == expect

    def test_unmeasured_count_round_trips_in_pooled_headroom(self):
        hr = WindowHeadroomStats(
            window_us=150_000, late_count=9, max_deficit_us=216_276,
            p50_deficit_us=144_529, p90_deficit_us=144_533,
            p99_deficit_us=216_276, unmeasured_count=3,
        )
        raw = encode_result(0, _result(headroom=hr))
        _, payload = decode_record(raw)
        assert payload["headroom"] == hr
        assert payload["headroom"].unmeasured_count == 3

    def test_round_trip_none_fields(self):
        raw = encode_result(0, _result(
            replay_fingerprint=None, invariant_ok=None, expected_ok=False,
            recording_bytes=None,
        ))
        _, payload = decode_record(raw)
        assert payload["replay_fingerprint"] is None
        assert payload["invariant_ok"] is None
        assert payload["expected_ok"] is False
        assert payload["recording_bytes"] is None

    def test_error_text_truncates(self):
        raw = encode_result(1, _result(error="boom " * 200))
        _, payload = decode_record(raw)
        assert payload["error"].startswith("boom ")
        assert payload["error"].endswith("...")
        assert len(payload["error"].encode()) <= 256

    def test_oversized_fingerprint_rejected_loudly(self):
        with pytest.raises(ValueError, match="widen _FP_BYTES"):
            encode_result(1, _result(fingerprint="f" * 65))


class TestAdaptiveRingCapacity:
    """The ring is sized from the grid and the record width (with a
    floor and a shared-memory ceiling) instead of a fixed 128 slots."""

    def test_small_grid_gets_exactly_grid_sized_ring(self):
        assert adaptive_ring_capacity(5) == 5
        assert adaptive_ring_capacity(1) == 2  # ring minimum

    def test_large_grid_clamped_by_memory_budget(self):
        cap = adaptive_ring_capacity(1_000_000)
        assert cap == RING_CAPACITY_BUDGET_BYTES // RECORD_SIZE
        assert cap * RECORD_SIZE <= RING_CAPACITY_BUDGET_BYTES

    def test_wide_records_keep_the_slot_floor(self):
        # a record wider than budget/floor would starve the ring of
        # burst absorption; the floor wins over the byte budget
        huge_record = RING_CAPACITY_BUDGET_BYTES // 4
        assert adaptive_ring_capacity(10_000, huge_record) == RING_CAPACITY_FLOOR

    def test_monotone_in_grid_size_until_the_ceiling(self):
        caps = [adaptive_ring_capacity(n) for n in (2, 64, 1024, 1 << 20)]
        assert caps == sorted(caps)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            adaptive_ring_capacity(0)
        with pytest.raises(ValueError):
            adaptive_ring_capacity(10, 0)

    def test_streamed_runner_uses_adaptive_capacity_by_default(self):
        assert sweep_mod.STREAM_RING_CAPACITY is None


class TestResultRing:
    def _make(self, capacity):
        return ResultRing.create(capacity=capacity, lock=multiprocessing.Lock())

    def test_fifo_order_with_wraparound(self):
        ring = self._make(capacity=3)
        try:
            records = [encode_result(i, _result(seed=i)) for i in range(7)]
            popped = []
            for batch in (records[:3], records[3:6], records[6:]):
                for raw in batch:
                    ring.push(raw)
                popped.extend(decode_record(r)[0] for r in ring.pop_all())
            assert popped == list(range(7))
        finally:
            ring.destroy()

    def test_push_blocks_until_consumer_drains(self):
        ring = self._make(capacity=2)
        try:
            for i in range(2):
                ring.push(encode_result(i, _result()))
            done = threading.Event()

            def producer():
                ring.push(encode_result(2, _result()), timeout=5.0)
                done.set()

            thread = threading.Thread(target=producer)
            thread.start()
            time.sleep(0.05)
            assert not done.is_set()  # ring full: producer is parked
            assert len(ring.pop_all()) == 2
            thread.join(timeout=5.0)
            assert done.is_set()
            assert [decode_record(r)[0] for r in ring.pop_all()] == [2]
        finally:
            ring.destroy()

    def test_push_times_out_when_never_drained(self):
        ring = self._make(capacity=1)
        try:
            ring.push(encode_result(0, _result()))
            with pytest.raises(TimeoutError, match="not draining"):
                ring.push(encode_result(1, _result()), timeout=0.05)
        finally:
            ring.destroy()

    def test_closed_ring_rejects_writers(self):
        ring = self._make(capacity=2)
        try:
            ring.close_for_writers()
            with pytest.raises(RingClosedError):
                ring.push(encode_result(0, _result()))
        finally:
            ring.destroy()

    def test_wrong_size_record_rejected(self):
        ring = self._make(capacity=2)
        try:
            with pytest.raises(ValueError, match="bytes"):
                ring.push(b"tiny")
        finally:
            ring.destroy()


# ----------------------------------------------------------------------
# streamed-sweep integration (fork start method: the stubbed run_cell
# must be inherited by the workers)
# ----------------------------------------------------------------------

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform has no fork start method",
)


def _stub_run_cell(cell):
    return CellResult(
        scenario=cell.scenario, seed=cell.seed, mode=cell.mode,
        repeat=cell.repeat, jitter_seed=cell.jitter_seed,
        fingerprint=f"fp|{cell.scenario}|{cell.seed}|{cell.mode}",
        deliveries=1, wall_seconds=0.0,
    )


def _crashing_run_cell(cell):
    if cell.seed == 13:
        os._exit(17)  # hard worker death: no exception, no cleanup
    return _stub_run_cell(cell)


def _unencodable_run_cell(cell):
    if cell.seed == 7:
        # 65-char fingerprint: encode_result refuses, the worker's
        # future carries the ValueError, but the pool stays healthy
        return CellResult(
            scenario=cell.scenario, seed=cell.seed, mode=cell.mode,
            fingerprint="f" * 65,
        )
    return _stub_run_cell(cell)


@needs_fork
@pytest.mark.slow
class TestStreamedGridSoak:
    def test_1000_cell_grid_streams_with_flat_parent_memory(self, monkeypatch):
        """A 1000-cell grid must stream to completion through the ring
        with the parent's transport+aggregation footprint bounded (the
        consumer folds results instead of retaining them)."""
        monkeypatch.setattr(sweep_mod, "run_cell", _stub_run_cell)
        runner = SweepRunner(
            scenarios=["flap-storm"], seeds=tuple(range(250)),
            modes=("vanilla", "defined"), repeats=2, workers=2,
        )
        assert len(runner.grid()) == 1000
        seen = []
        tracemalloc.start()
        try:
            count = 0
            fingerprints = set()
            for result in runner.stream(progress=seen.append):
                count += 1
                fingerprints.add(result.fingerprint)
                assert result.error is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 1000 and len(seen) == 1000
        # 250 seeds x 2 modes (repeats collapse onto one fingerprint)
        assert len(fingerprints) == 500
        # flat: orders of magnitude under "retain 1000 results + 1000
        # futures"; the bound is generous to stay unflaky under pytest
        assert peak < 8 * 1024 * 1024, f"parent peak {peak} bytes"

    def test_small_ring_applies_backpressure_end_to_end(self, monkeypatch):
        """With a 2-slot ring the workers must block-and-resume rather
        than drop or reorder records."""
        monkeypatch.setattr(sweep_mod, "run_cell", _stub_run_cell)
        monkeypatch.setattr(sweep_mod, "STREAM_RING_CAPACITY", 2)
        runner = SweepRunner(
            scenarios=["flap-storm"], seeds=tuple(range(40)),
            modes=("vanilla",), workers=2,
        )
        report = runner.run()
        assert report.ok(), report.render()
        assert len(report.cells) == 40


@needs_fork
class TestWorkerCrash:
    def test_worker_crash_quarantines_the_one_guilty_cell(self, monkeypatch):
        """An un-flagged pooled sweep whose worker dies retries that one
        cell, quarantines it past the default budget, and completes the
        rest of the grid -- no knob has to be set to get this."""
        monkeypatch.setattr(sweep_mod, "run_cell", _crashing_run_cell)
        runner = SweepRunner(
            scenarios=["flap-storm"], seeds=tuple(range(20)),
            modes=("vanilla",), workers=2,
        )
        start = time.monotonic()
        report = runner.run()
        assert time.monotonic() - start < 60, "crash handling must not hang"
        assert len(report.cells) == 20
        dead = [c for c in report.cells if c.outcome != "completed"]
        assert [(c.seed, c.outcome) for c in dead] == [(13, "quarantined")]
        assert dead[0].attempts == DEFAULT_RETRIES + 1
        # the failure history rides the error text
        assert f"quarantined after {DEFAULT_RETRIES + 1} consecutive " \
            "transient failures" in dead[0].error
        assert "pool broken" in dead[0].error
        # all other 19 cells complete, on the replacement pools
        assert sum(1 for c in report.cells if c.ok) == 19
        assert not report.ok()

    def test_single_cell_transport_failure_does_not_abandon_grid(
        self, monkeypatch
    ):
        """A per-cell reporting failure (here: an unencodable record) is
        not pool breakage and not transient: the failing cell surfaces
        once with its own error, every other cell runs to completion."""
        monkeypatch.setattr(sweep_mod, "run_cell", _unencodable_run_cell)
        runner = SweepRunner(
            scenarios=["flap-storm"], seeds=tuple(range(30)),
            modes=("vanilla",), workers=2,
        )
        report = runner.run()
        assert len(report.cells) == 30
        dead = [c for c in report.cells if c.error is not None]
        assert len(dead) == 1 and dead[0].seed == 7
        assert dead[0].error.startswith("ValueError: ")
        assert (dead[0].outcome, dead[0].attempts) == ("completed", 1)
        # the healthy 29 cells all completed despite the one failure
        assert sum(1 for c in report.cells if c.error is None) == 29
