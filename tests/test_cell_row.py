"""``CellResult.to_row`` is the one serialisation of a cell result.

The journal record, the semantic digest and the sweep (so also the
fuzz) and envelope report JSONs are all projections of it; these tests pin the row itself
and that every report lists its cells as rows.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from repro.artifact.bundle import canonical_json
from repro.core.history import WindowHeadroomStats
from repro.envelope import EnvelopeReport
from repro.sweep import (
    PROVENANCE_FIELDS,
    CellResult,
    SweepReport,
)

_FIELD_NAMES = {f.name for f in dataclasses.fields(CellResult)}

_ints = st.integers(min_value=0, max_value=2**40)
_headroom = st.builds(
    WindowHeadroomStats,
    window_us=_ints, late_count=_ints, max_deficit_us=_ints,
    p50_deficit_us=_ints, p90_deficit_us=_ints, p99_deficit_us=_ints,
    unmeasured_count=_ints,
)
_maybe_int = st.none() | _ints
#: Node ids are any unicode text; the journal's canonical JSON escapes them.
_node_ids = st.text()
_results = st.builds(
    CellResult,
    scenario=st.text(min_size=1),
    seed=_ints,
    mode=st.sampled_from(["vanilla", "logging", "ddos", "defined"]),
    repeat=_ints,
    jitter_seed=_maybe_int,
    window_us=_maybe_int,
    jitter_us=_maybe_int,
    fingerprint=st.text(),
    replay_fingerprint=st.none() | st.text(),
    invariant_ok=st.none() | st.booleans(),
    expected_ok=st.none() | st.booleans(),
    late_deliveries=_ints,
    rollbacks=_ints,
    deliveries=_ints,
    recording_bytes=_maybe_int,
    headroom=st.none() | _headroom,
    node_headroom=st.none() | st.dictionaries(_node_ids, _headroom, max_size=4),
    wall_seconds=st.floats(min_value=0, max_value=1e6),
    error=st.none() | st.text(),
    attempts=st.integers(min_value=1, max_value=10),
    outcome=st.sampled_from(["completed", "resumed", "timed_out", "quarantined"]),
)


def _normalised(result: CellResult) -> CellResult:
    """The result as its row represents it: no per-node headroom is
    ``None``, never an empty dict."""
    if result.node_headroom == {}:
        return dataclasses.replace(result, node_headroom=None)
    return result


class TestRow:
    def test_row_holds_exactly_the_fields(self):
        assert set(CellResult("s", 1, "defined").to_row()) == _FIELD_NAMES
        assert set(PROVENANCE_FIELDS) <= _FIELD_NAMES

    @settings(max_examples=200, deadline=None)
    @given(_results)
    def test_from_row_inverts_to_row(self, result):
        assert CellResult.from_row(result.to_row()) == _normalised(result)

    @settings(max_examples=200, deadline=None)
    @given(_results)
    def test_row_survives_canonical_json(self, result):
        row = json.loads(canonical_json(result.to_row()))
        assert row == result.to_row()
        assert CellResult.from_row(row) == _normalised(result)

    def test_empty_node_headroom_becomes_none(self):
        row = CellResult("s", 1, "defined", node_headroom={}).to_row()
        assert row["node_headroom"] is None


def _problem_cells():
    """One cell for each list a sweep report carries in full."""
    hr = WindowHeadroomStats.from_samples(400_000, [1_000, 9_000])
    return [
        CellResult("flap-storm", 1, "defined", error="boom", attempts=2),
        CellResult(
            "flap-storm", 2, "defined", fingerprint="a", replay_fingerprint="b",
            invariant_ok=False, headroom=hr, node_headroom={"r1": hr},
        ),
        CellResult("partition", 1, "vanilla", expected_ok=False),
        CellResult("ddos-overload", 1, "ddos", late_deliveries=3),
        CellResult("flap-storm", 3, "defined", outcome="timed_out", error="t"),
        CellResult("flap-storm", 4, "defined", outcome="quarantined", error="q"),
        CellResult("flap-storm", 5, "defined", fingerprint="ok"),
    ]


class TestReportsListRows:
    def test_sweep_report(self):
        report = SweepReport(
            cells=_problem_cells(), seeds=(1,), workers=1, repeats=1
        )
        doc = report.to_dict()
        for key, cells in (
            ("timed_out", report.timed_out()),
            ("quarantined", report.quarantined()),
            ("errors", report.errors()),
            ("theorem1_violations", report.invariant_violations()),
            ("expectation_failures", report.expectation_failures()),
            ("ordering_misses", report.ordering_misses()),
        ):
            assert cells, key
            assert doc[key] == [c.to_row() for c in cells], key

    def test_semantic_rows_drop_only_provenance(self):
        cells = _problem_cells()
        report = SweepReport(cells=cells, seeds=(1,), workers=1, repeats=1)
        for c, row in zip(cells, report.semantic_rows()):
            assert set(row) == _FIELD_NAMES - set(PROVENANCE_FIELDS)
            assert row.items() <= c.to_row().items()

    def test_envelope_report(self):
        hr = WindowHeadroomStats.from_samples(400_000, [])
        cells = [
            CellResult("flap-storm@20", 1, "defined", window_us=w, jitter_us=j,
                       headroom=hr)
            for w in (100_000, 400_000) for j in (0, 300)
        ]
        report = EnvelopeReport(
            scenarios=("flap-storm@20",), jitters_us=(0, 300),
            windows_us=(100_000, 400_000), seeds=(1,),
            cells=cells, verification_cells=cells[:1],
        )
        doc = report.to_dict()
        assert doc["cells"] == [c.to_row() for c in cells]
        assert doc["verification_cells"] == [cells[0].to_row()]

    def test_fuzz_report(self):
        # a fuzz report is the sweep report of its jittered grid
        cells = [
            CellResult("flap-storm~j2us", 1, "defined", invariant_ok=False),
            CellResult("flap-storm~j1us", 2, "defined", error="boom"),
            CellResult("flap-storm~j1us", 1, "defined", invariant_ok=True),
        ]
        report = SweepReport(cells=cells, seeds=(1, 2), workers=1, repeats=1)
        doc = report.to_dict()
        assert doc["theorem1_violations"] == [cells[0].to_row()]
        assert doc["errors"] == [cells[1].to_row()]
