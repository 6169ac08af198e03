"""Window-envelope benchmark: mapping throughput.

The real per-cell cost of mapping a small envelope (simulation +
headroom capture, replay checks off).  That pooled envelope grids carry
the same headroom payload as serial ones is pinned by
``tests/test_envelope.py`` (serial vs ``workers=2`` mapping).
"""

from __future__ import annotations

import pytest

from _bench import emit

from repro.analysis.report import render_table
from repro.envelope import EnvelopeRunner

#: Mapping cells exhaust their windows on purpose.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.core.shim.HistoryWindowWarning"
)


def _small_runner() -> EnvelopeRunner:
    return EnvelopeRunner(
        scenarios=["latency-jitter"],
        jitters_us=(0, 300_000),
        windows_us=(100_000, 1_000_000),
        seeds=(1,),
    )


def test_envelope_mapping_throughput(benchmark):
    """Real cells: one serial mapping pass over a 4-cell diamond grid
    (two jitters x two windows), replay checks off."""

    def map_once():
        return _small_runner().run(suggest=False).mapping.cells

    cells = benchmark.pedantic(map_once, rounds=3, iterations=1)
    assert len(cells) == 4
    assert all(c.error is None for c in cells)
    late = sum(c.headroom.late_count for c in cells if c.headroom)
    emit(render_table(
        "envelope mapping throughput (diamond, 4 cells)",
        ["metric", "value"],
        [
            ["grid cells", len(cells)],
            ["cells with deficits",
             sum(1 for c in cells if c.headroom and not c.headroom.clean)],
            ["total late deliveries", late],
        ],
    ))
    # the undersized-window x heavy-jitter corner must actually measure
    # something, or the bench is timing an empty envelope
    assert late > 0
