"""Link-fault windows pinned to stored golden rows.

No default-grid scenario installs a link-fault window, so the gray,
reorder and duplicate paths of the network's send pass
(``Network._fault_transmit``) are pinned here, by the three example
documents that install them.  Each row of
``tests/golden/fault-windows-seed1.jsonl`` is one production run at
seed 1, keyed by document and mode: the fault counters, the execution
fingerprint, the daemon deliveries, the engine events, the simulated end
instant and a 16-hex sha256 prefix of every node's packet counters.  The
instrumented mode refuses gray windows (loss breaks the recording), and
that refusal is a row too.

A change that moves any of these on purpose regenerates the file (see
``tests/_golden.py``), and the failing run names every moved field.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict

import pytest

from _golden import assert_rows

from repro.chaos import load_scenario_file
from repro.sweep import run_scenario

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden", "fault-windows-seed1.jsonl")
EXAMPLES = os.path.join(HERE, os.pardir, "examples")

DOCUMENTS = ("dup_reorder_soak.yaml", "gray_failure.yaml", "gray-flap-damping.yaml")
MODES = ("defined", "vanilla")
SEED = 1

PACKET_COUNTERS = (
    "data_packets_sent", "data_packets_received", "control_packets_sent",
    "control_packets_received", "beacons_received", "bytes_sent", "deliveries",
)


def _packets_sha(network) -> str:
    per_node = ";".join(
        node + ":" + ",".join(str(getattr(stats, c)) for c in PACKET_COUNTERS)
        for node, stats in sorted(network.run_stats.per_node.items())
    )
    return hashlib.sha256(per_node.encode()).hexdigest()[:16]


def _row(document: str, mode: str) -> Dict:
    scenario = load_scenario_file(os.path.join(EXAMPLES, document))
    row: Dict = {"document": document, "mode": mode}
    try:
        result = run_scenario(scenario, mode, SEED)
    except ValueError as exc:
        row["refused"] = str(exc)
        return row
    network = result.network
    row.update(
        fault_stats=dict(network.fault_stats),
        fingerprint=result.fingerprint,
        deliveries=network.run_stats.total_deliveries(),
        events=network.sim.events_executed,
        now_us=network.sim.now,
        packets_sha=_packets_sha(network),
    )
    return row


def test_fault_window_rows():
    rows = [_row(document, mode) for document in DOCUMENTS for mode in MODES]
    assert_rows(GOLDEN, rows, key=("document", "mode"))


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_document_exercises_its_windows(document):
    """A pinned row that no fault fired in would pin nothing."""
    row = _row(document, "vanilla")
    assert any(row["fault_stats"].values()), row
