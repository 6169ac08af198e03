"""The DEFINED-LS replay pinned to stored golden rows.

Each pinned replay is one row of ``tests/golden/ls-replay-seed1.jsonl``,
keyed by its label: the execution fingerprint, the cycle count, executed
deliveries, transport retransmissions, and the per-cycle step times and
every node's packet and byte counters (each stored as its length plus a
16-hex sha256 prefix, so a row stays one readable line).  The rows pin
the replay's transport and barrier bookkeeping to a stored result rather
than to a second live implementation.  They cover:

* every ``defined`` cell of the default grid at seed 1, replayed exactly
  as a sweep cell replays it (``grid/<scenario>``);
* the ``ls-flap40`` benchmark workload's replay (``flap-storm@40``
  recorded and replayed with timing seed 1000);
* default-grid cells of other seeds (``tie/<scenario>/<seed>``), picked
  while a busy node's transmit marker waited for a 2 ms poll grid
  because a node's last ACK landed exactly on a poll instant;
* lossy debugging networks, where the reliable transport retransmits:
  ``flap-storm@20``, ``partition`` and ``crash-restart`` at seeds 1-3,
  replayed over links that drop 5 % and 20 % of packets
  (``lossy/<scenario>/<seed>/<loss>``);
* link fault windows on every link of ``flap-storm``'s debugging
  network, which duplicate, reorder or gray-drop packets, ACKs included
  (``fault/<kind>/<loss>``, with the network's ``fault_stats``).

A change that moves any of these on purpose regenerates the file (see
``tests/_golden.py``), and the failing run names every moved field.

``tests/golden/ls-steps-seed1.jsonl`` pins what ``repro debug`` prints
per step of one replay (``flap-storm@20`` recorded with timing seed
1001): one row per group with its cycle count, each cycle's
``(sent, processed)`` from :meth:`LockstepCoordinator.advance_cycle` and
each step's simulated microseconds.
"""

from __future__ import annotations

import functools
import hashlib
import os
from typing import Dict, Iterator, List, Sequence, Tuple

from _fixtures import run_scenario_cell
from _golden import assert_rows

from repro.core.lockstep import LockstepCoordinator
from repro.core.ordering import make_ordering
from repro.harness import build_ls_coordinator, ospf_daemon_factory, run_ls_replay
from repro.simnet.faults import LinkFaultWindow, NetworkTuning
from repro.sweep import default_grid, get_scenario
from repro.topology import to_network

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "ls-replay-seed1.jsonl")
STEPS_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "ls-steps-seed1.jsonl")

#: ``(scenario, seed)``: further default-grid cells, found by scanning
#: seeds 1-24 of flap-storm, partition, crash-restart and latency-jitter
#: for an ACK landing on an instant of the former poll grid.
TIE_CELLS = (
    ("flap-storm", 6), ("flap-storm", 8), ("flap-storm", 14),
    ("partition", 6), ("partition", 8),
)
LOSSY_SCENARIOS = ("flap-storm@20", "partition", "crash-restart")
LOSSY_SEEDS = (1, 2, 3)
LOSSES = (0.05, 0.2)

#: Fault windows on every link of the debugging network: duplicated and
#: reordered packets (ACKs included), and gray loss.
FAULTS = (
    ("duplicate", dict(probability=0.3)),
    ("reorder", dict(probability=0.3, magnitude_us=3_000)),
    ("gray", dict(loss=0.2)),
)
FAULT_LOSSES = (0.0, 0.1)


def _record(name: str, seed: int, network_seed: int):
    """Production run of scenario ``name``, as a sweep cell runs it."""
    scenario = get_scenario(name)
    prod = run_scenario_cell(name, "defined", network_seed=network_seed, seed=seed)
    daemon_factory = scenario.daemon(prod.graph) if scenario.daemon else None
    return scenario, prod.graph, daemon_factory, prod


def _lossy_replay(graph, recording, ordering, daemon_factory, loss, tuning=None):
    """``run_ls_replay`` over a debugging network whose links drop packets
    (and, with ``tuning``, run link fault windows)."""
    net = to_network(graph, seed=1_000, jitter_us=200, loss=loss)
    net.install_tuning(tuning)
    coordinator = LockstepCoordinator(net, recording, ordering=make_ordering(ordering))
    coordinator.attach(daemon_factory or ospf_daemon_factory(graph))
    coordinator.start()
    cycles = coordinator.run_all()
    return coordinator, net, cycles


def _bulk(values: Sequence[str], sep: str) -> Tuple[int, str]:
    """A bulky field as its length and the first 16 hex digits of the
    sha256 of its ``sep``-joined text."""
    text = sep.join(values)
    return len(values), hashlib.sha256(text.encode()).hexdigest()[:16]


def _row(label: str, coordinator, net, cycles: int) -> Dict:
    stats = net.run_stats
    retransmissions = sum(
        stack.transport.retransmissions for _nid, stack in sorted(coordinator.stacks.items())
    )
    steps, steps_sha = _bulk([str(t) for t in stats.step_times_us], ",")
    nodes, nodes_sha = _bulk([
        f"{nid}:{s.control_packets_sent},{s.control_packets_received},"
        f"{s.data_packets_sent},{s.data_packets_received},{s.bytes_sent}"
        for nid, s in sorted(stats.per_node.items())
    ], ";")
    return {
        "label": label,
        "fingerprint": net.execution_fingerprint(),
        "cycles": cycles,
        "executed": stats.total_deliveries(),
        "retransmissions": retransmissions,
        "steps": steps,
        "steps_sha": steps_sha,
        "nodes": nodes,
        "nodes_sha": nodes_sha,
    }


@functools.lru_cache(maxsize=1)
def replay_rows() -> Tuple[Dict, ...]:
    """One row per pinned replay, in a fixed order."""
    return tuple(_replays())


def _replays() -> Iterator[Dict]:
    grid = [
        (name, 1) for name in default_grid()
        if "defined" in get_scenario(name).modes
    ]
    for name, seed in grid + list(TIE_CELLS):
        scenario, graph, daemon_factory, prod = _record(name, seed, seed)
        replay = run_ls_replay(
            graph, prod.recording, ordering=scenario.ordering, daemon_factory=daemon_factory
        )
        assert replay.fingerprint == prod.fingerprint, (name, seed)
        label = f"grid/{name}" if seed == 1 else f"tie/{name}/{seed}"
        yield _row(label, replay.coordinator, replay.network, replay.cycles)

    scenario, graph, daemon_factory, prod = _record("flap-storm@40", 1, 1_000)
    replay = run_ls_replay(
        graph, prod.recording, ordering=scenario.ordering, seed=1_000,
        jitter_us=scenario.jitter_us, daemon_factory=daemon_factory,
    )
    assert replay.fingerprint == prod.fingerprint
    yield _row("ls-flap40", replay.coordinator, replay.network, replay.cycles)

    for name in LOSSY_SCENARIOS:
        for seed in LOSSY_SEEDS:
            scenario, graph, daemon_factory, prod = _record(name, seed, seed)
            for loss in LOSSES:
                coordinator, net, cycles = _lossy_replay(
                    graph, prod.recording, scenario.ordering, daemon_factory, loss
                )
                assert net.execution_fingerprint() == prod.fingerprint, (name, seed, loss)
                yield _row(f"lossy/{name}/{seed}/{loss}", coordinator, net, cycles)

    # fault windows can reorder or duplicate an ACK, so the transport
    # sends ACKs as ordinary packets there; the replay's results must not
    # tell the difference
    scenario, graph, daemon_factory, prod = _record("flap-storm", 1, 1)
    links = tuple(sorted(link.link_id for link in to_network(graph).links.values()))
    for kind, params in FAULTS:
        for loss in FAULT_LOSSES:
            tuning = NetworkTuning(link_faults=(LinkFaultWindow(kind=kind, links=links, **params),))
            coordinator, net, cycles = _lossy_replay(
                graph, prod.recording, scenario.ordering, daemon_factory, loss, tuning
            )
            assert net.execution_fingerprint() == prod.fingerprint, (kind, loss)
            row = _row(f"fault/{kind}/{loss}", coordinator, net, cycles)
            row["fault_stats"] = dict(sorted(net.fault_stats.items()))
            yield row


def test_replays_match_their_golden_rows():
    assert_rows(GOLDEN, replay_rows(), key=("label",))


def test_the_lossy_replays_retransmit():
    """The lossy third of the pin exercises what it is there for."""
    retransmitting: List[Tuple[str, int]] = [
        (row["label"], row["retransmissions"]) for row in replay_rows()
        if row["label"].startswith("lossy/") and row["retransmissions"] > 0
    ]
    assert len(retransmitting) == len(LOSSY_SCENARIOS) * len(LOSSY_SEEDS) * len(LOSSES)


def test_the_fault_windows_fire():
    """Every fault-window replay of the pin meets its fault: each kind
    counts its own effect on every run."""
    effect = {"duplicate": "duplicated", "reorder": "reordered", "gray": "gray_drops"}
    rows = [row for row in replay_rows() if row["label"].startswith("fault/")]
    assert len(rows) == len(FAULTS) * len(FAULT_LOSSES)
    for row in rows:
        kind = row["label"].split("/")[1]
        assert row["fault_stats"][effect[kind]] > 0, row["label"]


def test_each_group_steps_as_its_golden_row():
    """Step the ``flap-storm@20`` replay one ``advance_cycle()`` at a
    time, as ``repro debug`` does, and pin every step by group."""
    scenario, graph, _daemon_factory, prod = _record("flap-storm@20", 1, 1_001)
    coordinator = build_ls_coordinator(graph, prod.recording, ordering=scenario.ordering)
    step_times = coordinator.network.run_stats.step_times_us
    rows: Dict[int, Dict] = {}
    while not coordinator.finished:
        sent, processed = coordinator.advance_cycle()
        row = rows.setdefault(
            coordinator.current_group,
            {"group": coordinator.current_group, "cycles": 0, "counts": [], "step_us": []},
        )
        row["cycles"] += 1
        row["counts"].append([sent, processed])
        row["step_us"].append(step_times[-1])
    assert coordinator.network.execution_fingerprint() == prod.fingerprint
    assert sum(row["cycles"] for row in rows.values()) == 359
    assert_rows(STEPS_GOLDEN, rows.values(), key=("group",))
