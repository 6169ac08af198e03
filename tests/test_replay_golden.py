"""The DEFINED-LS replay pinned to a stored digest.

The lockstep replay's simulated results -- per-cycle step times, the
execution fingerprint, the cycle count, executed deliveries, transport
retransmissions and every node's packet and byte counters -- are folded
into one sha256 and compared with ``tests/golden/ls-replay-seed1.digest``.
The digest pins the replay's transport and barrier bookkeeping to a
stored result rather than to a second live implementation.  It covers:

* every ``defined`` cell of the default grid at seed 1, replayed exactly
  as a sweep cell replays it;
* the ``ls-flap40`` benchmark workload's replay (``flap-storm@40``
  recorded and replayed with timing seed 1000);
* the default-grid cells of other seeds whose replay has a node's last
  ACK landing exactly on an instant of its 2 ms poll grid, where the
  engine's tie order decides which poll sees it;
* lossy debugging networks, where the reliable transport retransmits:
  ``flap-storm@20``, ``partition`` and ``crash-restart`` at seeds 1-3,
  replayed over links that drop 5 % and 20 % of packets.

A change that moves any of these on purpose regenerates the file with::

    PYTHONPATH=src:tests python -c \\
        "import test_replay_golden as g; print(g.replay_digest())" \\
        > tests/golden/ls-replay-seed1.digest
"""

from __future__ import annotations

import functools
import hashlib
import os
from typing import Iterator, List, Tuple

from _fixtures import run_scenario_cell

from repro.core.lockstep import LockstepCoordinator
from repro.core.ordering import make_ordering
from repro.harness import ospf_daemon_factory, run_ls_replay
from repro.simnet.faults import LinkFaultWindow, NetworkTuning
from repro.sweep import get_scenario, scenario_names
from repro.topology import to_network

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "ls-replay-seed1.digest")

#: ``(scenario, seed)``: an ACK lands on a poll instant in the replay
#: (found by scanning seeds 1-24 of flap-storm, partition, crash-restart
#: and latency-jitter).
TIE_CELLS = (
    ("flap-storm", 6), ("flap-storm", 8), ("flap-storm", 14),
    ("partition", 6), ("partition", 8),
)
LOSSY_SCENARIOS = ("flap-storm@20", "partition", "crash-restart")
LOSSY_SEEDS = (1, 2, 3)
LOSSES = (0.05, 0.2)


def _record(name: str, seed: int, network_seed: int):
    """Production run of scenario ``name``, as a sweep cell runs it."""
    scenario = get_scenario(name)
    graph = scenario.topology(seed)
    daemon_factory = scenario.daemon(graph) if scenario.daemon else None
    prod = run_scenario_cell(name, "defined", network_seed=network_seed, seed=seed)
    return scenario, graph, daemon_factory, prod


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


def _summary(label: str, coordinator, net, cycles: int) -> str:
    stats = net.run_stats
    retransmissions = sum(
        stack.transport.retransmissions for _nid, stack in sorted(coordinator.stacks.items())
    )
    nodes = ";".join(
        f"{nid}:{s.control_packets_sent},{s.control_packets_received},"
        f"{s.data_packets_sent},{s.data_packets_received},{s.bytes_sent}"
        for nid, s in sorted(stats.per_node.items())
    )
    steps = ",".join(str(t) for t in stats.step_times_us)
    return (
        f"{label}|{net.execution_fingerprint()}|{cycles}|"
        f"{stats.total_deliveries()}|{retransmissions}|{steps}|{nodes}"
    )


@functools.lru_cache(maxsize=1)
def replay_summaries() -> Tuple[str, ...]:
    """One line per pinned replay, in a fixed order."""
    return tuple(_replays())


def _replays() -> Iterator[str]:
    grid = [
        (name, 1) for name in scenario_names(include_sized=False)
        if "defined" in get_scenario(name).modes
    ]
    for name, seed in grid + list(TIE_CELLS):
        scenario, graph, daemon_factory, prod = _record(name, seed, seed)
        replay = run_ls_replay(
            graph, prod.recording, ordering=scenario.ordering, daemon_factory=daemon_factory
        )
        assert replay.fingerprint == prod.fingerprint, (name, seed)
        label = f"grid/{name}" if seed == 1 else f"tie/{name}/{seed}"
        yield _summary(label, replay.coordinator, replay.network, replay.cycles)

    scenario, graph, daemon_factory, prod = _record("flap-storm@40", 1, 1_000)
    replay = run_ls_replay(
        graph, prod.recording, ordering=scenario.ordering, seed=1_000,
        jitter_us=scenario.jitter_us, daemon_factory=daemon_factory,
    )
    assert replay.fingerprint == prod.fingerprint
    yield _summary("ls-flap40", replay.coordinator, replay.network, replay.cycles)

    for name in LOSSY_SCENARIOS:
        for seed in LOSSY_SEEDS:
            scenario, graph, daemon_factory, prod = _record(name, seed, seed)
            for loss in LOSSES:
                coordinator, net, cycles = _lossy_replay(
                    graph, prod.recording, scenario.ordering, daemon_factory, loss
                )
                assert net.execution_fingerprint() == prod.fingerprint, (name, seed, loss)
                yield _summary(f"lossy/{name}/{seed}/{loss}", coordinator, net, cycles)


def replay_digest() -> str:
    digest = hashlib.sha256()
    for line in replay_summaries():
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_replays_match_the_stored_digest():
    with open(GOLDEN, encoding="ascii") as fh:
        assert replay_digest() == fh.read().strip()


#: Fault windows on every link of the debugging network: duplicated and
#: reordered packets (ACKs included), and gray loss.
FAULTS = (
    ("duplicate", dict(probability=0.3)),
    ("reorder", dict(probability=0.3, magnitude_us=3_000)),
    ("gray", dict(loss=0.2)),
)
#: Recorded from the implementation that delivered every ACK and poll as
#: an engine event.
FAULTS_DIGEST = "55a1ca907a55740595005bab285b3003c02d0fc8dd4dc7b122e2856453d4503f"


def test_replays_over_link_fault_windows_match_their_pin():
    """Fault windows can reorder or duplicate an ACK, so the transport
    sends ACKs as ordinary packets there; the replay's results must not
    tell the difference."""
    scenario, graph, daemon_factory, prod = _record("flap-storm", 1, 1)
    links = tuple(sorted(link.link_id for link in to_network(graph).links.values()))
    digest = hashlib.sha256()
    for kind, params in FAULTS:
        for loss in (0.0, 0.1):
            tuning = NetworkTuning(link_faults=(LinkFaultWindow(kind=kind, links=links, **params),))
            coordinator, net, cycles = _lossy_replay(
                graph, prod.recording, scenario.ordering, daemon_factory, loss, tuning
            )
            assert net.execution_fingerprint() == prod.fingerprint, (kind, loss)
            line = _summary(f"{kind}/{loss}", coordinator, net, cycles)
            digest.update(f"{line}|{sorted(net.fault_stats.items())}\n".encode())
    assert digest.hexdigest() == FAULTS_DIGEST


def test_the_lossy_replays_retransmit():
    """The lossy third of the pin exercises what it is there for."""
    retransmitting: List[Tuple[str, int]] = []
    for line in replay_summaries():
        label, _fp, _cycles, _executed, retransmissions = line.split("|")[:5]
        if label.startswith("lossy/") and int(retransmissions) > 0:
            retransmitting.append((label, int(retransmissions)))
    assert len(retransmitting) == len(LOSSY_SCENARIOS) * len(LOSSY_SEEDS) * len(LOSSES)
