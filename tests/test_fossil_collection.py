"""Fossil collection for the pruned-delivery map (``DefinedShim._pruned_uid_log``).

The map keeps what an unsend that outran the history window needs to
still excise its target's tag.  Its entries are dropped by a forward
invariant (proved in the attribute's docstring): no anti-message leaves
later than its output's send plus the window, so none arrives after the
send plus window plus the longest link -- the entry's *expiry*.

The boundary tests pin the rule and the collection on a hand-built line
``a - b - c`` without beacons, where every instant is chosen by hand.  The
audit observes whole runs through :func:`repro.explain.audited`, which
traces the three places the bound is decided (``_unsend_outputs``,
``_retract_pruned``, ``_rollback``) without changing the program, and
asserts the invariant's premises held there: no output the rule had to
suppress, no pruned-map hit past its expiry, no rollback anchored past
the window.
"""

from __future__ import annotations

import warnings
from typing import List

import pytest

from _fixtures import graph_of, run_scenario_cell

from repro.core.shim import HOLD_SLACK_US, DefinedShim, HistoryWindowWarning
from repro.explain import ROLLBACK, UNSEND, Record, audited
from repro.simnet.messages import Message, Unsend
from repro.sweep import SweepRunner
from repro.topology import to_network

WINDOW = 1_000_000
#: ``a - b`` 2 ms and ``b - c`` 3 ms, no jitter: the longest link is 3 ms.
LINE = [("a", "b", 2_000), ("b", "c", 3_000)]


def line():
    """Daemon-less shims on :data:`LINE`, started; no beacons, so nothing
    prunes unless a test calls ``_prune_window``."""
    net = to_network(graph_of(LINE), jitter_us=0)
    net.attach(lambda node: DefinedShim(node, window_us=WINDOW))
    net.start()
    return net, net.nodes["a"].stack, net.nodes["b"].stack


def pings(net, sender, at_us: List[int]) -> List[Message]:
    """``sender`` pings ``b`` at each time; returns the delivered messages."""
    receiver = net.nodes["b"].stack
    for t in at_us:
        net.run(until_us=t)
        sender.send("b", "ping", t)
    net.run(until_us=at_us[-1] + 10_000)
    return [entry.msg for entry in receiver.history]


class TestTheRule:
    """``_unsend_outputs`` unsends an output no older than the window."""

    def test_an_output_aged_exactly_the_window_is_unsent(self):
        net, a, b = line()
        (msg,) = pings(net, a, [0])
        net.run(until_us=msg.sent_at_us + WINDOW)
        a._unsend_outputs([msg])
        net.run()
        assert a.node.stats.unsends_sent == b.node.stats.unsends_received == 1
        assert len(b.history) == 0  # rolled back out of the window
        assert a.late_deliveries == a.pruned_retractions == 0

    def test_one_microsecond_older_sends_nothing_and_counts_one_late_delivery(self):
        net, a, b = line()
        (msg,) = pings(net, a, [0])
        net.run(until_us=msg.sent_at_us + WINDOW + 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            a._unsend_outputs([msg])
        assert [w.category for w in caught] == [HistoryWindowWarning]
        net.run()
        assert a.node.stats.unsends_sent == b.node.stats.unsends_received == 0
        assert [e.msg for e in b.history] == [msg]
        assert a.late_deliveries == a.pruned_retractions == 1
        assert a.deficit_samples_us == [1]
        assert a.headroom_stats().late_count == 1


class TestCollection:
    """Pings sent at ``T0`` and ``T0 + 1 ms`` reach ``b`` at ``T0 + 2 ms``
    and ``T0 + 3 ms``.  A prune at ``T0 + W + 3 ms`` drops the first from
    the window (the second is the ``keep_min`` anchor); its expiry is
    ``T0 + W + 3 ms``.  ``T0`` lies past the boot group's playout hold
    (estimate 2 ms + hop cost + :data:`HOLD_SLACK_US`), so each ping is
    admitted as it arrives."""

    T0 = 2 * HOLD_SLACK_US

    @pytest.mark.parametrize("first_prune_us", [WINDOW + 2_500, WINDOW + 3_000])
    def test_an_entry_expiring_now_survives_this_prune_and_not_the_next(
        self, first_prune_us
    ):
        """Whether the prune at the expiry inserts the entry or collects
        around one inserted earlier, the entry is still there after it."""
        t0 = self.T0
        net, a, b = line()
        first, _second = pings(net, a, [t0, t0 + 1_000])
        expiry = first.sent_at_us + WINDOW + 3_000
        for now in sorted({t0 + first_prune_us, expiry}):
            net.run(until_us=now)
            b._prune_window()
            assert b._pruned_uid_log == {first.uid: (0, t0 + 2_000, expiry)}
        net.run(until_us=expiry + 1)
        b._prune_window()
        assert b._pruned_uid_log == {}

    def test_an_entry_already_expired_when_pruned_is_never_inserted(self):
        t0 = self.T0
        net, a, b = line()
        pings(net, a, [t0, t0 + 1_000])
        net.run(until_us=t0 + WINDOW + 3_001)
        b._prune_window()
        assert b.history.total_pruned == 1
        assert b._pruned_uid_log == {}

    def test_an_unsend_inside_the_bound_excises_the_tag_and_shifts_indices(self):
        t0 = self.T0
        net, a, b = line()
        p1, p2, p3, p4 = pings(net, a, [t0, t0 + 100, t0 + 10_000, t0 + 20_000])
        tags = list(b.delivery_log)
        net.run(until_us=t0 + WINDOW + 2_500)
        b._prune_window()
        assert [e.msg for e in b.history] == [p3, p4]
        assert set(b._pruned_uid_log) == {p1.uid, p2.uid}
        unsend = Message(src="a", dst="b", protocol="_unsend",
                         payload=Unsend(uids=(p1.uid,)))
        with pytest.warns(HistoryWindowWarning):
            b.on_wire(unsend)
        assert list(b.delivery_log) == tags[1:]
        assert b._pruned_uid_log == {
            p2.uid: (0, t0 + 2_100, t0 + 100 + WINDOW + 3_000)
        }
        assert [e.log_index for e in b.history] == [1, 2]
        assert b.late_deliveries == b.pruned_retractions == 1
        assert b.deficit_samples_us == [(WINDOW + 2_500 - 2_000) - WINDOW]

    def test_rebooting_clears_the_map(self):
        t0 = self.T0
        net, a, b = line()
        first, _second = pings(net, a, [t0, t0 + 1_000])
        net.run(until_us=t0 + WINDOW + 3_000)
        b._prune_window()
        assert first.uid in b._pruned_uid_log
        b.start()
        assert b._pruned_uid_log == {}


# ----------------------------------------------------------------------
# the audit
# ----------------------------------------------------------------------
def check(records: List[Record]) -> None:
    """Every undo step ran inside the fossil-collection bound: no output
    the rule had to count late instead of unsending, no pruned-map hit
    past its expiry, no rollback anchored past the window."""
    late = [r for r in records if r.time_us > r.deadline_us]
    assert not late, late[:3]


#: the default grid's ``defined`` scenarios (the same names for every seed)
DEFAULT_GRID = sorted(
    {c.scenario for c in SweepRunner(seeds=(1,)).grid() if c.mode == "defined"}
)
#: delivery jitter above the 250 ms beacon interval (the regime of the
#: Theorem-1 regression in test_artifact_diff.py), under its network seeds
SUPER_BEACON_US = 300_000
SUPER_BEACON_NETWORK_SEEDS = (1, 2, 3, 1001)
FORTY = ("flap-storm@40", "partition@40")
FORTY_SHARD = FORTY + ("crash-restart@40", "ddos-overload@40", "latency-jitter@40")


def audit_cell(name, seed=1, network_seed=None, jitter_us=None) -> List[Record]:
    with audited() as records:
        prod = run_scenario_cell(
            name, "defined", network_seed=seed if network_seed is None else network_seed,
            seed=seed, jitter_us=jitter_us,
        )
    check(records)
    assert prod.late_deliveries == 0
    return records


class TestAuditSeedOne:
    @pytest.mark.parametrize("name", DEFAULT_GRID)
    def test_default_grid(self, name):
        audit_cell(name)

    @pytest.mark.parametrize("network_seed", SUPER_BEACON_NETWORK_SEEDS)
    def test_super_beacon_jitter(self, network_seed):
        records = audit_cell("flap-storm@20", network_seed=network_seed,
                             jitter_us=SUPER_BEACON_US)
        kinds = {r.kind for r in records}
        assert UNSEND in kinds and ROLLBACK in kinds  # rollbacks did retract

    @pytest.mark.parametrize("name", FORTY)
    def test_forty_nodes(self, name):
        unsent = [r for r in audit_cell(name) if r.kind == UNSEND]
        # the oldest unsent output is well inside the window (0.13 s of
        # 1.10 s on flap-storm@40, 4 ms on partition@40)
        assert unsent
        assert all(
            4 * (r.time_us - r.since_us) < r.deadline_us - r.since_us for r in unsent
        )


@pytest.mark.slow
class TestAuditWide:
    """Seeds 1-3 of everything above, less the seed-1 cells tier-1 runs."""

    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("name", DEFAULT_GRID)
    def test_default_grid(self, name, seed):
        audit_cell(name, seed=seed)

    @pytest.mark.parametrize(
        "name, seed",
        [(name, seed) for seed in (1, 2, 3) for name in FORTY_SHARD
         if seed > 1 or name not in FORTY],
    )
    def test_forty_node_shard(self, name, seed):
        audit_cell(name, seed=seed)

    @pytest.mark.parametrize("network_seed", SUPER_BEACON_NETWORK_SEEDS)
    @pytest.mark.parametrize("seed", [2, 3])
    def test_super_beacon_jitter(self, seed, network_seed):
        audit_cell("flap-storm@20", seed=seed, network_seed=network_seed,
                   jitter_us=SUPER_BEACON_US)
