"""History-window headroom: slack exhaustion must be surfaced, loudly.

The DEFINED-RB shim guarantees ordering only within its sliding history
window (:meth:`DefinedShim.window_us`).  An arrival that sorts below an
already-pruned entry is delivered unordered and counted in
``late_deliveries`` -- previously *silently*.  These tests pin the new
behavior: every such delivery emits a structured
:class:`HistoryWindowWarning` naming the node and a lower bound on the
slack deficit, while correctly-sized windows stay warning-free.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.history import DeliveredHistory, HistoryEntry
from repro.core.ordering import OptimizedOrdering
from repro.core.shim import HistoryWindowWarning
from repro.harness import run_production
from repro.sweep import get_scenario


def _run(name: str, window_us, jitter_us, seed=1):
    scenario = get_scenario(name)
    graph = scenario.topology(seed)
    schedule = scenario.schedule(graph, seed)
    return run_production(
        graph, schedule, mode="defined", seed=seed, jitter_us=jitter_us,
        measure_convergence=False, settle_us=scenario.settle_us,
        tail_us=scenario.tail_us, window_us=window_us,
    )


class TestSlackExhaustionWarns:
    def test_undersized_window_emits_structured_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = _run("latency-jitter", window_us=100_000, jitter_us=300_000)
        assert result.late_deliveries > 0
        emitted = [
            w.message for w in caught
            if issubclass(w.category, HistoryWindowWarning)
        ]
        # warnings fire on the first late delivery per node and on each
        # deficit escalation -- bounded, never O(late_deliveries) spam
        assert emitted
        assert len(emitted) <= result.late_deliveries
        per_node_deficits: dict = {}
        for w in emitted:
            if w.deficit_us is not None:
                prior = per_node_deficits.get(w.node_id, -1)
                assert w.deficit_us > prior, "warnings must escalate"
                per_node_deficits[w.node_id] = w.deficit_us
        first = emitted[0]
        assert first.node_id in {"a", "b", "c", "d"}
        assert first.window_us == 100_000
        assert first.deficit_us is not None and first.deficit_us > 0
        assert "short by >=" in str(first)
        assert "raise window_us" in str(first)

    def test_pytest_warns_idiom_works(self):
        with pytest.warns(HistoryWindowWarning, match="window exhausted"):
            _run("latency-jitter", window_us=50_000, jitter_us=400_000)

    def test_default_window_holds_on_diamond_jitter_envelope(self):
        """The ROADMAP's measured envelope: up to 5ms of delivery jitter
        the default window keeps every arrival ordered -- no late
        deliveries, no warnings."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = _run("latency-jitter", window_us=None, jitter_us=5_000)
        assert result.late_deliveries == 0
        assert not [
            w for w in caught if issubclass(w.category, HistoryWindowWarning)
        ]


class TestWarningThrottling:
    """The warning contract, pinned: one warning on the first late
    delivery, one more per deficit *escalation*, never one per event --
    while the structured stats record every single deficit."""

    def _shim(self):
        """A started two-node DEFINED net (no daemon); node a's shim."""
        from _fixtures import graph_of

        from repro.core.shim import DefinedShim
        from repro.topology import to_network

        net = to_network(graph_of([("a", "b", 2_000)]), seed=0, jitter_us=0)
        net.attach(lambda node: DefinedShim(node))
        net.start()
        return net.nodes["a"].stack

    def _late_entry(self, shim, seq):
        from repro.core.history import HistoryEntry
        from repro.simnet.events import ExternalEvent

        return HistoryEntry(
            kind="ext",
            key=shim.ordering.external_key(0, "a", seq),
            event=ExternalEvent(time_us=0, kind="link_down", target=("a", "b")),
            group=0,
            seq=seq,
        )

    def _arm_pruned_window(self, shim, pruned_at_us):
        """Make every group-0 arrival sort below the pruned boundary."""
        shim.history.last_pruned_key = shim.ordering.external_key(5, "a", 999)
        shim.history.last_pruned_at_us = pruned_at_us

    def test_repeated_same_deficit_warns_once(self):
        shim = self._shim()
        self._arm_pruned_window(shim, pruned_at_us=0)
        # sim.now stays put between admissions: identical deficits
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for seq in range(5):
                shim._admit(self._late_entry(shim, seq))
        emitted = [
            w.message for w in caught
            if issubclass(w.category, HistoryWindowWarning)
        ]
        assert shim.late_deliveries == 5
        assert len(emitted) == 1
        assert emitted[0].late_count == 1
        # ...but the distribution recorded all five
        assert shim.headroom_stats().late_count == 5

    def test_only_escalating_deficits_rewarn(self):
        shim = self._shim()
        sim = shim.sim
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # deficit D1, repeated (one warning)
            self._arm_pruned_window(shim, pruned_at_us=0)
            shim._admit(self._late_entry(shim, 0))
            shim._admit(self._late_entry(shim, 1))
            # deficit shrinks (pruned boundary is *younger*): no re-warn
            self._arm_pruned_window(shim, pruned_at_us=sim.now)
            sim.run(until_us=sim.now + 10_000)
            shim._admit(self._late_entry(shim, 2))
            # deficit escalates past D1: exactly one more warning
            self._arm_pruned_window(shim, pruned_at_us=0)
            sim.run(until_us=sim.now + shim.window_us() + 1_000_000)
            shim._admit(self._late_entry(shim, 3))
        emitted = [
            w.message for w in caught
            if issubclass(w.category, HistoryWindowWarning)
        ]
        assert [w.late_count for w in emitted] == [1, 4]
        assert emitted[1].deficit_us > emitted[0].deficit_us

    def test_structured_stats_agree_with_warned_lower_bounds(self):
        """End to end on a real undersized run: the warned deficits must
        be a subset of the recorded distribution, the largest warned
        deficit must equal the recorded max, and the warned late counts
        must stay within the recorded total."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = _run("latency-jitter", window_us=100_000, jitter_us=300_000)
        emitted = [
            w.message for w in caught
            if issubclass(w.category, HistoryWindowWarning)
        ]
        assert emitted and result.headroom is not None
        stats = result.headroom
        assert stats.window_us == 100_000
        assert stats.late_count == result.late_deliveries > 0
        warned_deficits = [
            w.deficit_us for w in emitted if w.deficit_us is not None
        ]
        # warnings only fire on escalation, so the largest warned deficit
        # IS the distribution's max...
        assert max(warned_deficits) == stats.max_deficit_us
        # ...every warned bound sits inside the distribution's range...
        assert all(0 <= d <= stats.max_deficit_us for d in warned_deficits)
        # ...and far fewer warnings fired than deficits were recorded
        assert len(emitted) <= stats.late_count
        assert stats.p50_deficit_us <= stats.p90_deficit_us
        assert stats.p90_deficit_us <= stats.p99_deficit_us <= stats.max_deficit_us


class TestPrunedBoundaryTracking:
    def test_history_records_pruned_delivery_time(self):
        ordering = OptimizedOrdering()
        history = DeliveredHistory()
        assert history.last_pruned_at_us is None
        for group, at_us in ((1, 100), (2, 200), (3, 300)):
            entry = HistoryEntry(
                kind="ext",
                key=ordering.external_key(group, "n0", group),
                group=group,
            )
            entry.delivered_at_us = at_us
            history.append(entry)
        assert history.prune_before_time(250) == 2
        assert history.last_pruned_at_us == 200
        assert history.last_pruned_key is not None
