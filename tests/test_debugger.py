"""Tests for the interactive debugger on top of DEFINED-LS."""

import pytest

from _fixtures import flap_schedule, square_graph

from repro.core.debugger import Breakpoint, Debugger
from repro.harness import build_ls_coordinator, run_production


@pytest.fixture(scope="module")
def production():
    square = square_graph()
    flap = flap_schedule(("b", "c"))
    return square, run_production(square, flap, mode="defined", seed=3)


def make_debugger(production):
    square, prod = production
    return Debugger(build_ls_coordinator(square, prod.recording, seed=5, jitter_us=300))


class TestStepping:
    def test_step_reports_progress(self, production):
        debugger = make_debugger(production)
        report = debugger.step()
        assert report.group == 0
        assert report.processed > 0
        assert "group=0" in report.summary()

    def test_step_group_quiesces_group(self, production):
        debugger = make_debugger(production)
        debugger.step_group()
        assert not debugger.coordinator.in_group

    def test_run_to_completion(self, production):
        debugger = make_debugger(production)
        debugger.run()
        assert debugger.finished


class TestBreakpoints:
    def test_break_on_delivery_pauses(self, production):
        square, prod = production
        debugger = make_debugger(production)
        bp = debugger.break_on_delivery("link_down", node="b")
        report = debugger.run()
        assert not debugger.finished
        assert report.hit_breakpoint == bp.name
        assert bp.hits == 1
        # the triggering delivery is visible at the paused position
        assert any(
            "link_down" in tag for tag in debugger.coordinator.group_deliveries()["b"]
        )

    def test_one_shot_breakpoint_disables_after_hit(self, production):
        debugger = make_debugger(production)
        bp = debugger.break_on_delivery("link_down", one_shot=True)
        debugger.run()
        assert not bp.enabled
        debugger.run()
        assert debugger.finished

    def test_break_on_state_predicate(self, production):
        square, prod = production
        debugger = make_debugger(production)
        down_group = next(
            e.group for e in prod.recording.events if e.kind == "link_down"
        )
        debugger.break_on_state(
            "b", lambda daemon: not daemon.live_interfaces.get("c", True)
        )
        report = debugger.run()
        assert report.hit_breakpoint == "state@b"
        assert debugger.coordinator.current_group == down_group

    def test_clear_breakpoints(self, production):
        debugger = make_debugger(production)
        debugger.break_on_delivery("link_down")
        debugger.clear_breakpoints()
        debugger.run()
        assert debugger.finished

    def test_manual_breakpoint_counts_hits(self, production):
        debugger = make_debugger(production)
        bp = debugger.add_breakpoint(
            "every-group-2", lambda c: c.current_group == 2, one_shot=False
        )
        debugger.run()  # pauses on the first cycle of group 2
        assert bp.hits >= 1


class TestInspection:
    def test_inspect_returns_daemon_state_and_queues(self, production):
        debugger = make_debugger(production)
        debugger.step()
        view = debugger.inspect("a")
        assert view["node"] == "a"
        assert "lsdb" in view["daemon_state"]
        assert isinstance(view["pending_inputs"], list)
        assert view["active"]

    def test_pending_messages_human_readable(self, production):
        debugger = make_debugger(production)
        debugger.step()
        pending = debugger.pending_messages("a")
        assert all(isinstance(tag, str) for tag in pending)

    def test_modify_applies_and_persists(self, production):
        debugger = make_debugger(production)
        debugger.step()

        def patch(daemon):
            daemon.hello_count = 4_242

        debugger.modify("a", patch)
        debugger.step_group()
        assert debugger.coordinator.network.nodes["a"].daemon.hello_count >= 4_242

    def test_modification_survives_an_insertion_before_processed_inputs(
        self, production
    ):
        """A later wave that sorts *before* inputs the node processed
        ahead of the edit rewinds onto the rebased baseline, never onto a
        per-delivery checkpoint taken before the edit."""
        # dry run: the first step after which some node's deliveries in
        # the group are no longer an extension of what it had -- a later
        # wave landed in the middle of its processed inputs
        scout = make_debugger(production).coordinator
        before, target = {}, None
        while target is None and not scout.finished:
            scout.advance_cycle()
            after = scout.group_deliveries()
            for node, had in before.items():
                if scout.cycle > 1 and had and after[node][: len(had)] != had:
                    target = (len(scout.network.run_stats.step_times_us) - 1, node)
                    break
            before = after
        assert target is not None, "the recording has no mid-history insertion"
        steps, node = target

        debugger = make_debugger(production)
        for _ in range(steps):
            debugger.step()
        stack = debugger.coordinator.stacks[node]
        processed_before_edit = stack.group_deliveries()
        assert len(processed_before_edit) > 1 and stack._store.retained_snapshots() > 1

        def patch(daemon):
            daemon.hello_count = 4_242

        debugger.modify(node, patch)
        # every pre-edit per-delivery version is gone: nothing to land on
        assert stack._store.retained_snapshots() == 0
        assert len(stack.history) == 0

        debugger.step()  # the inserting wave
        daemon = debugger.coordinator.network.nodes[node].daemon
        assert daemon.hello_count >= 4_242
        # it re-ran the inputs processed before the edit, in key order,
        # with the late arrival in the middle rather than at the end
        rerun = stack.group_deliveries()
        assert rerun == [e.tag() for e in stack.pending_inputs()]
        assert set(processed_before_edit) < set(rerun)
        assert rerun[: len(processed_before_edit)] != processed_before_edit
        debugger.step_group()
        assert daemon.hello_count >= 4_242

    def test_modify_unknown_daemon_rejected(self, production):
        debugger = make_debugger(production)
        debugger.coordinator.network.nodes["a"].daemon = None
        with pytest.raises(ValueError):
            debugger.modify("a", lambda daemon: None)


class TestBreakpointObject:
    def test_disabled_breakpoint_never_fires(self):
        bp = Breakpoint(name="x", predicate=lambda c: True, enabled=False)
        assert not bp.check(None)

    def test_hits_accumulate(self):
        bp = Breakpoint(name="x", predicate=lambda c: True)
        bp.check(None)
        bp.check(None)
        assert bp.hits == 2
