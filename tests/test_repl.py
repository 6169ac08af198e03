"""Tests for the interactive debugger console."""

import io

import pytest

from _fixtures import flap_schedule, square_graph

from repro.core.debugger import Debugger
from repro.harness import build_ls_coordinator, run_production
from repro.repl import DebugConsole


@pytest.fixture(scope="module")
def production():
    square = square_graph()
    return square, run_production(
        square, flap_schedule(("b", "c")), mode="defined", seed=3
    )


def make_console(production, script=None):
    square, prod = production
    coordinator = build_ls_coordinator(square, prod.recording, seed=12, jitter_us=300)
    lines = iter(script or [])
    out = io.StringIO()
    console = DebugConsole(
        Debugger(coordinator),
        input_fn=lambda prompt: next(lines),
        output=out,
    )
    return console, out


def run_script(production, commands):
    console, out = make_console(production, commands)
    console.loop()
    return out.getvalue()


class TestCommands:
    def test_step_reports_progress(self, production):
        text = run_script(production, ["step", "quit"])
        assert "group=0" in text and "processed=" in text

    def test_step_n(self, production):
        text = run_script(production, ["step 3", "where", "quit"])
        assert text.count("processed=") >= 3

    def test_group_and_where(self, production):
        text = run_script(production, ["group", "where", "quit"])
        assert "group 0" in text or "group 1" in text

    def test_run_to_end(self, production):
        text = run_script(production, ["run", "quit"])
        assert "recording exhausted" in text

    def test_break_on_delivery_then_run(self, production):
        text = run_script(production, ["break link_down", "run", "quit"])
        assert "breakpoint hit" in text
        assert "recording exhausted" not in text

    def test_break_on_state_expression(self, production):
        # note: shlex strips quotes, so expressions must be quote-free
        text = run_script(
            production,
            ["break b daemon.my_seq > 1", "run", "quit"],
        )
        assert "breakpoint hit: state@b" in text

    def test_raising_state_expression_pauses_with_the_error(self, production):
        text = run_script(
            production, ["break b daemon.nope > 1", "run", "breaks", "run", "quit"]
        )
        assert "breakpoint #0: state@b:daemon.nope > 1" in text
        assert "breakpoint #0 error: " in text and "nope" in text
        assert "[disabled]" in text  # so the second run goes on
        assert "recording exhausted" in text

    def test_state_expression_syntax_error_is_answered_at_once(self, production):
        text = run_script(production, ["break b daemon.lsdb >", "breaks", "quit"])
        assert "error: invalid syntax" in text
        assert "no breakpoints" in text

    def test_breaks_and_delete(self, production):
        text = run_script(
            production,
            ["break x", "breaks", "delete 0", "breaks", "quit"],
        )
        assert "#0 delivery~'x'" in text
        assert "no breakpoints" in text

    def test_inspect_and_queue(self, production):
        text = run_script(production, ["step", "inspect a", "queue a", "quit"])
        assert "node a (group" in text
        assert "lsdb:" in text

    def test_inspect_unknown_node(self, production):
        text = run_script(production, ["inspect zz", "quit"])
        assert "unknown node" in text

    def test_queue_unknown_node(self, production):
        text = run_script(production, ["queue zz", "where", "quit"])
        assert "unknown node 'zz'" in text
        assert text.count("horizon group") == 2  # the session went on

    @pytest.mark.parametrize("count", ["x", "0", "-2"])
    def test_step_with_a_count_that_is_not_positive(self, production, count):
        text = run_script(production, [f"step {count}", "where", "quit"])
        assert "usage: step [n]" in text
        assert "processed=" not in text
        assert text.count("horizon group") == 2
        assert text.count("group -1 cycle 0") == 2  # nothing advanced

    @pytest.mark.parametrize("index", ["-1", "2"])
    def test_delete_out_of_range_changes_nothing(self, production, index):
        text = run_script(
            production,
            ["break x", "break y", f"delete {index}", "breaks", "quit"],
        )
        assert "usage: delete <breakpoint-index>" in text
        assert "deleted" not in text
        assert "#0 delivery~'x'" in text and "#1 delivery~'y'" in text

    def test_nodes_listing(self, production):
        text = run_script(production, ["nodes", "quit"])
        for node in ("a", "b", "c", "d"):
            assert f"{node}: active" in text

    def test_set_modifies_daemon_state(self, production):
        console, out = make_console(
            production, ["step", "set a daemon.hello_count = 777", "quit"]
        )
        console.loop()
        daemon = console.debugger.coordinator.network.nodes["a"].daemon
        assert daemon.hello_count >= 777
        assert "state modified" in out.getvalue()

    def test_set_error_is_reported_not_raised(self, production):
        text = run_script(production, ["step", "set a daemon.nope.nope = 1", "quit"])
        assert "error:" in text

    def test_unknown_command(self, production):
        text = run_script(production, ["frobnicate", "quit"])
        assert "unknown command" in text

    def test_help(self, production):
        text = run_script(production, ["help", "quit"])
        assert "inspect <node>" in text

    def test_eof_terminates(self, production):
        console, out = make_console(production, [])
        console.loop()  # input_fn raises StopIteration -> treated as EOF?
        assert "DEFINED interactive debugger" in out.getvalue()

    def test_parse_error_handled(self, production):
        text = run_script(production, ['inspect "unterminated', "quit"])
        assert "parse error" in text
