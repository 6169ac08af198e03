"""An interactive debugger console over DEFINED-LS.

This is the troubleshooter-facing loop the paper's title promises: load a
partial recording into a debugging network and drive it with gdb-flavored
commands.  The console is deliberately thin -- every command maps to one
:class:`~repro.core.debugger.Debugger` call -- so scripted debugging uses
the same API the console does.

Commands::

    step [n]             advance n lockstep cycles (default 1); each line's
                         processed= is the deliveries executed in that
                         cycle (re-executed suffixes), not the group's size
    group                advance to the end of the current group
    run                  run until a breakpoint or end of recording
    break <substr>       break when a delivery tag contains <substr>
    break <node> <expr>  break when eval(expr) on the node's daemon is true
                         (an expression that raises pauses the run with
                         the error and disables the breakpoint)
    breaks               list breakpoints
    delete <idx>         delete breakpoint by index
    inspect <node>       show daemon state, timers and queued inputs
    queue <node>         show the node's pending (not yet final) inputs
    nodes                list nodes with liveness and delivery counts
    where                current group/cycle/simulated time
    set <node> <stmt>    exec a statement with `daemon` bound (dangerous,
                         that is the point: manipulate state)
    quit                 leave the console

Run it from the command line::

    python -m repro.cli debug --topology ebone --recording run.json
"""

from __future__ import annotations

import shlex
from typing import Callable, List, Optional, TextIO

from repro.core.debugger import Debugger, StepReport


class DebugConsole:
    """Line-oriented debugger front end.

    ``input_fn``/``output`` are injectable for tests; the defaults wire to
    the real terminal.
    """

    PROMPT = "(defined) "

    def __init__(
        self,
        debugger: Debugger,
        input_fn: Optional[Callable[[str], str]] = None,
        output: Optional[TextIO] = None,
    ) -> None:
        self.debugger = debugger
        self._input = input_fn if input_fn is not None else input
        self._output = output

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def echo(self, text: str = "") -> None:
        if self._output is not None:
            self._output.write(text + "\n")
        else:  # pragma: no cover - interactive path
            print(text)

    def _report(self, report: StepReport) -> None:
        self.echo(report.summary())
        bp = self.debugger.last_hit
        if bp is not None and bp.error is not None:
            index = self.debugger.breakpoints.index(bp)
            self.echo(f"breakpoint #{index} error: {bp.error}")
        elif report.hit_breakpoint:
            self.echo(f"breakpoint hit: {report.hit_breakpoint}")

    # ------------------------------------------------------------------
    # command handlers
    # ------------------------------------------------------------------
    def cmd_step(self, args: List[str]) -> None:
        try:
            n = int(args[0]) if args else 1
        except ValueError:
            n = 0
        if n < 1:
            self.echo("usage: step [n]")
            return
        for _ in range(n):
            report = self.debugger.step()
            self._report(report)
            if report.hit_breakpoint or self.debugger.finished:
                break

    def cmd_group(self, args: List[str]) -> None:
        self._report(self.debugger.step_group())

    def cmd_run(self, args: List[str]) -> None:
        self._report(self.debugger.run())
        if self.debugger.finished:
            self.echo("recording exhausted")

    def cmd_break(self, args: List[str]) -> None:
        if not args:
            self.echo("usage: break <substring> | break <node> <python-expr>")
            return
        coordinator = self.debugger.coordinator
        if len(args) >= 2 and args[0] in coordinator.stacks:
            node, expr = args[0], " ".join(args[1:])
            try:
                code = compile(expr, "<break>", "eval")
            except SyntaxError as exc:
                self.echo(f"error: {exc}")
                return

            def predicate(daemon, _code=code):
                return bool(eval(_code, {"daemon": daemon}))  # noqa: S307

            bp = self.debugger.break_on_state(node, predicate,
                                              name=f"state@{node}:{expr}")
        else:
            bp = self.debugger.break_on_delivery(" ".join(args))
        self.echo(f"breakpoint #{len(self.debugger.breakpoints) - 1}: {bp.name}")

    def cmd_breaks(self, args: List[str]) -> None:
        if not self.debugger.breakpoints:
            self.echo("no breakpoints")
        for i, bp in enumerate(self.debugger.breakpoints):
            state = "enabled" if bp.enabled else "disabled"
            self.echo(f"  #{i} {bp.name} [{state}] hits={bp.hits}")

    def cmd_delete(self, args: List[str]) -> None:
        try:
            index = int(args[0])
        except (IndexError, ValueError):
            index = -1
        if not 0 <= index < len(self.debugger.breakpoints):
            self.echo("usage: delete <breakpoint-index>")
            return
        del self.debugger.breakpoints[index]
        self.echo(f"deleted breakpoint #{index}")

    def cmd_inspect(self, args: List[str]) -> None:
        if not args:
            self.echo("usage: inspect <node>")
            return
        try:
            view = self.debugger.inspect(args[0])
        except KeyError:
            self.echo(f"unknown node {args[0]!r}")
            return
        self.echo(f"node {view['node']} (group {view['group']}, "
                  f"{'active' if view['active'] else 'DOWN'})")
        state = view["daemon_state"]
        if state is not None:
            for field_name, value in state.items():
                text = repr(value)
                if len(text) > 100:
                    text = text[:97] + "..."
                self.echo(f"  {field_name}: {text}")
        if view["timers"]:
            self.echo(f"  timers: {view['timers']}")
        self.echo(f"  pending inputs: {len(view['pending_inputs'])}")

    def cmd_queue(self, args: List[str]) -> None:
        if not args:
            self.echo("usage: queue <node>")
            return
        try:
            pending = self.debugger.pending_messages(args[0])
        except KeyError:
            self.echo(f"unknown node {args[0]!r}")
            return
        if not pending:
            self.echo("(queue empty)")
        for tag in pending:
            self.echo(f"  {tag}")

    def cmd_nodes(self, args: List[str]) -> None:
        coordinator = self.debugger.coordinator
        for node_id in coordinator.network.node_ids():
            stack = coordinator.stacks.get(node_id)
            if stack is None:
                continue
            state = "active" if stack.active else "DOWN"
            self.echo(
                f"  {node_id}: {state}, {len(stack.delivery_log)} deliveries"
            )

    def cmd_where(self, args: List[str]) -> None:
        coordinator = self.debugger.coordinator
        self.echo(
            f"group {coordinator.current_group} cycle {coordinator.cycle} "
            f"t={coordinator.network.sim.now / 1e6:.3f} s "
            f"(horizon group {coordinator.horizon})"
        )

    def cmd_set(self, args: List[str]) -> None:
        if len(args) < 2:
            self.echo("usage: set <node> <python-statement>")
            return
        node, statement = args[0], " ".join(args[1:])

        def mutate(daemon, _stmt=statement):
            exec(_stmt, {"daemon": daemon})  # noqa: S102

        try:
            self.debugger.modify(node, mutate)
            self.echo(f"state modified at {node} (group checkpoint rebased)")
        except Exception as exc:  # troubleshooter typo, not a crash
            self.echo(f"error: {exc}")

    def cmd_help(self, args: List[str]) -> None:
        self.echo(__doc__.split("Commands::")[1].split("Run it")[0])

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    COMMANDS = {
        "step": cmd_step, "s": cmd_step,
        "group": cmd_group, "g": cmd_group,
        "run": cmd_run, "r": cmd_run, "continue": cmd_run, "c": cmd_run,
        "break": cmd_break, "b": cmd_break,
        "breaks": cmd_breaks,
        "delete": cmd_delete,
        "inspect": cmd_inspect, "i": cmd_inspect, "print": cmd_inspect,
        "queue": cmd_queue, "q": cmd_queue,
        "nodes": cmd_nodes,
        "where": cmd_where, "w": cmd_where,
        "set": cmd_set,
        "help": cmd_help, "h": cmd_help, "?": cmd_help,
    }

    def dispatch(self, line: str) -> bool:
        """Execute one command line.  Returns False on quit."""
        try:
            parts = shlex.split(line)
        except ValueError as exc:
            self.echo(f"parse error: {exc}")
            return True
        if not parts:
            return True
        command, args = parts[0], parts[1:]
        if command in ("quit", "exit"):
            return False
        handler = self.COMMANDS.get(command)
        if handler is None:
            self.echo(f"unknown command {command!r} (try 'help')")
            return True
        handler(self, args)
        return True

    def loop(self) -> None:
        """Run until quit or EOF."""
        self.echo("DEFINED interactive debugger -- 'help' for commands")
        self.cmd_where([])
        while True:
            try:
                line = self._input(self.PROMPT)
            except (EOFError, StopIteration):
                break
            if not self.dispatch(line):
                break
