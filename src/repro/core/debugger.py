"""Interactive stepping on top of DEFINED-LS (Sections 2.1 and 2.3).

The debugger is what the human troubleshooter actually touches: step
through the lockstep execution, set breakpoints on delivered events or on
predicates over daemon state, inspect a node's control-plane state and
pending messages, and manipulate state to test a hypothesis -- all with
the guarantee that the underlying execution is the production execution.

Granularities (the paper: "steps may be chosen at various levels of
granularity"):

* :meth:`Debugger.step` -- one lockstep cycle (transmission+processing),
  the unit whose response time Figures 6c/8c measure;
* :meth:`Debugger.step_group` -- one whole group (one timestep of
  external events, to quiescence);
* :meth:`Debugger.run` -- replay until a breakpoint fires or the
  recording is exhausted.

Breakpoints belong to the debugger alone.  Each of the three loops over
:meth:`~repro.core.lockstep.LockstepCoordinator.advance_cycle` and checks
the breakpoints after every cycle; the coordinator only replays, and
knows nothing of pausing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.lockstep import LockstepCoordinator


@dataclass
class Breakpoint:
    """A named pause condition evaluated after every lockstep cycle.

    A predicate that raises pauses the run too: the exception is kept in
    ``error`` and the breakpoint is disabled, so the next ``run`` goes on.
    """

    name: str
    predicate: Callable[[LockstepCoordinator], bool]
    one_shot: bool = False
    hits: int = 0
    enabled: bool = True
    error: Optional[Exception] = None

    def check(self, coordinator: LockstepCoordinator) -> bool:
        if not self.enabled:
            return False
        try:
            hit = self.predicate(coordinator)
        except Exception as exc:  # a troubleshooter's watch expression
            self.error = exc
            self.enabled = False
            return True
        if hit:
            self.hits += 1
            if self.one_shot:
                self.enabled = False
            return True
        return False


@dataclass
class StepReport:
    """What one debugger step did (shown to the troubleshooter).

    ``processed`` counts the deliveries *executed in that step* (plus
    traffic left queued for the next transmission): a node whose inputs
    changed re-executes only from the first affected delivery on, not
    its whole input set, so the figure is the step's work, not the
    group's size.
    """

    group: int
    cycle: int
    sent: int
    processed: int
    sim_time_us: int
    hit_breakpoint: Optional[str] = None

    def summary(self) -> str:
        bp = f" BREAK[{self.hit_breakpoint}]" if self.hit_breakpoint else ""
        return (
            f"group={self.group} cycle={self.cycle} sent={self.sent} "
            f"processed={self.processed} t={self.sim_time_us}us{bp}"
        )


class Debugger:
    """Interactive front end over a :class:`LockstepCoordinator`."""

    def __init__(self, coordinator: LockstepCoordinator) -> None:
        self.coordinator = coordinator
        self.breakpoints: List[Breakpoint] = []
        self._last_hit: Optional[Breakpoint] = None

    # ------------------------------------------------------------------
    # breakpoints
    # ------------------------------------------------------------------
    def add_breakpoint(
        self,
        name: str,
        predicate: Callable[[LockstepCoordinator], bool],
        one_shot: bool = False,
    ) -> Breakpoint:
        bp = Breakpoint(name=name, predicate=predicate, one_shot=one_shot)
        self.breakpoints.append(bp)
        return bp

    def break_on_delivery(self, substring: str, node: Optional[str] = None,
                          one_shot: bool = True) -> Breakpoint:
        """Pause when a delivery tag containing ``substring`` appears in the
        current group's deliveries (optionally at one node only)."""

        def predicate(coordinator: LockstepCoordinator) -> bool:
            for nid, tags in coordinator.group_deliveries().items():
                if node is not None and nid != node:
                    continue
                if any(substring in tag for tag in tags):
                    return True
            return False

        return self.add_breakpoint(f"delivery~{substring!r}", predicate, one_shot)

    def break_on_state(
        self,
        node: str,
        state_predicate: Callable[[Any], bool],
        name: Optional[str] = None,
        one_shot: bool = True,
    ) -> Breakpoint:
        """Pause when ``state_predicate(daemon)`` becomes true at ``node``
        -- the "watchpoint" workflow of the case studies."""

        def predicate(coordinator: LockstepCoordinator) -> bool:
            daemon = coordinator.network.nodes[node].daemon
            return daemon is not None and state_predicate(daemon)

        return self.add_breakpoint(name or f"state@{node}", predicate, one_shot)

    @property
    def last_hit(self) -> Optional[Breakpoint]:
        """The breakpoint that paused the last cycle checked, if any."""
        return self._last_hit

    def clear_breakpoints(self) -> None:
        self.breakpoints.clear()

    # ------------------------------------------------------------------
    # execution control
    # ------------------------------------------------------------------
    def _report(self, sent: int, processed: int) -> StepReport:
        coordinator = self.coordinator
        return StepReport(
            group=coordinator.current_group,
            cycle=coordinator.cycle,
            sent=sent,
            processed=processed,
            sim_time_us=coordinator.network.sim.now,
            hit_breakpoint=self._last_hit.name if self._last_hit else None,
        )

    def _cycle(self) -> Tuple[int, int]:
        """Run one cycle of an unfinished replay, then check the
        breakpoints in order; the first that fires is :attr:`last_hit`."""
        cycle = self.coordinator.advance_cycle()
        self._last_hit = next(
            (bp for bp in self.breakpoints if bp.check(self.coordinator)), None
        )
        return cycle

    def step(self) -> StepReport:
        """Advance one lockstep cycle."""
        if self.finished:
            return self._report(0, 0)
        return self._report(*self._cycle())

    def step_group(self) -> StepReport:
        """Advance until the current group quiesces (or a breakpoint)."""
        coordinator = self.coordinator
        target = coordinator.next_group
        if coordinator.in_group:
            target = coordinator.current_group
        while not self.finished:
            self._cycle()
            if self._last_hit is not None:
                break
            if not coordinator.in_group and coordinator.current_group >= target:
                break
        return self._report(0, 0)

    def run(self) -> StepReport:
        """Run until a breakpoint fires or the recording is exhausted."""
        while not self.finished:
            self._cycle()
            if self._last_hit is not None:
                break
        return self._report(0, 0)

    @property
    def finished(self) -> bool:
        return self.coordinator.finished

    # ------------------------------------------------------------------
    # inspection and manipulation
    # ------------------------------------------------------------------
    def inspect(self, node: str) -> Dict[str, Any]:
        """Snapshot of a node: daemon state, armed timers, queued inputs."""
        network = self.coordinator.network
        daemon = network.nodes[node].daemon
        stack = self.coordinator.stacks[node]
        return {
            "node": node,
            "group": self.coordinator.current_group,
            "daemon_state": daemon.state() if daemon is not None else None,
            "timers": dict(stack.timers.snapshot()[0]),
            "pending_inputs": [e.tag() for e in stack.pending_inputs()],
            "deliveries_this_group": stack.group_deliveries(),
            "active": stack.active,
        }

    def pending_messages(self, node: str) -> List[str]:
        """Human-readable queue of the node's not-yet-final inputs."""
        return [e.tag() for e in self.coordinator.stacks[node].pending_inputs()]

    def modify(self, node: str, mutate: Callable[[Any], None]) -> None:
        """Apply ``mutate(daemon)`` to a node's control-plane state.

        The modified state becomes the group's baseline (the node's
        history and the checkpoints before the edit are dropped) so
        subsequent re-executions within the group keep it -- this is the
        "manipulate state" workflow used to validate patches in the case
        studies.
        """
        daemon = self.coordinator.network.nodes[node].daemon
        if daemon is None:
            raise ValueError(f"node {node} has no daemon")
        mutate(daemon)
        self.coordinator.stacks[node].rebase_checkpoint()
