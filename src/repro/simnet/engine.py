"""Deterministic discrete-event simulation engine.

The engine is the foundation of the reproduction: everything above it
(links, daemons, the DEFINED shim) schedules work through a single priority
queue of ``(time_us, seq, callback, args)`` entries.  The secondary
``sequence`` key makes tie-breaking deterministic: two events scheduled for
the same microsecond always execute in scheduling order, on every run.

Events nobody cancels (packets, beacon fan-out, lockstep phases) are
pushed bare with :meth:`Simulator.push`; :meth:`Simulator.schedule`
pushes the same entry and returns an :class:`EventHandle` for callers
that may cancel.  Both take one sequence number, so they interleave in
push order.

Simulated time is an integer number of microseconds.  Using integers (rather
than floats) removes any possibility of platform-dependent rounding
differences, which matters because the whole point of the paper is
bit-for-bit reproducible executions.
"""

from __future__ import annotations

import heapq
import sys
from typing import Any, Callable, List, Optional, Set, Tuple

#: One millisecond expressed in engine time units (microseconds).
MS = 1_000
#: One second expressed in engine time units (microseconds).
SECOND = 1_000_000


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently (e.g. time travel)."""


class EventHandle:
    """A cancellable reference to a scheduled event: its ``(time_us, seq)``
    key.

    Cancellation is lazy: the simulator records the sequence number and
    skips the entry when it is popped, compacting the heap when dead
    entries pile up (routing daemons reset timers constantly).  Events
    run in strictly increasing key order, each pushed past the key being
    run, so an event is still queued exactly when its key lies past the
    engine's ``(now, current seq)``; cancelling one that ran is a no-op.
    """

    __slots__ = ("time_us", "seq", "cancelled", "_sim")

    def __init__(self, sim: "Simulator", time_us: int, seq: int) -> None:
        self._sim = sim
        self.time_us = time_us
        self.seq = seq
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if (self.time_us, self.seq) > (sim._now, sim._current_seq):
            sim._cancel(self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "live"
        return f"<EventHandle t={self.time_us}us seq={self.seq} {state}>"


class Simulator:
    """A single-threaded discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(10 * MS, callback, arg1, arg2)
        sim.run(until_us=SECOND)

    The engine guarantees:

    * events fire in nondecreasing time order;
    * events with equal timestamps fire in the order they were scheduled
      (an event scheduled at a reserved key, in the order its sequence
      number was reserved: :meth:`reserve_seq`);
    * ``sim.now`` never moves backwards.
    """

    #: Cancelled-entry compaction threshold: the heap is rebuilt (dropping
    #: dead entries) once at least this many cancellations are queued *and*
    #: they outnumber the live entries.  The amortized cost is O(1) per
    #: cancellation while memory stays within 2x the live event count.
    COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        #: ``(time_us, seq, callback, args)``: ``seq`` is unique, so the
        #: heap orders on two ints in C and never compares callbacks.
        self._queue: List[Tuple[int, int, Callable[..., None], tuple]] = []
        #: Sequence numbers of the cancelled entries still in the queue.
        self._cancelled: Set[int] = set()
        self._compactions = 0
        self._events_executed = 0
        self._running = False
        #: Sequence number of the event being dispatched (or last
        #: dispatched): its place among the events of its instant.
        self._current_seq = -1

    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events dispatched so far."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of *live* (non-cancelled) events still queued."""
        return len(self._queue) - len(self._cancelled)

    @property
    def queue_size(self) -> int:
        """Raw queue length, including lazily-cancelled entries."""
        return len(self._queue)

    @property
    def compactions(self) -> int:
        """How many times the heap has been compacted (observability)."""
        return self._compactions

    def _cancel(self, seq: int) -> None:
        """Called by :meth:`EventHandle.cancel` for an entry still queued."""
        cancelled = self._cancelled
        cancelled.add(seq)
        if (
            len(cancelled) >= self.COMPACT_MIN_CANCELLED
            and len(cancelled) * 2 >= len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without the lazily-cancelled entries, in place
        (a running :meth:`run` holds the list)."""
        cancelled = self._cancelled
        self._queue[:] = [entry for entry in self._queue if entry[1] not in cancelled]
        heapq.heapify(self._queue)
        cancelled.clear()
        self._compactions += 1

    def push(self, time_us: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at the absolute instant ``time_us``,
        ordered as :meth:`schedule` orders it, but with no handle: for
        events nobody cancels."""
        if time_us < self._now:
            raise SimulationError(f"cannot schedule at {time_us} (now is {self._now})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time_us, seq, callback, args))

    def schedule(
        self, delay_us: int, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay_us`` from now, and
        return a handle that can cancel it.

        ``delay_us`` must be non-negative; a zero delay runs the callback
        after all events already scheduled for the current instant.
        """
        if delay_us < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay_us})")
        time_us, seq = self._now + delay_us, self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time_us, seq, callback, args))
        return EventHandle(self, time_us, seq)

    def reserve_seq(self) -> int:
        """Take the sequence number an event scheduled now would get,
        without scheduling one.

        Code that accounts for an event instead of executing it keeps
        the event's ``(time, seq)`` key this way: what it stands for is
        ordered against every other event exactly as the event would
        have been, and :meth:`schedule_reserved` can still put it on the
        queue later, in the same place.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def schedule_reserved(
        self,
        time_us: int,
        seq: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at the key ``(time_us, seq)``,
        ``seq`` taken earlier from :meth:`reserve_seq`.

        The key must still lie ahead of the executing event's: an event
        cannot be put back into the part of the order already run.
        """
        if seq >= self._seq:
            raise SimulationError(f"sequence number {seq} was never reserved")
        if (time_us, seq) <= (self._now, self._current_seq):
            raise SimulationError(
                f"cannot schedule at ({time_us}, {seq}): the engine is at "
                f"({self._now}, {self._current_seq})"
            )
        heapq.heappush(self._queue, (time_us, seq, callback, args))
        return EventHandle(self, time_us, seq)

    def run(
        self,
        until_us: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, ``until_us`` passes, or
        ``max_events`` have executed.

        Returns the number of events executed by this call.  When
        ``until_us`` is given, the clock is advanced to exactly ``until_us``
        on return if no event at or before it is left (the queue drained
        or the next event lies later), so repeated bounded runs tile time
        seamlessly.

        An exception a callback raises ends the run and propagates, with
        ``now`` and ``events_executed`` standing at that event and the
        rest of the queue intact; a later ``run`` goes on from there.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        queue, cancelled = self._queue, self._cancelled
        heappop = heapq.heappop
        horizon = sys.maxsize if until_us is None else until_us
        budget = sys.maxsize if max_events is None else max_events
        executed = 0
        reached = True
        try:
            while queue:
                entry = heappop(queue)
                time_us, seq, callback, args = entry
                if seq in cancelled:
                    cancelled.discard(seq)
                    continue
                if time_us > horizon or executed >= budget:
                    heapq.heappush(queue, entry)
                    reached = time_us > horizon
                    break
                if time_us < self._now:
                    raise SimulationError("event queue corrupted: time went backwards")
                self._now = time_us
                self._current_seq = seq
                self._events_executed += 1
                executed += 1
                callback(*args)
            if until_us is not None and reached and self._now < until_us:
                self._now = until_us
        finally:
            self._running = False
        return executed

    def drain(self, max_events: int = 10_000_000) -> int:
        """Run until the queue is completely empty (bounded as a safeguard)."""
        executed = self.run(max_events=max_events)
        if self._queue and executed >= max_events:
            raise SimulationError(
                f"drain() hit the {max_events}-event safety bound; "
                "likely a livelock in the simulated system"
            )
        return executed
