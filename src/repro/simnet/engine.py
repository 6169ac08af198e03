"""Deterministic discrete-event simulation engine.

The engine is the foundation of the reproduction: everything above it
(links, daemons, the DEFINED shim) schedules work through a single priority
queue keyed on ``(time_us, sequence)``.  The secondary ``sequence`` key makes
tie-breaking deterministic: two events scheduled for the same microsecond
always execute in scheduling order, on every run.

Simulated time is an integer number of microseconds.  Using integers (rather
than floats) removes any possibility of platform-dependent rounding
differences, which matters because the whole point of the paper is
bit-for-bit reproducible executions.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: One millisecond expressed in engine time units (microseconds).
MS = 1_000
#: One second expressed in engine time units (microseconds).
SECOND = 1_000_000


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently (e.g. time travel)."""


class EventHandle:
    """A cancellable reference to a scheduled event.

    Handles are returned by :meth:`Simulator.schedule`.  Cancellation is
    lazy: the entry stays in the heap but is skipped when popped.  The
    owning simulator counts cancellations so it can compact the heap when
    dead entries pile up (routing daemons reset timers constantly, which
    would otherwise bloat long runs).
    """

    __slots__ = ("time_us", "seq", "callback", "args", "cancelled", "label", "_sim")

    def __init__(
        self,
        time_us: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        label: str = "",
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time_us = time_us
        self.seq = seq
        self.callback: Optional[Callable[..., None]] = callback
        self.args = args
        self.cancelled = False
        self.label = label
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None
        self.args = ()
        sim, self._sim = self._sim, None
        if sim is not None:
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time_us}us seq={self.seq} {state} {self.label!r}>"


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
        #: ``(time_us, seq, handle)``: ``seq`` is unique, so the heap
        #: orders on two ints in C and never compares handles.
        self._queue: List[Tuple[int, int, EventHandle]] = []
        self._cancelled_in_queue = 0
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
    def current_seq(self) -> int:
        """Sequence number of the event being executed (-1 before the
        first).  With :attr:`now` it is that event's ``(time, seq)`` key."""
        return self._current_seq

    @property
    def events_executed(self) -> int:
        """Total number of events dispatched so far."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of *live* (non-cancelled) events still queued."""
        return len(self._queue) - self._cancelled_in_queue

    @property
    def queue_size(self) -> int:
        """Raw queue length, including lazily-cancelled entries."""
        return len(self._queue)

    @property
    def compactions(self) -> int:
        """How many times the heap has been compacted (observability)."""
        return self._compactions

    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel` for handles still queued."""
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue >= self.COMPACT_MIN_CANCELLED
            and self._cancelled_in_queue * 2 >= len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without the lazily-cancelled entries."""
        self._queue = [item for item in self._queue if not item[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0
        self._compactions += 1

    def schedule(
        self,
        delay_us: int,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay_us`` from now.

        ``delay_us`` must be non-negative; a zero delay runs the callback
        after all events already scheduled for the current instant.
        ``label`` exists only for :meth:`EventHandle.__repr__`; hot paths
        (packets, frames, barriers, polls) pass none rather than format
        a string nobody reads.
        """
        if delay_us < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay_us})")
        time_us, seq = self._now + delay_us, self._seq
        handle = EventHandle(time_us, seq, callback, args, label, sim=self)
        self._seq = seq + 1
        heapq.heappush(self._queue, (time_us, seq, handle))
        return handle

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
        handle = EventHandle(time_us, seq, callback, args, sim=self)
        heapq.heappush(self._queue, (time_us, seq, handle))
        return handle

    def schedule_at(
        self,
        time_us: int,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time_us < self._now:
            raise SimulationError(
                f"cannot schedule at {time_us} (now is {self._now})"
            )
        return self.schedule(time_us - self._now, callback, *args, label=label)

    def step(self) -> bool:
        """Run the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        """
        while self._queue:
            time_us, seq, handle = heapq.heappop(self._queue)
            if handle.cancelled:
                self._cancelled_in_queue -= 1
                continue
            if time_us < self._now:
                raise SimulationError("event queue corrupted: time went backwards")
            self._now = time_us
            self._current_seq = seq
            callback, args = handle.callback, handle.args
            handle.callback, handle.args = None, ()
            handle._sim = None  # fired: a later cancel() must not count
            self._events_executed += 1
            assert callback is not None
            callback(*args)
            return True
        return False

    def run(
        self,
        until_us: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, ``until_us`` passes, or
        ``max_events`` have executed.

        Returns the number of events executed by this call.  When
        ``until_us`` is given, the clock is advanced to exactly ``until_us``
        on return even if the queue drained earlier, so repeated bounded
        runs tile time seamlessly.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        executed = 0
        try:
            while self._queue:
                head_us, _seq, head = self._queue[0]
                if head.cancelled:
                    heapq.heappop(self._queue)
                    self._cancelled_in_queue -= 1
                    continue
                if until_us is not None and head_us > until_us:
                    break
                if max_events is not None and executed >= max_events:
                    break
                if self.step():
                    executed += 1
            if until_us is not None and self._now < until_us:
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
