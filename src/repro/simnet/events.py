"""External events -- the inputs that DEFINED records and replays.

The paper's determinism guarantee is conditional: *given the same set of
external events*, an instrumented network always executes identically.
External events are the things outside the instrumented domain:

* link failures and repairs (``link_down`` / ``link_up``);
* router failures and repairs (``node_down`` / ``node_up``);
* messages from routers outside the instrumented domain, e.g. eBGP
  announcements from a neighboring AS (``announce``).

Each event is observed at one or two nodes (both endpoints of a link, for
link events) and is what the partial recording captures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Tuple

LINK_DOWN = "link_down"
LINK_UP = "link_up"
NODE_DOWN = "node_down"
NODE_UP = "node_up"
ANNOUNCE = "announce"

_VALID_KINDS = frozenset({LINK_DOWN, LINK_UP, NODE_DOWN, NODE_UP, ANNOUNCE})


@dataclass(frozen=True)
class ExternalEvent:
    """A single external input to the network.

    ``target`` identifies the object affected: an ``(a, b)`` node-id pair
    for link events, a node id for node events, and the receiving node id
    for announcements.  ``data`` carries protocol-specific content for
    announcements (e.g. a BGP path advertisement).
    """

    time_us: int
    kind: str
    target: Any
    data: Any = None

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown external event kind: {self.kind!r}")
        if self.time_us < 0:
            raise ValueError("external events cannot occur at negative time")

    def endpoints(self) -> Tuple[str, ...]:
        """Node ids at which this event is observed (and recorded)."""
        if self.kind in (LINK_DOWN, LINK_UP):
            a, b = self.target
            return (a, b)
        if self.kind in (NODE_DOWN, NODE_UP):
            return (self.target,)
        return (self.target,)


@dataclass
class EventSchedule:
    """A time-ordered collection of external events (a workload trace)."""

    events: List[ExternalEvent] = field(default_factory=list)
    #: Memoized sort: the key builds a repr per event, so re-sorting on
    #: every ``__iter__``/application walk was a real cost on large
    #: schedules.  Invalidation is by mutator (``add``/``extend``) plus a
    #: length check, which also catches direct ``.events`` appends.
    _sorted_cache: Optional[List[ExternalEvent]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(self, event: ExternalEvent) -> None:
        self.events.append(event)
        self._sorted_cache = None

    def extend(self, events: Iterable[ExternalEvent]) -> None:
        self.events.extend(events)
        self._sorted_cache = None

    def sorted(self) -> List[ExternalEvent]:
        """Events in injection order (time, then kind/target for stability).

        Returns a fresh list over the memoized ordering: callers may
        slice and index freely without un-invalidatable aliasing.
        """
        cache = self._sorted_cache
        if cache is None or len(cache) != len(self.events):
            cache = sorted(
                self.events, key=lambda e: (e.time_us, e.kind, repr(e.target))
            )
            self._sorted_cache = cache
        return list(cache)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.sorted())

    def horizon_us(self) -> int:
        """Time of the last event, or 0 for an empty schedule."""
        return max((e.time_us for e in self.events), default=0)

    # -- scenario-composition hooks -----------------------------------
    # Fault-injection generators build small schedules independently and
    # the sweep subsystem composes them; these helpers keep composition
    # deterministic (no in-place aliasing surprises).

    def merged(self, *others: "EventSchedule") -> "EventSchedule":
        """A new schedule containing this one's events plus ``others``'."""
        out = EventSchedule(events=list(self.events))
        for other in others:
            out.extend(other.events)
        return out

    def kinds(self) -> Tuple[str, ...]:
        """Distinct event kinds present, sorted (for reports and tests)."""
        return tuple(sorted({e.kind for e in self.events}))

    def boundary_jittered(
        self,
        boundary_us: int,
        seed: int,
        jitter_us: int = 1,
        tag: str = "boundary-jitter",
    ) -> "EventSchedule":
        """Snap every event onto its nearest group boundary, perturbed by
        seed-derived jitter in ``[-jitter_us, +jitter_us]``.

        This is the adversarial placement for the DEFINED machinery: a
        beacon-group boundary is exactly where group tagging, the
        per-group ordering function and anti-message retraction hand off,
        so an event landing a microsecond on either side of it probes the
        regime where those transitions can go wrong.

        Per-target event order is preserved (a repair must not jitter
        ahead of its failure): when two events on the same target would
        collide or invert, the later one is clamped to one microsecond
        after the earlier.  Times are clamped at zero.  The result is a
        pure function of ``(schedule, boundary_us, seed, jitter_us)``.
        """
        if boundary_us <= 0:
            raise ValueError("boundary_us must be positive")
        if jitter_us < 0:
            raise ValueError("jitter_us cannot be negative")
        rng = random.Random(f"{tag}|{boundary_us}|{jitter_us}|{seed}")
        out = EventSchedule()
        last_for_target: dict = {}
        for event in self.sorted():
            boundary = round(event.time_us / boundary_us) * boundary_us
            t = max(0, boundary + rng.randint(-jitter_us, jitter_us))
            target_key = repr(event.target)
            prev = last_for_target.get(target_key)
            if prev is not None and t <= prev:
                t = prev + 1
            last_for_target[target_key] = t
            out.add(
                ExternalEvent(
                    time_us=t, kind=event.kind, target=event.target, data=event.data
                )
            )
        return out
