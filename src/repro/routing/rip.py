"""A RIP-style distance-vector daemon with the Quagga 0.96.5 bug (Fig. 5).

RIP maintains a routing table with a per-route expiry timer.  Periodic
announcements from the next hop refresh the timer; when it expires the
route is flushed, letting a backup route take over.

The Quagga 0.96.5 defect: when matching an incoming announcement against
the table, the implementation compares **only the destination field**,
not destination *and next hop*.  Announcements from the backup router
therefore keep refreshing the timer of the dead main route -- a black
hole that persists as long as the backup keeps announcing.  Whether the
bug bites depends on *timing*: if the backup's announcement reaches the
router after the route expired, recovery is correct; if it arrives
before, the dead route is refreshed forever.  This is the paper's
canonical nondeterministic timing bug.

* :class:`CorrectRip` matches destination + next hop (the fix);
* :class:`BuggyQuaggaRip` matches destination only (the defect).

Announcements are timer-triggered originations (``parent=None``); route
expiry is a per-destination virtual-time timer, so under DEFINED the race
resolves identically on every run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.routing.base import Daemon
from repro.routing.rib import Rib, RouteEntry
from repro.simnet.messages import Message
from repro.simnet.node import Stack

PROTO_UPDATE = "rip_update"

#: RIP's infinity: routes at this metric are unreachable.
INFINITY_METRIC = 16


class RipDaemon(Daemon):
    """Distance-vector daemon; subclasses choose the announcement-matching
    rule (the locus of the Quagga bug).

    State: the RIB rows live behind the checkpoint store's write
    barrier (:class:`~repro.routing.rib.Rib` stores immutable tuples),
    so route updates -- including the timer refreshes at the heart of
    the bug -- are journalled per checkpoint version.  Looked-up entries
    are read-side copies; every mutation goes through ``rib.install`` /
    ``rib.update`` / ``rib.withdraw``.
    """

    #: Set by subclasses.
    matching_name = "abstract"

    def __init__(
        self,
        node_id: str,
        stack: Stack,
        neighbors: List[str],
        own_destinations: Optional[Any] = None,
        update_interval_units: int = 4,
        timeout_units: int = 12,
    ) -> None:
        super().__init__(node_id, stack)
        self.neighbors = sorted(neighbors)
        # destinations this router itself provides; a dict maps each to an
        # advertised base metric (a backup provider advertises higher --
        # the paper's Figure 5 main/backup arrangement)
        if own_destinations is None:
            self.own_destinations: Dict[str, int] = {}
        elif isinstance(own_destinations, dict):
            self.own_destinations = dict(own_destinations)
        else:
            self.own_destinations = {dest: 0 for dest in own_destinations}
        self.update_interval_units = update_interval_units
        self.timeout_units = timeout_units
        self.rib = Rib(store=self.store)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self.rib.clear()
        for dest in sorted(self.own_destinations):
            self.rib.install(
                RouteEntry(
                    dest=dest,
                    next_hop=None,
                    metric=self.own_destinations[dest],
                    source="connected",
                )
            )
        self.stack.set_timer(self.update_interval_units, "announce")

    # ------------------------------------------------------------------
    # periodic announcements
    # ------------------------------------------------------------------
    def on_timer(self, key: str) -> None:
        if key == "announce":
            self._announce_all()
            self.stack.set_timer(self.update_interval_units, "announce")
            return
        if key.startswith("expire|"):
            dest = key.split("|", 1)[1]
            entry = self.rib.lookup(dest)
            if entry is not None and entry.source == "rip":
                self.rib.withdraw(dest)
            return
        raise ValueError(f"RIP daemon got unknown timer {key!r}")

    def _announce_all(self) -> None:
        vector: Tuple[Tuple[str, int], ...] = tuple(
            (entry.dest, entry.metric)
            for entry in self.rib
            if entry.metric < INFINITY_METRIC
        )
        if not vector:
            return
        for neighbor in self.neighbors:
            self.send(
                neighbor,
                PROTO_UPDATE,
                ("rip", self.node_id, vector),
                size_bytes=24 + 8 * len(vector),
            )

    # ------------------------------------------------------------------
    # announcement processing (the locus of the bug)
    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        if msg.protocol != PROTO_UPDATE:
            raise ValueError(f"RIP daemon got unknown protocol {msg.protocol!r}")
        _tag, sender, vector = msg.payload
        for dest, metric in vector:
            self._process_route(dest, min(metric + 1, INFINITY_METRIC), sender)

    def _refresh(self, dest: str) -> None:
        updated = self.rib.update(
            dest, expires_vt=self.stack.time_units() + self.timeout_units
        )
        assert updated is not None
        self.stack.set_timer(self.timeout_units, f"expire|{dest}")

    def _install(self, dest: str, metric: int, next_hop: str) -> None:
        self.rib.install(
            RouteEntry(dest=dest, next_hop=next_hop, metric=metric, source="rip")
        )
        self._refresh(dest)

    def _process_route(self, dest: str, metric: int, sender: str) -> None:
        entry = self.rib.lookup(dest)
        if entry is not None and entry.source == "connected":
            return  # our own destination; announcements cannot displace it
        if entry is None:
            if metric < INFINITY_METRIC:
                self._install(dest, metric, sender)
            return
        self._handle_existing(entry, dest, metric, sender)

    def _handle_existing(
        self, entry: RouteEntry, dest: str, metric: int, sender: str
    ) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # evaluation hooks
    # ------------------------------------------------------------------
    def route_via(self, dest: str) -> Optional[str]:
        return self.rib.next_hop(dest)


class CorrectRip(RipDaemon):
    """Matches announcements on destination *and* next hop (the fix)."""

    matching_name = "correct"

    def _handle_existing(
        self, entry: RouteEntry, dest: str, metric: int, sender: str
    ) -> None:
        if entry.next_hop == sender:
            # announcement from our current next hop: refresh, track metric
            if metric >= INFINITY_METRIC:
                self.rib.withdraw(dest)
                self.stack.cancel_timer(f"expire|{dest}")
                return
            self.rib.update(dest, metric=metric)
            self._refresh(dest)
            return
        # a different router: only better routes displace the incumbent
        if metric < entry.metric:
            self._install(dest, metric, sender)


class BuggyQuaggaRip(RipDaemon):
    """Quagga 0.96.5's defect: matches on destination only, so *any*
    announcement for the destination refreshes the incumbent's timer --
    including the backup's announcements after the main router died."""

    matching_name = "buggy-quagga-0.96.5"

    def _handle_existing(
        self, entry: RouteEntry, dest: str, metric: int, sender: str
    ) -> None:
        if metric < entry.metric:
            self._install(dest, metric, sender)
            return
        if metric >= INFINITY_METRIC:
            return
        # the bug: destination matches, so refresh -- never mind that the
        # announcement came from a different next hop
        self._refresh(dest)
