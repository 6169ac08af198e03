"""Routing information base: the table the daemons maintain.

Kept deliberately simple -- destination-keyed entries with next hop,
metric and (for distance-vector protocols) an expiry in virtual time --
but with strictly deterministic iteration and representation, because
RIB contents flow into message payloads and delivery-log tags.

The table stores rows as immutable tuples in a namespace of the
daemon's :class:`~repro.core.statestore.StateStore`, behind its write
barrier, so the daemon's copy-on-write checkpoints cover it.
:class:`RouteEntry` remains the read-side API object: ``lookup``
materializes one per call, and updates go through :meth:`install` /
:meth:`update` / :meth:`withdraw` (never by mutating a looked-up entry
in place -- the barrier would not see it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.statestore import StateStore


@dataclass(frozen=True)
class RouteEntry:
    """One installed route (immutable; update via ``Rib.update``)."""

    dest: str
    next_hop: Optional[str]
    metric: int
    source: str = ""
    expires_vt: Optional[int] = None

    def as_tuple(self) -> Tuple[str, Optional[str], int, str, Optional[int]]:
        return (self.dest, self.next_hop, self.metric, self.source, self.expires_vt)

    def replaced(self, **changes) -> "RouteEntry":
        """A copy with ``changes`` applied."""
        return _replace(self, **changes)

    def __repr__(self) -> str:
        exp = f" exp@{self.expires_vt}" if self.expires_vt is not None else ""
        return f"{self.dest}->{self.next_hop} metric={self.metric}{exp}"


class Rib:
    """A destination-keyed routing table.

    The rows live in the ``rib`` namespace of ``store``, the daemon's
    :class:`~repro.core.statestore.StateStore`, whose snapshots cover it.
    """

    def __init__(self, store: StateStore) -> None:
        self._routes = store.namespace("rib")

    def install(self, entry: RouteEntry) -> None:
        self._routes[entry.dest] = entry.as_tuple()

    def update(self, dest: str, **changes) -> Optional[RouteEntry]:
        """Replace fields of an installed route through the write barrier.

        Returns the new entry, or None when ``dest`` is not installed.
        """
        entry = self.lookup(dest)
        if entry is None:
            return None
        entry = entry.replaced(**changes)
        self.install(entry)
        return entry

    def withdraw(self, dest: str) -> Optional[RouteEntry]:
        row = self._routes.pop(dest, None)
        return RouteEntry(*row) if row is not None else None

    def lookup(self, dest: str) -> Optional[RouteEntry]:
        row = self._routes.get(dest)
        return RouteEntry(*row) if row is not None else None

    def next_hop(self, dest: str) -> Optional[str]:
        row = self._routes.get(dest)
        return row[1] if row is not None else None

    def __contains__(self, dest: str) -> bool:
        return dest in self._routes

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[RouteEntry]:
        for _dest, row in self._routes.items():
            yield RouteEntry(*row)

    def destinations(self) -> List[str]:
        return list(self._routes.keys())

    def as_dict(self) -> Dict[str, Tuple]:
        """Deterministic dump used in inspection and assertions."""
        return self._routes.as_dict()

    def clear(self) -> None:
        self._routes.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rows = ", ".join(repr(e) for e in self)
        return f"Rib({rows})"
