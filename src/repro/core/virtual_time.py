"""Virtual time and deterministic timers (Section 3, "Dealing with timers").

Control-plane software leans heavily on timers (hello intervals, route
expiry, retransmits), and real timers fire off the wall clock -- a source
of nondeterminism.  DEFINED runs daemons in *virtual time*: a counter that
advances by one unit on every beacon (250 ms apart by default), so the
perceived rate matches the wall clock while staying exactly reproducible.

:class:`TimerTable` is the per-node timer state.  It is part of the shim's
checkpointed state: rolling a node back re-arms the timers exactly as they
were, and the replay loop re-fires due timers interleaved with messages by
their deterministic ordering keys.

A timer armed at virtual time *v* for *k* units expires at ``v + max(1, k)``
and fires when the beacon opening that group is observed.  Expiry order
within a group is by creation sequence, which is deterministic because the
daemons themselves execute deterministically under DEFINED.

The table's backing state lives in :class:`~repro.core.statestore.Namespace`
sub-stores, so the shim checkpoints timers through the same copy-on-write
versioning as the daemon state -- no per-snapshot ``tuple(sorted(...))``
materialization.  The due-order view (sorted by ``(expiry, seq, key)``)
is maintained incrementally by ``set``/``cancel``/``pop`` and rebuilt
lazily after a store-level restore rewinds the namespace underneath it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Optional, Tuple

from repro.core.statestore import StateStore


class TimerTable:
    """Named virtual-time timers, checkpointed by their store.

    ``store`` is the node's checkpoint store (the shim's unified one, or
    a private store for a stack that never rewinds); the table's state
    lives in its ``_timers`` and ``_timers.meta`` namespaces.
    Construction wipes any previous contents of both (a fresh table on
    each boot).
    """

    def __init__(self, store: StateStore):
        self._timers = store.namespace("_timers")
        self._meta = store.namespace("_timers.meta")
        self._timers._wipe()
        self._meta._wipe()
        self._meta["seq"] = 0
        #: Due-order view: sorted list of (expiry_vt, seq, key), kept in
        #: lockstep with the namespace by the mutators below and rebuilt
        #: lazily when the store rewinds the namespace underneath us.
        self._due: list = []
        self._due_dirty = False
        # the namespaces are dedicated to this table: a reboot replaces
        # the table object, so displace any stale listener as well
        self._timers._listeners = [self._mark_dirty]
        self._meta._listeners = [self._mark_dirty]

    def _mark_dirty(self) -> None:
        self._due_dirty = True

    def _due_view(self) -> list:
        if self._due_dirty:
            self._due = sorted(
                (expiry, seq, key) for key, (expiry, seq) in self._timers.items()
            )
            self._due_dirty = False
        return self._due

    def set(self, key: str, current_vt: int, delay_units: int) -> int:
        """Arm (or re-arm) ``key``.  Returns the expiry virtual time.

        Delays are clamped to at least one unit: virtual time has beacon
        granularity, so a zero-delay timer still fires at the next beacon.
        Re-arming replaces the expiry but assigns a fresh creation
        sequence number (the firing order within a group is creation
        order, matching a real event loop's re-insertion semantics).
        """
        due = self._due_view()  # settle the view against pre-write state
        expiry = current_vt + max(1, delay_units)
        seq = self._meta["seq"]
        self._meta["seq"] = seq + 1
        old = self._timers.get(key)
        self._timers[key] = (expiry, seq)
        if old is not None:
            del due[bisect_left(due, (old[0], old[1], key))]
        insort(due, (expiry, seq, key))
        return expiry

    def cancel(self, key: str) -> bool:
        """Disarm ``key``.  Returns True if it was armed."""
        due = self._due_view()  # settle the view against pre-write state
        old = self._timers.pop(key, None)
        if old is None:
            return False
        del due[bisect_left(due, (old[0], old[1], key))]
        return True

    def pop(self, key: str, seq: int) -> None:
        """Retire the firing of ``key`` armed with creation sequence
        ``seq``.  A re-arm since that firing (a fresh ``seq``) stays."""
        entry = self._timers.get(key)
        if entry is not None and entry[1] == seq:
            self.cancel(key)

    def is_armed(self, key: str) -> bool:
        return key in self._timers

    def expiry_of(self, key: str) -> Optional[int]:
        entry = self._timers.get(key)
        return entry[0] if entry else None

    def next_due(self, vt_now: int) -> Optional[Tuple[int, int, str]]:
        """The earliest timer with ``expiry <= vt_now``.

        Returns ``(expiry_vt, seq, key)`` or ``None``.  Ties on expiry are
        broken by creation sequence, then key -- all deterministic.
        """
        due = self._due_view()
        if due and due[0][0] <= vt_now:
            return due[0]
        return None

    def due_count(self, vt_now: int) -> int:
        due = self._due_view()
        return bisect_left(due, (vt_now + 1,))

    def __len__(self) -> int:
        return len(self._timers)

    def snapshot(self) -> Tuple[Tuple[Tuple[str, Tuple[int, int]], ...], int]:
        """A read-only view of the table for inspection: the armed
        timers as ``(key, (expiry, seq))`` in key order, and the next
        creation sequence number (cheap: the namespace's sorted view is
        already maintained, nothing is re-sorted)."""
        return (tuple(self._timers.items()), self._meta["seq"])
