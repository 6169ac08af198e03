"""Test oracles: the slow, obviously right implementations that the
product's fast paths are pinned against.

* :class:`DeepcopyStore` -- a :class:`~repro.core.statestore.StateStore`
  whose checkpoint is a full deep copy of every namespace and whose
  restore copies it back.  The COW store's undo journals must be
  observably indistinguishable from it.
* :func:`rebuilt_tag` -- ``HistoryEntry.tag`` as it was before payload
  reprs were interned and tags cached: re-rendered on every call from
  the live payload's ``repr``.
* :class:`GvtTracker` -- Lemma 2 made observable: periodic samples of
  the network's rollback floor (GVT), beside what each shim still keeps
  for stragglers below it (the pruned-delivery maps).

None is a product path.  Tests swap the first two in within their own
process: :func:`deepcopy_stores` makes every daemon built in its scope
checkpoint through a :class:`DeepcopyStore`, and :func:`rebuilt_tags`
makes every ``tag()`` call re-render.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import pytest

import repro.routing.base
from repro.core.history import HistoryEntry
from repro.core.shim import DefinedShim
from repro.core.statestore import StateStore, StoreVersion
from repro.simnet.network import Network


class _Copy(StoreVersion):
    """A version token that carries its own deep copy of the state."""

    __slots__ = ("state",)


class DeepcopyStore(StateStore):
    """Checkpoints by materializing a deep copy of the whole state; no
    undo journals.  A retained copy is charged its full live size."""

    def snapshot(self):
        token = _Copy(super().snapshot().version)  # sanitize checks, stack record
        self._journaling = False  # the copy is the checkpoint
        self._top.bytes = self.live_bytes()
        self._private_bytes += self._top.bytes
        token.state = {
            name: copy.deepcopy(ns._data) for name, ns in self._namespaces.items()
        }
        return token

    def restore(self, token):
        self._check_retained(token)
        while self._snapshots[-1].version > token.version:
            self._private_bytes -= self._snapshots.pop().bytes
        for name, data in copy.deepcopy(token.state).items():
            ns = self.namespace(name)
            ns._wipe()
            for key in sorted(data):
                ns._raw_set(key, data[key])
        self._top = self._snapshots[-1]
        self._wipe_unknown(self._top)
        self._gen += 1
        for ns in self._namespaces.values():
            ns._notify()


def rebuilt_tag(entry: HistoryEntry) -> str:
    """The identity tag, rendered from scratch with ``repr(payload)``."""
    if entry.kind == "msg":
        msg, a = entry.msg, entry.msg.annotation
        return (
            f"m|{msg.protocol}|{msg.src}|{a.origin}|{a.seq}|"
            f"{a.sub}|{a.group}|{a.delay_us}|{repr(msg.payload)}"
        )
    if entry.kind == "ext":
        e = entry.event
        return f"e|{e.kind}|{e.target!r}|{entry.group}|{entry.seq}"
    return f"t|{entry.timer_key}|{entry.group}"


@contextmanager
def deepcopy_stores():
    """Every daemon built inside checkpoints through a :class:`DeepcopyStore`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repro.routing.base, "StateStore", DeepcopyStore)
        yield


@contextmanager
def rebuilt_tags():
    """Every ``HistoryEntry.tag()`` inside re-renders via :func:`rebuilt_tag`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HistoryEntry, "tag", rebuilt_tag)
        yield


@dataclass
class GvtSample:
    """One observation of the network's rollback floor."""

    at_us: int
    gvt_us: int
    #: Node currently holding the floor (owning the oldest live entry).
    floor_node: Optional[str]
    #: Total live (rollback-able) history entries across the network.
    live_entries: int
    #: Pruned-delivery map entries across the network (what is kept
    #: below the floor for unsends that outrun the window), and the
    #: earliest expiry among them (None: the maps are empty).
    pruned_entries: int
    oldest_expiry_us: Optional[int]


@dataclass
class GvtTracker:
    """Periodic GVT sampling for a DEFINED-RB network.

    The termination proof (Theorem 2) leans on Jefferson's lemma: *GVT,
    the earliest point to which any node can ever again roll back,
    eventually increases*.  DEFINED-RB's sliding window (Section 2.2) is
    its practical implementation: entries older than the window are final
    and pruned.  For each node the earliest surviving history entry is
    the earliest possible rollback target; the network bound is the
    minimum over nodes, monotone nondecreasing because pruning only moves
    windows forward.
    """

    network: Network
    samples: List[GvtSample] = field(default_factory=list)
    _handle: object = None
    _interval_us: int = 0

    def sample(self) -> GvtSample:
        """Take one sample now."""
        floor: Optional[Tuple[int, str]] = None
        live = 0
        expiries = []
        for node_id in self.network.node_ids():
            stack = self.network.nodes[node_id].stack
            if not isinstance(stack, DefinedShim):
                continue
            live += len(stack.history)
            expiries += [expiry for _i, _at, expiry in stack._pruned_uid_log.values()]
            if len(stack.history):
                oldest = stack.history[0].delivered_at_us
                if floor is None or oldest < floor[0]:
                    floor = (oldest, node_id)
        now = self.network.sim.now
        sample = GvtSample(
            at_us=now,
            gvt_us=floor[0] if floor is not None else now,
            floor_node=floor[1] if floor is not None else None,
            live_entries=live,
            pruned_entries=len(expiries),
            oldest_expiry_us=min(expiries, default=None),
        )
        self.samples.append(sample)
        return sample

    def start(self, interval_us: int) -> None:
        """Sample every ``interval_us`` until :meth:`stop`."""
        if interval_us <= 0:
            raise ValueError("sampling interval must be positive")
        self._interval_us = interval_us
        self._tick()

    def _tick(self) -> None:
        if self._interval_us <= 0:
            return
        self.sample()
        self._handle = self.network.sim.schedule(self._interval_us, self._tick)

    def stop(self) -> None:
        self._interval_us = 0
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def gvt_series(self) -> List[int]:
        return [s.gvt_us for s in self.samples]

    def is_monotone(self) -> bool:
        series = self.gvt_series()
        return all(b >= a for a, b in zip(series, series[1:]))

    def advanced(self) -> bool:
        """True when GVT made progress over the sampled run."""
        series = self.gvt_series()
        return len(series) >= 2 and series[-1] > series[0]

    def lag_us(self) -> int:
        """Distance between the clock and the rollback floor at the last
        sample -- bounded by the history window when Lemma 2 holds."""
        if not self.samples:
            raise ValueError("no samples taken")
        last = self.samples[-1]
        return last.at_us - last.gvt_us
