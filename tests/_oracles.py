"""Test oracles: the slow, obviously right implementations that the
product's fast paths are pinned against.

* :class:`DeepcopyStore` -- a :class:`~repro.core.statestore.StateStore`
  whose checkpoint is a full deep copy of every namespace and whose
  restore copies it back.  The COW store's undo journals must be
  observably indistinguishable from it.
* :func:`rebuilt_tag` -- ``HistoryEntry.tag`` as it was before payload
  reprs were interned and tags cached: re-rendered on every call from
  the live payload's ``repr``.

Neither is a product path.  Tests swap them in within their own process:
:func:`deepcopy_stores` makes every daemon built in its scope checkpoint
through a :class:`DeepcopyStore`, and :func:`rebuilt_tags` makes every
``tag()`` call re-render.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager

import pytest

import repro.routing.base
from repro.core.history import HistoryEntry
from repro.core.statestore import StateStore, StoreVersion


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
