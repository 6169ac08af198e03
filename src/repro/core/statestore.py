"""Copy-on-write snapshot store: checkpoints that cost what MI says.

The paper's best checkpoint scheme (MI, Section 5.2) tracks dirty bytes
and copies only what changed, dropping rollback cost to ~0.6 ms.  The
reproduction *modelled* that cost while still paying a full
``copy.deepcopy`` of the entire daemon state on every delivered message
-- the dominant real wall-clock cost of every sweep/envelope/fuzz grid
cell.  This module is the mechanism that makes the model honest:

* a :class:`StateStore` holds a node's complete checkpointable state as
  namespaced sub-stores (:class:`Namespace`): RIB, LSDB, peer tables,
  damping state, timer table, counters;
* every mutation goes through a thin **write barrier**
  (``ns[key] = value`` / ``del ns[key]`` / ``ns.clear()``) which, when a
  snapshot is live, journals the key's *previous* value into the newest
  snapshot's undo log -- first write per key per snapshot interval only;
* :meth:`StateStore.snapshot` is therefore **O(dirty-since-last-
  snapshot)** (in practice O(1): it seals the open undo logs and bumps a
  generation counter; the journaling cost was already paid by the writes
  themselves);
* :meth:`StateStore.restore` walks undo logs newest-first back to the
  requested version -- O(keys dirtied since that version) -- instead of
  re-deepcopying the world.  A restored version stays pristine and can
  be restored from again (rollback replays re-checkpoint on top of it).

Restores follow the rollback engine's **stack discipline**: restoring
version *v* discards every snapshot younger than *v*.  This is exactly
how DEFINED-RB uses checkpoints (roll back to a divergence point, then
replay forward taking fresh checkpoints) and how DEFINED-LS re-executes
a group from its group checkpoint.

**Determinism.**  Namespaces iterate in *sorted key order* via an
incrementally maintained sorted view, never in dict insertion order.
Insertion order is not restored by undo application (a key deleted and
re-added lands at the end of the dict), so any daemon behaviour hanging
off raw dict order would diverge from a store that restores by copying
the whole state back.  Sorted iteration makes the two bit-identical by
construction -- which the differential tests assert, fingerprint for
fingerprint, against a full-deepcopy store kept under ``tests/``.

**Memory accounting.**  The store reports a byte estimate of the
retained private copies (:meth:`StateStore.private_bytes`: the undo-log
entries, each its key plus the value it displaced), which the Figure-7c
shared-vs-private accounting samples at every beacon instead of a
modelled fraction.  Sizing is off the write barrier and off the journal:
entries are sized when the total is read.  A sizing watermark over the
retained snapshot stack -- a record, and how far into each of its undo
journals -- marks what is sized.  Only the newest record can grow, and
journals only append, so a read sizes just the entries past the
watermark and moves it to the end: each entry is sized once.  A run
that never reads the total -- an uninstrumented run, or a DEFINED-LS
replay, which journals every write -- sizes nothing.  The size of the
live state (:meth:`StateStore.live_bytes`, :meth:`Namespace.byte_size`)
has no per-delivery reader and is computed on demand.

**Sanitizer.**  The write-barrier contract (values are immutable; every
mutation is a replacement through the namespace API) is what the whole
snapshot-sharing scheme rests on, and a single in-place mutation of a
stored value corrupts every snapshot that shares it -- silently, in a
way the differential grid only catches probabilistically.  Sanitize mode
(``StateStore(sanitize=True)`` or ``REPRO_SANITIZE=1``) turns violations
into :class:`StoreContractViolation` errors with one check: every
mutable stored value carries a structural digest taken when it was
stored, and a value is re-digested wherever the store is about to rely
on it -- every live value at :meth:`StateStore.snapshot` and
:meth:`StateStore.restore`, the value a write or delete displaces (before
it is journalled, and before an equal rewrite is skipped), and every
journalled value before a restore puts it back.  Reads hand out the
stored object itself in both modes; DEFINED-RB checkpoints before every
delivery, so a live value mutated by a handler is caught before the next
delivery, and :class:`~repro.core.rollback.ReplayStack` names the
delivery whose handler ran last.  The static half of the same contract
lives in :mod:`repro.lint`.
"""

from __future__ import annotations

import copy
import os
from bisect import bisect_left, insort
from itertools import islice
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Sentinel in undo journals: the key was absent at snapshot time.
_MISSING = object()


class StoreContractViolation(RuntimeError):
    """A stored value was mutated in place behind the write barrier.

    Raised only in sanitize mode, when the store next relies on the
    mutated value: at ``snapshot()`` or ``restore()`` (a live value), at
    the write or delete that displaces it, or at the ``restore()`` that
    would put a journalled copy back.  The message names the namespace
    and key.
    """


def _env_sanitize() -> bool:
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1", "true", "on", "yes"
    )


#: Value types the sanitizer treats as mutable (digest-tracked from the
#: moment they are stored).
_MUTABLE_TYPES = (list, dict, set, bytearray)


def _freeze_digest(value: Any) -> Any:
    """A stable structural digest of ``value`` (hashable, order-free for
    sets/dicts) used to detect in-place mutation between store and
    snapshot time."""
    if isinstance(value, dict):
        return ("d", tuple(sorted(
            (repr(k), _freeze_digest(v)) for k, v in value.items()
        )))
    if isinstance(value, (list, tuple)):
        return ("l", tuple(_freeze_digest(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("s", tuple(sorted(repr(v) for v in value)))
    if isinstance(value, bytearray):
        return ("b", bytes(value))
    return repr(value)


def estimate_bytes(value: Any, depth: int = 0) -> int:
    """Cheap recursive size estimate (not sys.getsizeof exactness; the
    cost models only need a stable, monotone proxy).

    Exact ``str``, ``int``, ``None`` and ``tuple`` -- what journal keys
    and values almost always are -- are sized before the ``isinstance``
    chain; subclasses (``bool``, enums, named tuples) fall through to it
    and size as their base type.
    """
    if depth > 6:
        return 8
    kind = type(value)
    if kind is str:
        return 48 + len(value)
    if kind is int or value is None:
        return 16
    if kind is tuple:
        total = 24
        for item in value:
            total += estimate_bytes(item, depth + 1)
        return total
    if isinstance(value, dict):
        return 32 + sum(
            estimate_bytes(k, depth + 1) + estimate_bytes(v, depth + 1)
            for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return 24 + sum(estimate_bytes(v, depth + 1) for v in value)
    if isinstance(value, str):
        return 48 + len(value)
    if isinstance(value, (int, float, bool)) or value is None:
        return 16
    return 64


def _size_past(record: "_SnapshotRecord", sized: Optional[Dict[str, int]]) -> int:
    """Byte estimate of ``record``'s undo entries past the first
    ``sized[name]`` of each journal, which it then marks sized (``None``:
    all of them, unmarked).  Journals only ever append, in insertion
    order.  Calls :func:`estimate_bytes` through the module, where
    profilers hook it."""
    total = 0
    for name, undo in record.undos.items():
        done = sized.get(name, 0) if sized is not None else 0
        if len(undo) > done:
            for key, old in islice(undo.items(), done, None) if done else undo.items():
                total += estimate_bytes(key)
                if old is not _MISSING:
                    total += estimate_bytes(old)
            if sized is not None:
                sized[name] = len(undo)
    return total


class StoreVersion:
    """Opaque checkpoint token returned by :meth:`StateStore.snapshot`.

    It names a version in the store's snapshot stack.  Tokens are
    value-less handles: all restore logic lives in the store.
    """

    __slots__ = ("version",)

    def __init__(self, version: int):
        self.version = version

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StoreVersion {self.version}>"


class _SnapshotRecord:
    """Book-keeping for one retained snapshot."""

    __slots__ = ("version", "undos", "bytes", "known", "digests")

    def __init__(self, version: int, known: Tuple[str, ...]):
        self.version = version
        #: Per-namespace undo journals, filled lazily by the barrier:
        #: ``{ns_name: {key: value_at_snapshot_time_or_MISSING}}``.
        self.undos: Dict[str, Dict[Any, Any]] = {}
        #: Byte estimate of the private data this record retains, once
        #: :meth:`StateStore.private_bytes` has sized it (0 until then).
        self.bytes = 0
        #: Namespaces that existed when the snapshot was taken; ones
        #: created later are wiped on restore (they did not exist then).
        self.known = known
        #: Sanitize mode: ``{(ns_name, key): digest}`` of each journalled
        #: mutable value, verified before a restore puts it back; ``None``
        #: until the first one is journalled.
        self.digests: Optional[Dict[Tuple[str, Any], Any]] = None


class Namespace:
    """One named sub-store: a key->value mapping behind a write barrier.

    Every namespace belongs to a store and is created by
    :meth:`StateStore.namespace`; the store's snapshots cover it.

    Values must be treated as **immutable** by callers (tuples, ints,
    strings, frozen dataclasses): snapshots share them structurally.
    Mutating a stored value in place bypasses the barrier and corrupts
    every snapshot that references it -- store a replacement instead.

    Iteration (``iter`` / ``items`` / ``values``) is always in sorted
    key order, from an incrementally maintained sorted view; keys within
    one namespace must therefore be mutually comparable.
    """

    __slots__ = (
        "name", "_store", "_data", "_sorted",
        "_undo", "_undo_gen", "_listeners", "_dirty_total",
        "_sanitize", "_digests",
    )

    def __init__(self, name: str, store: "StateStore"):
        self.name = name
        self._store = store
        self._data: Dict[Any, Any] = {}
        self._sorted: List[Any] = []
        self._undo: Optional[Dict[Any, Any]] = None
        self._undo_gen = -1
        #: Cumulative count of keys journalled into undo logs (first
        #: write per key per snapshot interval), i.e. how much COW
        #: journaling traffic this namespace generates.
        self._dirty_total = 0
        self._sanitize = store.sanitize
        #: Sanitize mode: structural digests of the mutable stored
        #: values, taken when each was stored.
        self._digests: Dict[Any, Any] = {}
        #: Called (with no args) after the store rewinds this namespace;
        #: components keeping derived indexes (the timer table's due
        #: view) use it to invalidate them.
        self._listeners: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # write barrier
    # ------------------------------------------------------------------
    def _journal(self, key: Any, old: Any) -> None:
        store = self._store
        if not store._journaling:
            return
        if self._undo_gen != store._gen:
            self._undo = {}
            self._undo_gen = store._gen
            store._top.undos[self.name] = self._undo
        undo = self._undo
        assert undo is not None
        if key not in undo:
            undo[key] = old
            self._dirty_total += 1
            if self._sanitize and key in self._digests:
                top = store._top
                if top.digests is None:
                    top.digests = {}
                top.digests[self.name, key] = self._digests[key]

    def _track_sanitized(self, key: Any, value: Any) -> None:
        if isinstance(value, _MUTABLE_TYPES):
            self._digests[key] = _freeze_digest(value)
        else:
            self._digests.pop(key, None)

    def __setitem__(self, key: Any, value: Any) -> None:
        data = self._data
        old = data.get(key, _MISSING)
        if old is _MISSING:
            insort(self._sorted, key)
        else:
            if self._sanitize:
                self._verify_key(key)
            if old is value or old == value:
                # values are immutable by contract, so an equal rewrite is
                # a no-op: journaling it would bloat every snapshot's undo
                # log with clean keys (wholesale replace()/load_state()
                # callers would otherwise re-journal whole tables,
                # defeating O(dirty))
                return
        self._journal(key, old)
        data[key] = value
        if self._sanitize:
            self._track_sanitized(key, value)

    set = __setitem__

    def __delitem__(self, key: Any) -> None:
        data = self._data
        if key not in data:
            raise KeyError(key)
        if self._sanitize:
            self._verify_key(key)
        self._journal(key, data[key])
        del data[key]
        del self._sorted[bisect_left(self._sorted, key)]
        if self._sanitize:
            self._digests.pop(key, None)

    def pop(self, key: Any, *default: Any) -> Any:
        if key in self._data:
            value = self._data[key]
            del self[key]
            return value
        if default:
            return default[0]
        raise KeyError(key)

    def clear(self) -> None:
        for key in list(self._sorted):
            del self[key]

    def update(self, mapping: Dict[Any, Any]) -> None:
        for key in sorted(mapping):
            self[key] = mapping[key]

    def replace(self, mapping: Dict[Any, Any]) -> None:
        """Replace the whole contents (journalled like any other write)."""
        for key in list(self._sorted):
            if key not in mapping:
                del self[key]
        self.update(mapping)

    # ------------------------------------------------------------------
    # reads (no barrier)
    # ------------------------------------------------------------------
    def _where(self, key: Any) -> str:
        return f"namespace {self.name!r} key {key!r}"

    def __getitem__(self, key: Any) -> Any:
        return self._data[key]

    def get(self, key: Any, default: Any = None) -> Any:
        return self._data.get(key, default)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def __iter__(self) -> Iterator[Any]:
        return iter(tuple(self._sorted))

    def keys(self) -> Tuple[Any, ...]:
        return tuple(self._sorted)

    def items(self) -> List[Tuple[Any, Any]]:
        data = self._data
        return [(k, data[k]) for k in self._sorted]

    def values(self) -> List[Any]:
        data = self._data
        return [data[k] for k in self._sorted]

    def as_dict(self) -> Dict[Any, Any]:
        """Materialize (sorted key order -- deterministic repr)."""
        data = self._data
        return {k: data[k] for k in self._sorted}

    def byte_size(self) -> int:
        """Byte estimate of the live contents, computed on demand."""
        return sum(
            estimate_bytes(k) + estimate_bytes(v) for k, v in self._data.items()
        )

    # ------------------------------------------------------------------
    # sanitize mode: the store-contract check
    # ------------------------------------------------------------------
    def _verify(self, key: Any, value: Any, digest: Any) -> None:
        """Raise unless ``value`` (stored under ``key``, now or in an undo
        journal) still has ``digest``, the digest it was stored with."""
        if _freeze_digest(value) != digest:
            raise StoreContractViolation(
                f"value stored in {self._where(key)} was mutated in "
                "place through an aliased reference since it was "
                "stored; stored values are immutable behind the "
                "write barrier -- store a replacement instead"
            )

    def _verify_key(self, key: Any) -> None:
        digest = self._digests.get(key)
        if digest is not None:
            self._verify(key, self._data[key], digest)

    def _verify_digests(self) -> None:
        data = self._data
        for key, digest in self._digests.items():
            self._verify(key, data[key], digest)

    def add_listener(self, fn: Callable[[], None]) -> None:
        self._listeners.append(fn)

    # ------------------------------------------------------------------
    # store-internal (no journaling -- used by undo application)
    # ------------------------------------------------------------------
    def _raw_set(self, key: Any, value: Any) -> None:
        if key not in self._data:
            insort(self._sorted, key)
        self._data[key] = value
        if self._sanitize:
            self._track_sanitized(key, value)

    def _raw_delete(self, key: Any) -> None:
        if key not in self._data:
            return
        del self._data[key]
        del self._sorted[bisect_left(self._sorted, key)]
        if self._sanitize:
            self._digests.pop(key, None)

    def _wipe(self) -> None:
        self._data = {}
        self._sorted = []
        self._digests = {}

    def _notify(self) -> None:
        for fn in self._listeners:
            fn()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Namespace {self.name}: {len(self._data)} keys>"


class StateStore:
    """A node's versioned, structurally-sharing checkpointable state."""

    def __init__(self, sanitize: Optional[bool] = None):
        #: Sanitize mode: default from ``REPRO_SANITIZE`` so whole
        #: sweeps can opt in without threading a flag everywhere.
        self._sanitize = _env_sanitize() if sanitize is None else bool(sanitize)
        self._namespaces: Dict[str, Namespace] = {}
        #: ``tuple(self._namespaces)``, rebuilt only when one is added:
        #: every snapshot records it.
        self._known: Tuple[str, ...] = ()
        self._version = 0
        self._snapshots: List[_SnapshotRecord] = []
        #: Sizing watermark: the retained records below index ``_sized``
        #: are sized, and record ``_sized`` is, up to ``_sized_entries``
        #: entries of each undo journal; ``_private_bytes`` sums what is
        #: sized.  Only the newest record can grow, so the watermark never
        #: has to move back over an entry.
        self._sized = 0
        self._sized_entries: Dict[str, int] = {}
        self._private_bytes = 0
        #: Monotone generation; bumped whenever the "newest snapshot"
        #: identity changes so barriers can re-bind their undo dicts.
        self._gen = 0
        self._journaling = False
        self._top: Optional[_SnapshotRecord] = None

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @property
    def sanitize(self) -> bool:
        return self._sanitize

    def namespace(self, name: str) -> Namespace:
        """Create (or return the existing) namespace ``name``."""
        ns = self._namespaces.get(name)
        if ns is None:
            ns = Namespace(name, store=self)
            self._namespaces[name] = ns
            self._known = tuple(self._namespaces)
        return ns

    def namespaces(self) -> Tuple[str, ...]:
        return tuple(sorted(self._namespaces))

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> StoreVersion:
        """Capture the current state; returns an opaque token.

        O(1): seal the open undo journals and open fresh (lazy) ones.
        """
        if self._sanitize:
            self._verify_live()
        self._version += 1
        record = _SnapshotRecord(self._version, self._known)
        self._snapshots.append(record)
        self._top = record
        self._gen += 1
        self._journaling = True
        return StoreVersion(self._version)

    def restore(self, token: StoreVersion) -> None:
        """Rewind the live state to ``token``'s version.

        Discards every younger snapshot (rollback stack discipline); the
        restored version itself stays retained and pristine, so it can
        be restored from again.
        """
        self._check_retained(token)
        if self._sanitize:
            self._verify_live()
        snapshots = self._snapshots
        while snapshots[-1].version > token.version:
            record = snapshots.pop()
            self._apply_undo(record)
            self._private_bytes -= record.bytes
        record = snapshots[-1]
        self._apply_undo(record)
        self._private_bytes -= record.bytes
        record.undos = {}
        record.bytes = 0
        record.digests = None
        # the restored record is the newest again, and empty
        if self._sized >= len(snapshots) - 1:
            self._sized, self._sized_entries = len(snapshots) - 1, {}
        self._wipe_unknown(record)
        # re-open journaling against the restored top
        self._top = record
        self._gen += 1
        for ns in self._namespaces.values():
            ns._notify()

    def _check_retained(self, token: StoreVersion) -> None:
        """Validate BEFORE unwinding: a bad token must not destroy the
        retained stack on its way to the error.  Records are sorted by
        version, so this is a bisect, not a scan."""
        snapshots = self._snapshots
        i = bisect_left(snapshots, token.version, key=lambda r: r.version)
        if i == len(snapshots) or snapshots[i].version != token.version:
            raise ValueError(
                f"store version {token.version} is unknown or was released"
            )

    def _verify_live(self) -> None:
        for ns in self._namespaces.values():
            ns._verify_digests()

    def _apply_undo(self, record: _SnapshotRecord) -> None:
        if record.digests:
            for (name, key), digest in record.digests.items():
                self._namespaces[name]._verify(key, record.undos[name][key], digest)
        for name, undo in record.undos.items():
            ns = self._namespaces[name]
            for key, old in undo.items():
                if old is _MISSING:
                    ns._raw_delete(key)
                else:
                    ns._raw_set(key, old)

    def _wipe_unknown(self, record: _SnapshotRecord) -> None:
        known = set(record.known)
        for name, ns in self._namespaces.items():
            if name not in known:
                ns._wipe()

    # ------------------------------------------------------------------
    # retention
    # ------------------------------------------------------------------
    def release_before(self, token: StoreVersion) -> int:
        """Drop retained snapshots older than ``token`` (their undo data
        can never be restored to again -- the history window moved past
        them).  Returns the number released."""
        snapshots = self._snapshots
        released = bisect_left(snapshots, token.version, key=lambda r: r.version)
        if released:
            for record in snapshots[:released]:
                self._private_bytes -= record.bytes
            # one slice deletion (single memmove) instead of per-record
            # pop(0) shifts: this runs on every beacon's window prune
            del snapshots[:released]
            if released > self._sized:
                self._sized, self._sized_entries = 0, {}
            else:
                self._sized -= released
        return released

    def reset(self) -> None:
        """Forget every snapshot (reboot); live state is untouched."""
        self._snapshots = []
        self._sized, self._sized_entries = 0, {}
        self._private_bytes = 0
        self._journaling = False
        self._top = None
        self._gen += 1

    def retained_snapshots(self) -> int:
        return len(self._snapshots)

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def live_bytes(self) -> int:
        """Byte estimate of the live (shared) state, computed on demand."""
        return sum(ns.byte_size() for ns in self._namespaces.values())

    def dirty_key_counts(self) -> Dict[str, int]:
        """Per-namespace cumulative COW journal traffic (keys journalled
        into undo logs), sorted by namespace name."""
        return {
            name: self._namespaces[name]._dirty_total
            for name in sorted(self._namespaces)
        }

    def private_bytes(self) -> int:
        """Byte estimate of the retained private copies: the undo-journal
        entries, each its key plus the value it displaced.

        Entries are sized here, not when journalled, each once: the
        watermark advances over what this call sizes.  Values are
        immutable by contract, so an entry sized late has the size it
        had when it was journalled.
        """
        snapshots = self._snapshots
        first, last = self._sized, len(snapshots) - 1
        if first > last:
            return self._private_bytes
        for index in range(first, last + 1):
            record = snapshots[index]
            if index == first:
                sized: Optional[Dict[str, int]] = self._sized_entries
            else:  # above the watermark: nothing sized yet
                sized = {} if index == last else None
            if record.undos:
                cost = _size_past(record, sized)
                record.bytes += cost
                self._private_bytes += cost
        self._sized, self._sized_entries = last, sized
        return self._private_bytes

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def materialize(self) -> Dict[str, Dict[Any, Any]]:
        """A plain, independent dict-of-dicts copy of the live state."""
        return {
            name: copy.deepcopy(ns.as_dict())
            for name, ns in sorted(self._namespaces.items())
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<StateStore v{self._version} "
            f"{len(self._namespaces)} ns, {len(self._snapshots)} snaps>"
        )
