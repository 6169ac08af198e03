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

**Memory accounting.**  The store keeps a running byte estimate of the
retained private copies (:meth:`StateStore.private_bytes`: the undo-log
entries), which the Figure-7c shared-vs-private accounting samples at
every beacon instead of a modelled fraction.  Sizing is off the write
barrier: an undo entry is sized once, when the journal actually records
it (key plus the value it displaced), so a write that journals nothing
-- every write of an uninstrumented run -- sizes nothing.  The size of
the live state (:meth:`StateStore.live_bytes`,
:meth:`Namespace.byte_size`) has no per-delivery reader and is computed
on demand.

**Sanitizer.**  The write-barrier contract (values are immutable; every
mutation is a replacement through the namespace API) is what the whole
snapshot-sharing scheme rests on, and a single in-place mutation of a
stored value corrupts every snapshot that shares it -- silently, in a
way the differential grid only catches probabilistically.  Sanitize mode
(``StateStore(sanitize=True)`` or ``REPRO_SANITIZE=1``) turns violations
into immediate :class:`StoreContractViolation` errors: reads hand out
freeze-proxy *views* of any mutable stored value (mutating through the
view raises at the mutation site), and :meth:`StateStore.snapshot`
verifies a structural digest of every mutable value against its
stored-time digest, catching *aliased escapes* -- a caller that kept the
raw reference it stored and mutated it behind the barrier.  The static
half of the same contract lives in :mod:`repro.lint`.
"""

from __future__ import annotations

import copy
import os
from bisect import bisect_left, insort
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Sentinel in undo journals: the key was absent at snapshot time.
_MISSING = object()


class StoreContractViolation(RuntimeError):
    """A stored value was mutated in place behind the write barrier.

    Raised only in sanitize mode: either at the mutation site (the value
    was reached through a freeze-proxy view) or at the next
    ``snapshot()`` (the value was mutated through an aliased raw
    reference the caller kept from before/after storing it).
    """


def _env_sanitize() -> bool:
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1", "true", "on", "yes"
    )


#: Value types the sanitizer treats as mutable (proxy-wrapped on read,
#: digest-tracked for aliased-escape detection at snapshot time).
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


class _FrozenViewBase:
    """Read-only, non-copying view of a mutable stored value.

    Reads delegate to (and re-wrap) the underlying object, so sanitized
    code sees identical data; any mutator raises
    :class:`StoreContractViolation` naming the namespace/key it came
    from.  The underlying object is shared, not copied -- the sanitizer
    detects contract violations, it does not paper over them.
    """

    __slots__ = ("_obj", "_where")

    def __init__(self, obj: Any, where: str):
        object.__setattr__(self, "_obj", obj)
        object.__setattr__(self, "_where", where)

    def _violate(self, op: str) -> None:
        raise StoreContractViolation(
            f"in-place {op} of a value stored in {self._where}: stored "
            "values are immutable behind the write barrier (snapshots "
            "share them structurally); store a replacement instead"
        )

    def __len__(self) -> int:
        return len(self._obj)

    def __iter__(self) -> Iterator[Any]:
        where = self._where
        return (_wrap_sanitized(v, where) for v in iter(self._obj))

    def __contains__(self, item: Any) -> bool:
        return _unwrap_sanitized(item) in self._obj

    def __eq__(self, other: Any) -> bool:
        return self._obj == _unwrap_sanitized(other)

    def __ne__(self, other: Any) -> bool:
        return self._obj != _unwrap_sanitized(other)

    def __lt__(self, other: Any):
        return self._obj < _unwrap_sanitized(other)

    def __le__(self, other: Any):
        return self._obj <= _unwrap_sanitized(other)

    def __gt__(self, other: Any):
        return self._obj > _unwrap_sanitized(other)

    def __ge__(self, other: Any):
        return self._obj >= _unwrap_sanitized(other)

    def __repr__(self) -> str:
        return repr(self._obj)

    def __bool__(self) -> bool:
        return bool(self._obj)

    def __deepcopy__(self, memo: Dict) -> Any:
        # deepcopy escapes the store entirely -- hand back a plain copy
        return copy.deepcopy(self._obj, memo)


class _FrozenListView(_FrozenViewBase):
    __slots__ = ()
    __hash__ = None  # unhashable, like list

    def __getitem__(self, index: Any) -> Any:
        item = self._obj[index]
        if isinstance(index, slice):
            return [_wrap_sanitized(v, self._where) for v in item]
        return _wrap_sanitized(item, self._where)

    def index(self, *args: Any) -> int:
        return self._obj.index(*args)

    def count(self, value: Any) -> int:
        return self._obj.count(value)

    def __add__(self, other: Any) -> list:
        return list(self._obj) + list(_unwrap_sanitized(other))

    def append(self, *a: Any) -> None:
        self._violate("append()")

    def extend(self, *a: Any) -> None:
        self._violate("extend()")

    def insert(self, *a: Any) -> None:
        self._violate("insert()")

    def remove(self, *a: Any) -> None:
        self._violate("remove()")

    def pop(self, *a: Any) -> None:
        self._violate("pop()")

    def clear(self) -> None:
        self._violate("clear()")

    def sort(self, *a: Any, **k: Any) -> None:
        self._violate("sort()")

    def reverse(self) -> None:
        self._violate("reverse()")

    def __setitem__(self, *a: Any) -> None:
        self._violate("item assignment")

    def __delitem__(self, *a: Any) -> None:
        self._violate("item deletion")

    def __iadd__(self, other: Any) -> None:
        self._violate("+=")

    def __imul__(self, other: Any) -> None:
        self._violate("*=")


class _FrozenDictView(_FrozenViewBase):
    __slots__ = ()
    __hash__ = None

    def __getitem__(self, key: Any) -> Any:
        return _wrap_sanitized(self._obj[key], self._where)

    def get(self, key: Any, default: Any = None) -> Any:
        if key in self._obj:
            return _wrap_sanitized(self._obj[key], self._where)
        return default

    def keys(self):
        return self._obj.keys()

    def values(self):
        where = self._where
        # repro-lint: disable=DET105(faithful view: must preserve the wrapped dict's own order)
        return [_wrap_sanitized(v, where) for v in self._obj.values()]

    def items(self):
        where = self._where
        # repro-lint: disable=DET105(faithful view: must preserve the wrapped dict's own order)
        return [(k, _wrap_sanitized(v, where)) for k, v in self._obj.items()]

    def __setitem__(self, *a: Any) -> None:
        self._violate("item assignment")

    def __delitem__(self, *a: Any) -> None:
        self._violate("item deletion")

    def pop(self, *a: Any) -> None:
        self._violate("pop()")

    def popitem(self) -> None:
        self._violate("popitem()")

    def clear(self) -> None:
        self._violate("clear()")

    def update(self, *a: Any, **k: Any) -> None:
        self._violate("update()")

    def setdefault(self, *a: Any) -> None:
        self._violate("setdefault()")

    def __ior__(self, other: Any) -> None:
        self._violate("|=")


class _FrozenSetView(_FrozenViewBase):
    __slots__ = ()
    __hash__ = None

    def isdisjoint(self, other: Any) -> bool:
        return self._obj.isdisjoint(_unwrap_sanitized(other))

    def issubset(self, other: Any) -> bool:
        return self._obj.issubset(_unwrap_sanitized(other))

    def issuperset(self, other: Any) -> bool:
        return self._obj.issuperset(_unwrap_sanitized(other))

    def union(self, *others: Any) -> set:
        return self._obj.union(*(_unwrap_sanitized(o) for o in others))

    def intersection(self, *others: Any) -> set:
        return self._obj.intersection(*(_unwrap_sanitized(o) for o in others))

    def difference(self, *others: Any) -> set:
        return self._obj.difference(*(_unwrap_sanitized(o) for o in others))

    def add(self, *a: Any) -> None:
        self._violate("add()")

    def remove(self, *a: Any) -> None:
        self._violate("remove()")

    def discard(self, *a: Any) -> None:
        self._violate("discard()")

    def pop(self) -> None:
        self._violate("pop()")

    def clear(self) -> None:
        self._violate("clear()")

    def update(self, *a: Any) -> None:
        self._violate("update()")

    def __ior__(self, other: Any) -> None:
        self._violate("|=")

    def __iand__(self, other: Any) -> None:
        self._violate("&=")

    def __isub__(self, other: Any) -> None:
        self._violate("-=")

    def __ixor__(self, other: Any) -> None:
        self._violate("^=")


class _FrozenByteArrayView(_FrozenViewBase):
    __slots__ = ()
    __hash__ = None

    def __getitem__(self, index: Any) -> Any:
        return self._obj[index]

    def append(self, *a: Any) -> None:
        self._violate("append()")

    def extend(self, *a: Any) -> None:
        self._violate("extend()")

    def __setitem__(self, *a: Any) -> None:
        self._violate("item assignment")

    def __delitem__(self, *a: Any) -> None:
        self._violate("item deletion")

    def __iadd__(self, other: Any) -> None:
        self._violate("+=")


_VIEW_BY_TYPE = {
    list: _FrozenListView,
    dict: _FrozenDictView,
    set: _FrozenSetView,
    bytearray: _FrozenByteArrayView,
}


def _wrap_sanitized(value: Any, where: str) -> Any:
    view = _VIEW_BY_TYPE.get(type(value))
    return view(value, where) if view is not None else value


def _unwrap_sanitized(value: Any) -> Any:
    return value._obj if isinstance(value, _FrozenViewBase) else value


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

    __slots__ = ("version", "undos", "bytes", "known")

    def __init__(self, version: int, known: Tuple[str, ...]):
        self.version = version
        #: Per-namespace undo journals, filled lazily by the barrier:
        #: ``{ns_name: {key: value_at_snapshot_time_or_MISSING}}``.
        self.undos: Dict[str, Dict[Any, Any]] = {}
        #: Byte estimate of the private data this record retains.
        self.bytes = 0
        #: Namespaces that existed when the snapshot was taken; ones
        #: created later are wiped on restore (they did not exist then).
        self.known = known


class Namespace:
    """One named sub-store: a key->value mapping behind a write barrier.

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

    def __init__(self, name: str, store: Optional["StateStore"] = None):
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
        self._sanitize = store.sanitize if store is not None else _env_sanitize()
        #: Sanitize mode: structural digests of mutable stored values,
        #: verified at snapshot time to catch aliased escapes.
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
        if store is None or not store._journaling:
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
            # the entry's private bytes: the key, plus the displaced value
            # (sized here, at journal time, not on every write -- sound
            # because values are immutable by contract)
            cost = estimate_bytes(key)
            if old is not _MISSING:
                cost += estimate_bytes(old)
            store._top.bytes += cost
            store._private_bytes += cost

    def _track_sanitized(self, key: Any, value: Any) -> None:
        if isinstance(value, _MUTABLE_TYPES):
            self._digests[key] = _freeze_digest(value)
        else:
            self._digests.pop(key, None)

    def __setitem__(self, key: Any, value: Any) -> None:
        if self._sanitize:
            value = _unwrap_sanitized(value)
            self._track_sanitized(key, value)
        data = self._data
        old = data.get(key, _MISSING)
        if old is _MISSING:
            insort(self._sorted, key)
        elif old is value or old == value:
            # values are immutable by contract, so an equal rewrite is a
            # no-op: journaling it would bloat every snapshot's undo log
            # with clean keys (wholesale replace()/load_state() callers
            # would otherwise re-journal whole tables, defeating O(dirty))
            return
        self._journal(key, old)
        data[key] = value

    set = __setitem__

    def __delitem__(self, key: Any) -> None:
        data = self._data
        if key not in data:
            raise KeyError(key)
        self._journal(key, data[key])
        del data[key]
        del self._sorted[bisect_left(self._sorted, key)]
        if self._sanitize:
            self._digests.pop(key, None)

    def pop(self, key: Any, *default: Any) -> Any:
        if key in self._data:
            value = self._data[key]
            del self[key]
            if self._sanitize:
                # the popped value may still be shared with undo journals
                return _wrap_sanitized(value, self._where(key))
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
        value = self._data[key]
        if self._sanitize:
            return _wrap_sanitized(value, self._where(key))
        return value

    def get(self, key: Any, default: Any = None) -> Any:
        if self._sanitize:
            if key in self._data:
                return _wrap_sanitized(self._data[key], self._where(key))
            return default
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
        if self._sanitize:
            return [
                (k, _wrap_sanitized(data[k], self._where(k)))
                for k in self._sorted
            ]
        return [(k, data[k]) for k in self._sorted]

    def values(self) -> List[Any]:
        data = self._data
        if self._sanitize:
            return [_wrap_sanitized(data[k], self._where(k)) for k in self._sorted]
        return [data[k] for k in self._sorted]

    def as_dict(self) -> Dict[Any, Any]:
        """Materialize (sorted key order -- deterministic repr)."""
        data = self._data
        if self._sanitize:
            return {
                k: _wrap_sanitized(data[k], self._where(k))
                for k in self._sorted
            }
        return {k: data[k] for k in self._sorted}

    def byte_size(self) -> int:
        """Byte estimate of the live contents, computed on demand."""
        return sum(
            estimate_bytes(k) + estimate_bytes(v) for k, v in self._data.items()
        )

    def dirty_keys_total(self) -> int:
        """Cumulative COW journal traffic: keys journalled into undo
        logs over this namespace's lifetime (first write per key per
        snapshot interval)."""
        return self._dirty_total

    def _verify_digests(self) -> None:
        """Sanitize mode: re-digest every mutable stored value and
        compare against its stored-time digest -- catches a caller that
        kept the raw reference it stored and mutated it in place."""
        data = self._data
        for key, digest in self._digests.items():
            if key not in data:
                continue
            if _freeze_digest(data[key]) != digest:
                raise StoreContractViolation(
                    f"value stored in {self._where(key)} was mutated in "
                    "place through an aliased reference since it was "
                    "stored; stored values are immutable behind the "
                    "write barrier -- store a replacement instead"
                )

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
            for ns in self._namespaces.values():
                ns._verify_digests()
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

    def _apply_undo(self, record: _SnapshotRecord) -> None:
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
        return released

    def reset(self) -> None:
        """Forget every snapshot (reboot); live state is untouched."""
        self._snapshots = []
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
        entries."""
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
