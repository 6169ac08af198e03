"""Unit and property tests for the copy-on-write snapshot store."""

import enum
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from _fixtures import run_scenario_cell
from _oracles import DeepcopyStore

from repro.core.statestore import StateStore, estimate_bytes

#: The COW store and the full-copy oracle it must be indistinguishable from.
both_stores = pytest.mark.parametrize(
    "store_cls", [StateStore, DeepcopyStore], ids=["cow", "deepcopy"]
)


def make_store(store_cls=StateStore):
    store = store_cls()
    a = store.namespace("a")
    b = store.namespace("b")
    return store, a, b


class TestNamespace:
    def test_mapping_basics(self):
        ns = StateStore().namespace("n")
        ns["k"] = 1
        assert ns["k"] == 1 and "k" in ns and len(ns) == 1
        ns["k"] = 2
        assert ns["k"] == 2 and len(ns) == 1
        del ns["k"]
        assert "k" not in ns
        with pytest.raises(KeyError):
            del ns["k"]
        with pytest.raises(KeyError):
            ns.pop("k")
        assert ns.pop("k", "dflt") == "dflt"

    def test_iteration_is_sorted(self):
        ns = StateStore().namespace("n")
        for key in ("z", "a", "m"):
            ns[key] = key.upper()
        assert list(ns) == ["a", "m", "z"]
        assert ns.items() == [("a", "A"), ("m", "M"), ("z", "Z")]
        assert ns.values() == ["A", "M", "Z"]
        assert list(ns.as_dict()) == ["a", "m", "z"]

    def test_sorted_view_tracks_deletes_and_reinserts(self):
        ns = StateStore().namespace("n")
        for key in ("b", "a", "c"):
            ns[key] = 0
        del ns["b"]
        ns["b"] = 1  # re-insert: raw dict order now differs from sorted
        assert list(ns) == ["a", "b", "c"]

    def test_replace(self):
        ns = StateStore().namespace("n")
        ns.update({"a": 1, "b": 2})
        ns.replace({"b": 3, "c": 4})
        assert ns.as_dict() == {"b": 3, "c": 4}

    def test_equal_rewrite_is_not_journalled(self):
        store, a, _b = make_store()
        a["k"] = (1, 2)
        a["same"] = "x"
        token = store.snapshot()
        a["k"] = (1, 2)          # equal value: clean key, no undo entry
        a["same"] = "x"
        assert store.private_bytes() == 0
        a["k"] = (1, 3)          # actually dirty now
        assert store.private_bytes() > 0
        store.restore(token)
        assert a["k"] == (1, 2)

    def test_replace_with_unchanged_table_stays_clean(self):
        store, a, _b = make_store()
        table = {f"d{i}": i for i in range(20)}
        a.replace(table)
        store.snapshot()
        a.replace(dict(table))   # the SPF-recompute shape: same output
        assert store.private_bytes() == 0

    def test_byte_accounting_returns_to_zero(self):
        ns = StateStore().namespace("n")
        assert ns.byte_size() == 0
        ns["key"] = ("tuple", 1)
        ns["other"] = "text"
        assert ns.byte_size() > 0
        ns.clear()
        assert ns.byte_size() == 0


class TestSnapshotRestore:
    @both_stores
    def test_roundtrip(self, store_cls):
        store, a, b = make_store(store_cls)
        a["x"] = 1
        b["y"] = (1, 2)
        token = store.snapshot()
        a["x"] = 99
        del b["y"]
        b["z"] = 3
        store.restore(token)
        assert a["x"] == 1
        assert b.as_dict() == {"y": (1, 2)}

    @both_stores
    def test_restore_twice_from_same_token_is_pristine(self, store_cls):
        store, a, _b = make_store(store_cls)
        a["x"] = "base"
        token = store.snapshot()
        a["x"] = "first divergence"
        store.restore(token)
        assert a["x"] == "base"
        a["x"] = "second divergence"
        a["extra"] = True
        store.restore(token)
        assert a.as_dict() == {"x": "base"}

    @both_stores
    def test_restore_discards_younger_snapshots(self, store_cls):
        store, a, _b = make_store(store_cls)
        a["x"] = 0
        t0 = store.snapshot()
        a["x"] = 1
        t1 = store.snapshot()
        a["x"] = 2
        store.restore(t0)
        assert a["x"] == 0
        with pytest.raises(ValueError):
            store.restore(t1)  # younger than the restore point: gone

    def test_restore_interleaved_versions(self):
        store, a, _b = make_store()
        history = []
        tokens = []
        for i in range(5):
            a["k"] = i
            a[f"only{i}"] = i
            tokens.append(store.snapshot())
            history.append(a.as_dict())
        # roll back to version 2, re-execute, roll back again
        store.restore(tokens[2])
        assert a.as_dict() == history[2]
        a["k"] = 99
        t_new = store.snapshot()
        a["k"] = 100
        store.restore(t_new)
        assert a["k"] == 99
        store.restore(tokens[2])
        assert a.as_dict() == history[2]

    def test_restore_unknown_version_raises(self):
        store, a, _b = make_store()
        a["x"] = 1
        token = store.snapshot()
        store.reset()
        with pytest.raises(ValueError):
            store.restore(token)

    def test_namespace_created_after_snapshot_is_wiped_on_restore(self):
        store, a, _b = make_store()
        a["x"] = 1
        token = store.snapshot()
        late = store.namespace("late")
        late["k"] = 1
        store.restore(token)
        assert len(late) == 0

    def test_release_before_frees_old_versions(self):
        store, a, _b = make_store()
        tokens = []
        for i in range(4):
            a["k"] = i
            tokens.append(store.snapshot())
        assert store.retained_snapshots() == 4
        released = store.release_before(tokens[2])
        assert released == 2
        assert store.retained_snapshots() == 2
        with pytest.raises(ValueError):
            store.restore(tokens[0])
        store.restore(tokens[2])
        assert a["k"] == 2


class TestMemoryAccounting:
    def test_live_bytes_track_contents(self):
        store, a, b = make_store()
        assert store.live_bytes() == 0
        a["x"] = ("payload", 123)
        b["y"] = "text"
        assert store.live_bytes() == a.byte_size() + b.byte_size() > 0

    def test_cow_private_bytes_grow_with_dirty_keys_only(self):
        store, a, _b = make_store()
        for i in range(50):
            a[f"k{i}"] = i
        store.snapshot()
        assert store.private_bytes() == 0  # nothing dirtied yet
        a["k0"] = 99
        a["k0"] = 100  # second write of the same key: already journalled
        after_one_key = store.private_bytes()
        assert after_one_key > 0
        a["k1"] = 99
        assert store.private_bytes() > after_one_key
        # far smaller than a full copy: that is the whole point
        assert store.private_bytes() < store.live_bytes() / 2

    def test_deepcopy_private_bytes_charge_full_copies(self):
        store, a, _b = make_store(DeepcopyStore)
        for i in range(50):
            a[f"k{i}"] = i
        store.snapshot()
        assert store.private_bytes() >= store.live_bytes()
        store.snapshot()
        assert store.private_bytes() >= 2 * store.live_bytes()

    def test_private_bytes_released_with_versions(self):
        store, a, _b = make_store()
        a["k"] = 0
        t0 = store.snapshot()
        a["k"] = 1
        t1 = store.snapshot()
        a["k"] = 2
        assert store.private_bytes() > 0
        store.release_before(t1)
        store.restore(t1)
        assert store.private_bytes() == 0


# ----------------------------------------------------------------------
# model-based property test: the store (and the full-copy oracle) must
# agree with the obvious deepcopy model under arbitrary op sequences
# ----------------------------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from("abcd"),
                  st.integers(0, 5), st.integers(0, 100)),
        st.tuples(st.just("del"), st.sampled_from("abcd"), st.integers(0, 5)),
        st.tuples(st.just("snap")),
        st.tuples(st.just("restore"), st.integers(0, 7)),
        st.tuples(st.just("release"), st.integers(0, 7)),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(ops=_ops, store_cls=st.sampled_from([StateStore, DeepcopyStore]))
def test_property_store_matches_deepcopy_model(ops, store_cls):
    import copy

    cow = store_cls is StateStore
    store = store_cls()
    namespaces = {name: store.namespace(name) for name in "abcd"}
    model = {name: {} for name in "abcd"}
    tokens = []        # (token, model_state) stack mirroring the store's
    # The private bytes each retained snapshot holds, by what it holds
    # them for.  COW: one undo entry per first write per key per snapshot
    # interval -- the key, plus the value it displaced unless the key was
    # absent.  The oracle: one full copy of the state at snapshot time.
    journal = []

    def live_model_bytes():
        return sum(
            estimate_bytes(k) + estimate_bytes(v)
            for table in model.values() for k, v in table.items()
        )

    def journal_write(ns, key):
        if cow and journal and (ns, key) not in journal[-1]:
            journal[-1][ns, key] = estimate_bytes(key) + (
                estimate_bytes(model[ns][key]) if key in model[ns] else 0
            )

    for op in ops:
        if op[0] == "set":
            _kind, ns, key, value = op
            if model[ns].get(key) != value:  # an equal rewrite is clean
                journal_write(ns, key)
            namespaces[ns][key] = value
            model[ns][key] = value
        elif op[0] == "del":
            _kind, ns, key = op
            if key in model[ns]:
                journal_write(ns, key)
            namespaces[ns].pop(key, None)
            model[ns].pop(key, None)
        elif op[0] == "snap":
            tokens.append((store.snapshot(), copy.deepcopy(model)))
            journal.append({} if cow else {"copy": live_model_bytes()})
        elif not tokens:
            continue
        elif op[0] == "restore":
            index = op[1] % len(tokens)
            token, saved = tokens[index]
            store.restore(token)
            del tokens[index + 1:]  # stack discipline
            del journal[index + 1:]
            if cow:
                journal[index] = {}  # undone, and open again
            model = copy.deepcopy(saved)
        else:
            index = op[1] % len(tokens)
            assert store.release_before(tokens[index][0]) == index
            del tokens[:index]
            del journal[:index]
        current = {name: ns.as_dict() for name, ns in namespaces.items()}
        assert current == model
        for name, ns in namespaces.items():
            assert list(ns) == sorted(model[name])
        assert store.live_bytes() == live_model_bytes() == sum(
            estimate_bytes(k) + estimate_bytes(v)
            for table in store.materialize().values() for k, v in table.items()
        )
        assert store.private_bytes() == sum(sum(r.values()) for r in journal)


def _estimate_bytes_reference(value, depth=0):
    """The plain ``isinstance`` chain ``estimate_bytes`` must agree with."""
    if depth > 6:
        return 8
    if isinstance(value, dict):
        return 32 + sum(
            _estimate_bytes_reference(k, depth + 1)
            + _estimate_bytes_reference(v, depth + 1)
            for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return 24 + sum(_estimate_bytes_reference(v, depth + 1) for v in value)
    if isinstance(value, str):
        return 48 + len(value)
    if isinstance(value, (int, float, bool)) or value is None:
        return 16
    return 64


class _Colour(enum.IntEnum):
    RED = 1
    GREEN = 2


class _Name(str):
    pass


class _Pair(NamedTuple):
    left: object
    right: object


_leaves = st.one_of(
    st.text(max_size=6),
    st.integers(),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.sampled_from(list(_Colour)),
    st.text(max_size=4).map(_Name),
)
_sized = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.builds(_Pair, inner, inner),
        st.dictionaries(_leaves, inner, max_size=4),
        st.sets(_leaves, max_size=4),
        st.frozensets(_leaves, max_size=4),
    ),
    max_leaves=24,
)


def _nested(value, layers, wrap):
    for _ in range(layers):
        value = wrap(value)
    return value


@settings(max_examples=300, deadline=None)
@given(
    value=_sized,
    layers=st.integers(0, 10),
    wrap=st.sampled_from([lambda v: (v,), lambda v: [v], lambda v: {"k": v},
                          lambda v: _Pair(v, None)]),
)
def test_estimate_bytes_agrees_with_the_isinstance_chain(value, layers, wrap):
    """Dispatching on the exact type first changes no size: subclasses
    (``bool``, ``IntEnum``, ``str`` subclasses, named tuples) and values
    nested past the depth cut-off size as the plain chain sizes them."""
    deep = _nested(value, layers, wrap)
    assert estimate_bytes(deep) == _estimate_bytes_reference(deep)


def test_figure_7c_memory_samples_are_pinned():
    """One ``defined`` flap-storm@20 cell (workload seed 1, network seed
    1).  Virtual memory counts live checkpoints and did not move when the
    routing table left the store; physical memory counts journalled undo
    bytes and fell by what the two tables no longer journal (with them in
    the store: sum 180_359_992_918, max 104_891_260).  Lazy cancellation
    moved both sums once more, by design: a delivery that is not rolled
    back a second time keeps its first delivery time, so it leaves the
    window -- and releases its checkpoint -- a beacon earlier (virtual
    sum was 1_752_589_926_400, physical sum 180_358_690_990 when every
    rollback retracted all its outputs; 614 rollbacks then, 201 after).
    The playout hold moved them again: fewer rollbacks re-deliver fewer
    entries with a fresh delivery time, so fewer checkpoints are live at
    each beacon (virtual sum was 1_752_380_211_200, physical 180_358_690_488 with
    201 rollbacks; 127 now)."""
    result = run_scenario_cell("flap-storm@20", "defined")
    stats = [result.network.run_stats.node(n) for n in result.network.node_ids()]
    virtual = [v for s in stats for v in s.virtual_memory_samples]
    physical = [p for s in stats for p in s.physical_memory_samples]
    assert len(virtual) == len(physical) == 1720
    assert sum(virtual) == 1_714_107_187_200
    assert (sum(physical), max(physical)) == (180_358_601_846, 104_889_284)
