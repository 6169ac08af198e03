"""Memory accounting of the snapshot store: what ``private_bytes()``
reports, whenever it is read, and what the Figure-7c samples built on it
are.  The existing COW-vs-deepcopy property in ``test_statestore.py``
reads the total after every operation; the property here also covers
totals that are read rarely or never, and store resets."""

import hashlib

from hypothesis import given, settings, strategies as st

from _fixtures import run_scenario_cell

from repro.core.statestore import _MISSING, StateStore, estimate_bytes


def eager_private_bytes(store: StateStore) -> int:
    """Every retained undo entry sized from scratch: its key, plus the
    value it displaced unless the key was absent."""
    return sum(
        estimate_bytes(key) + (0 if old is _MISSING else estimate_bytes(old))
        for record in store._snapshots
        for undo in record.undos.values()
        for key, old in undo.items()
    )


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from("ab"), st.integers(0, 5),
                  st.one_of(st.integers(0, 50), st.text(max_size=4),
                            st.tuples(st.integers(0, 3), st.text(max_size=2)))),
        st.tuples(st.just("del"), st.sampled_from("ab"), st.integers(0, 5)),
        st.tuples(st.just("snap")),
        st.tuples(st.just("restore"), st.integers(0, 7)),
        st.tuples(st.just("release"), st.integers(0, 7)),
        st.tuples(st.just("reset")),
        st.tuples(st.just("read")),
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(ops=_ops)
def test_private_bytes_equals_an_eager_resize_of_every_retained_entry(ops):
    store = StateStore()
    namespaces = {name: store.namespace(name) for name in "ab"}
    tokens = []
    for op in ops:
        kind = op[0]
        if kind == "set":
            namespaces[op[1]][op[2]] = op[3]
        elif kind == "del":
            namespaces[op[1]].pop(op[2], None)
        elif kind == "snap":
            tokens.append(store.snapshot())
        elif kind == "reset":
            store.reset()
            tokens = []
        elif kind == "read":
            assert store.private_bytes() == eager_private_bytes(store)
        elif tokens and kind == "restore":
            index = op[1] % len(tokens)
            store.restore(tokens[index])
            del tokens[index + 1:]
        elif tokens:
            index = op[1] % len(tokens)
            store.release_before(tokens[index])
            del tokens[:index]
    assert store.private_bytes() == eager_private_bytes(store)


def test_a_release_past_the_watermark_still_sizes_what_is_retained():
    store = StateStore()
    ns = store.namespace("t")
    first = store.snapshot()
    store.snapshot()
    store.snapshot()
    store.private_bytes()  # the watermark: the third record
    store.restore(first)  # ... back on the first
    tokens = []
    for key in range(4):
        tokens.append(store.snapshot())
        ns[key] = ("lsa", key)
    assert store.release_before(tokens[1]) == 2
    assert store.private_bytes() == eager_private_bytes(store) > 0
    assert store.retained_snapshots() == 3


def test_figure7c_memory_samples_are_pinned():
    """DEFINED-RB's per-beacon physical-memory samples (Figure 7c) on the
    ``rb-flap40`` benchmark cell (``flap-storm@40``, timing seed 1000):
    each one reads ``private_bytes()`` of its node's store."""
    prod = run_scenario_cell("flap-storm@40", "defined", network_seed=1_000)
    digest = hashlib.sha256()
    samples = 0
    for node_id, stats in sorted(prod.network.run_stats.per_node.items()):
        digest.update(f"{node_id}:{','.join(map(str, stats.physical_memory_samples))}\n".encode())
        samples += len(stats.physical_memory_samples)
    assert samples > 1_000
    assert digest.hexdigest() == (
        "a99de706d42b6b1772e03bdbba23f682608f1b712c267ad9de80ac0c1ee0a0f4"
    )


def test_a_total_nobody_reads_sizes_nothing(monkeypatch):
    """A lockstep replay journals every write it makes and never asks how
    much the journals hold: it pays for no sizing at all."""
    import repro.core.statestore as statestore
    from repro.harness import run_ls_replay
    from repro.sweep import get_scenario

    calls = []
    sized = statestore.estimate_bytes

    def counting(value, depth=0):
        calls.append(depth)
        return sized(value, depth)

    prod = run_scenario_cell("flap-storm", "defined")
    monkeypatch.setattr(statestore, "estimate_bytes", counting)
    graph = get_scenario("flap-storm").topology(1)
    replay = run_ls_replay(graph, prod.recording)
    assert replay.fingerprint == prod.fingerprint
    assert calls == []

    store = StateStore()
    ns = store.namespace("t")
    for version in range(50):
        store.snapshot()
        ns[version % 7] = ("lsa", version)
        ns.pop((version + 3) % 7, None)
    store.restore(store.snapshot())
    assert calls == []
    total = store.private_bytes()  # sizing starts here
    assert calls
    assert total == eager_private_bytes(store)
