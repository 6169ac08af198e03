"""Unit and property tests for the virtual-time timer table."""

from hypothesis import given, strategies as st

from repro.core.statestore import StateStore
from repro.core.virtual_time import TimerTable


class TestBasics:
    def test_set_returns_expiry_with_min_one_unit(self):
        table = TimerTable(StateStore())
        assert table.set("t", current_vt=5, delay_units=0) == 6
        assert table.set("u", current_vt=5, delay_units=3) == 8

    def test_cancel(self):
        table = TimerTable(StateStore())
        table.set("t", 0, 1)
        assert table.cancel("t")
        assert not table.cancel("t")
        assert not table.is_armed("t")

    def test_next_due_respects_vt(self):
        table = TimerTable(StateStore())
        table.set("t", 0, 2)  # expiry 2
        assert table.next_due(1) is None
        due = table.next_due(2)
        assert due is not None and due[2] == "t"

    def test_next_due_orders_by_expiry_then_creation(self):
        table = TimerTable(StateStore())
        table.set("late", 0, 2)
        table.set("early", 0, 1)
        table.set("also_early", 0, 1)
        _expiry, seq, key = table.next_due(5)
        assert key == "early"
        table.pop(key, seq)
        assert table.next_due(5)[2] == "also_early"

    def test_pop_retires_only_the_firing_it_names(self):
        table = TimerTable(StateStore())
        table.set("t", 0, 1)
        _expiry, old_seq, _key = table.next_due(1)
        table.set("t", 0, 5)  # re-armed after the first firing was taken
        table.pop("t", old_seq)
        assert table.expiry_of("t") == 5
        _expiry, seq, _key = table.next_due(5)
        table.pop("t", seq)
        assert not table.is_armed("t")
        assert table.next_due(5) is None

    def test_rearm_replaces_expiry_and_refreshes_order(self):
        table = TimerTable(StateStore())
        table.set("a", 0, 1)
        table.set("b", 0, 1)
        table.set("a", 0, 1)  # re-arm: now created after b
        assert table.next_due(5)[2] == "b"

    def test_due_count_and_len(self):
        table = TimerTable(StateStore())
        table.set("a", 0, 1)
        table.set("b", 0, 5)
        assert len(table) == 2
        assert table.due_count(1) == 1
        assert table.due_count(10) == 2

    def test_expiry_of(self):
        table = TimerTable(StateStore())
        table.set("a", 3, 4)
        assert table.expiry_of("a") == 7
        assert table.expiry_of("zz") is None


def stored_table():
    """A table bound into a store, as every booted stack's is: the store
    version is the table's checkpoint."""
    store = StateStore()
    return store, TimerTable(store)


class TestSnapshotRestore:
    def test_roundtrip(self):
        store, table = stored_table()
        table.set("a", 0, 1)
        table.set("b", 0, 2)
        token = store.snapshot()
        table.cancel("a")
        table.set("c", 0, 3)
        store.restore(token)
        assert table.is_armed("a")
        assert not table.is_armed("c")

    def test_snapshot_is_immutable_under_later_changes(self):
        table = TimerTable(StateStore())
        table.set("a", 0, 1)
        snap = table.snapshot()
        table.set("b", 0, 1)
        assert len(dict(snap[0])) == 1

    def test_restored_sequence_counter_reproduces_order(self):
        """After restore, newly armed timers must get the same creation
        sequence numbers a replay of the original run would produce."""
        store, table = stored_table()
        table.set("a", 0, 1)
        token = store.snapshot()
        table.set("x", 0, 1)
        first = table.next_due(5)
        store.restore(token)
        table.set("x", 0, 1)
        assert table.next_due(5) == first

    @given(
        st.lists(
            st.tuples(st.sampled_from("abcde"), st.integers(0, 5)),
            min_size=1,
            max_size=20,
        )
    )
    def test_property_restore_undoes_arbitrary_mutations(self, ops):
        store, table = stored_table()
        table.set("base", 0, 3)
        token = store.snapshot()
        reference = table.snapshot()
        for key, delay in ops:
            if delay == 0:
                table.cancel(key)
            else:
                table.set(key, 1, delay)
        store.restore(token)
        assert table.snapshot() == reference
        # the due-order view was rebuilt against the restored namespace
        assert table.next_due(10) == (3, 0, "base")
