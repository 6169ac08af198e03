"""Property and unit tests for rollback planning (the pure logic)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.history import DeliveredHistory, HistoryEntry
from repro.core.rollback import collect_unsends, plan_replay
from repro.simnet.messages import Annotation, Message


def msg_entry(major, uid=0, group=0, outputs=()):
    e = HistoryEntry(
        kind="msg",
        key=(group, major, "n", 0, 0, 0),
        group=group,
        msg=Message(
            src="s", dst="d", protocol="p", payload=major, uid=uid,
            annotation=Annotation(origin="s", seq=0, delay_us=major, group=group),
        ),
    )
    e.outputs = list(outputs)
    return e


def timer_entry(major, group=0):
    return HistoryEntry(
        kind="timer", key=(group, major, "n", 0, 0, 0), group=group, timer_key="t"
    )


def delivered(keys):
    """A delivered window holding ``keys``, in delivery order."""
    history = DeliveredHistory()
    for key in keys:
        history.append(HistoryEntry(kind="timer", key=key, timer_key="t"))
    return history


class TestRollbackIndex:
    """Where an arrival forces a rollback to: the window's insertion
    index (``len`` means in order, nothing to roll back)."""

    @given(
        st.lists(st.integers(0, 10_000), min_size=0, max_size=80, unique=True),
        st.integers(0, 10_000),
    )
    def test_property_matches_bisect_semantics(self, majors, probe):
        keys = [(0, m, "n", 0, 0, 0) for m in sorted(majors)]
        new_key = (0, probe, "n", 1, 0, 0)
        idx = delivered(keys).insertion_index(new_key)
        assert all(k < new_key for k in keys[:idx])
        assert all(k > new_key for k in keys[idx:])

    def test_in_order_arrival_returns_length(self):
        keys = [(0, m, "n", 0, 0, 0) for m in (1, 2, 3)]
        assert delivered(keys).insertion_index((0, 9, "n", 0, 0, 0)) == 3

    def test_paper_figure_2_example(self):
        """mb md mc delivered; ma arrives and sorts right after mb:
        roll back to md (index 1)."""
        mb, md, mc, ma = (
            (0, 1, "w", 0, 0, 0),
            (0, 3, "w", 2, 0, 0),
            (0, 4, "w", 3, 0, 0),
            (0, 2, "w", 1, 0, 0),
        )
        assert delivered([mb, md, mc]).insertion_index(ma) == 1


def output(uid, dst):
    return Message(src="n", dst=dst, protocol="p", payload=uid, uid=uid)


class TestCollectUnsends:
    def test_groups_outputs_by_destination(self):
        entries = [
            msg_entry(1, uid=1, outputs=[output(12, "v"), output(11, "u")]),
            msg_entry(2, uid=2, outputs=[output(10, "v")]),
        ]
        plan = collect_unsends(m for e in entries for m in e.outputs)
        assert plan == {"v": [10, 12], "u": [11]}  # canonical: sorted per neighbour

    def test_empty_outputs_empty_plan(self):
        assert collect_unsends(msg_entry(1).outputs) == {}


class TestPlanReplay:
    def test_sorted_merge_of_rolled_and_new(self):
        rolled = [msg_entry(3, uid=3), msg_entry(5, uid=5)]
        new = [msg_entry(4, uid=4)]
        plan = plan_replay(rolled, new, removed_uids=set())
        assert [e.key[1] for e in plan] == [3, 4, 5]

    def test_timers_are_not_replay_inputs(self):
        rolled = [timer_entry(-1), msg_entry(3, uid=3)]
        plan = plan_replay(rolled, [], removed_uids=set())
        assert [e.kind for e in plan] == ["msg"]

    def test_removed_uids_are_dropped(self):
        rolled = [msg_entry(3, uid=3), msg_entry(5, uid=5)]
        plan = plan_replay(rolled, [], removed_uids={3})
        assert [e.msg.uid for e in plan] == [5]

    def test_external_events_always_replayed(self):
        from repro.simnet.events import ExternalEvent

        ext = HistoryEntry(
            kind="ext",
            key=(0, 0, "n", 0, 0, 0),
            group=0,
            event=ExternalEvent(time_us=0, kind="link_down", target=("a", "b")),
        )
        plan = plan_replay([ext, msg_entry(3, uid=3)], [], removed_uids={3})
        assert [e.kind for e in plan] == ["ext"]

    def test_entries_are_reset(self):
        rolled = [msg_entry(3, uid=3, outputs=[output(1, "v")])]
        plan = plan_replay(rolled, [], removed_uids=set())
        assert plan[0].outputs == []

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            plan_replay([msg_entry(3, uid=3)], [msg_entry(3, uid=4)], set())

    @given(
        st.lists(st.integers(0, 1000), min_size=1, max_size=40, unique=True),
        st.data(),
    )
    def test_property_replay_is_sorted_and_complete(self, majors, data):
        entries = [msg_entry(m, uid=m) for m in sorted(majors)]
        removed = set(
            data.draw(st.lists(st.sampled_from(majors), max_size=5, unique=True))
        )
        plan = plan_replay(entries, [], removed_uids=removed)
        keys = [e.key for e in plan]
        assert keys == sorted(keys)
        assert {e.msg.uid for e in plan} == set(majors) - removed


class TestIndexOfUid:
    """An unsend finds its target in the window by uid."""

    def test_finds_entries_by_uid(self):
        history = DeliveredHistory()
        for entry in (msg_entry(1, uid=10), timer_entry(2), msg_entry(3, uid=30)):
            history.append(entry)
        assert history.index_of_uid(30) == 2
        assert history.index_of_uid(99) is None
