"""Unit and property tests for the delivered-history window."""

import pytest
from hypothesis import given, strategies as st

from repro.core.history import DeliveredHistory, HistoryEntry
from repro.simnet.messages import Annotation, Message


def entry(key, kind="msg", delivered_at=0):
    e = HistoryEntry(kind=kind, key=key, group=key[0])
    if kind == "msg":
        e.msg = Message(
            src="s",
            dst="d",
            protocol="p",
            payload=key,
            uid=hash(key) % 10_000,
            annotation=Annotation(
                origin="s", seq=key[3] if len(key) > 3 else 0, delay_us=key[1], group=key[0]
            ),
        )
    e.delivered_at_us = delivered_at
    return e


def key(group, major, seq=0):
    return (group, major, "n", seq, 0, 0)


class TestInsertion:
    def test_append_requires_strictly_increasing_keys(self):
        history = DeliveredHistory()
        history.append(entry(key(0, 5)))
        with pytest.raises(ValueError):
            history.append(entry(key(0, 5)))
        with pytest.raises(ValueError):
            history.append(entry(key(0, 4)))

    def test_insertion_index_at_tail_means_in_order(self):
        history = DeliveredHistory()
        history.append(entry(key(0, 1)))
        history.append(entry(key(0, 3)))
        assert history.insertion_index(key(0, 4)) == 2

    def test_insertion_index_in_middle_means_rollback(self):
        history = DeliveredHistory()
        history.append(entry(key(0, 1)))
        history.append(entry(key(0, 3)))
        assert history.insertion_index(key(0, 2)) == 1
        assert history.insertion_index(key(0, 0)) == 0

    def test_duplicate_key_raises(self):
        history = DeliveredHistory()
        history.append(entry(key(0, 1)))
        with pytest.raises(ValueError):
            history.insertion_index(key(0, 1))

    def test_locate(self):
        history = DeliveredHistory()
        history.append(entry(key(0, 1)))
        history.append(entry(key(0, 3)))
        # one bisection answers both questions the shim's admission asks:
        # where the key slots in, and whether it is already delivered
        # (the anti-message race: a re-send that outruns the unsend for
        # its original copy carries the same key and must replace it)
        assert history.locate(key(0, 3)) == (1, True)
        assert history.locate(key(0, 2)) == (1, False)
        assert history.locate(key(0, 4)) == (2, False)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=60, unique=True))
    def test_property_insertion_index_equals_sorted_position(self, majors):
        majors = sorted(majors)
        probe = majors.pop(len(majors) // 2)
        history = DeliveredHistory()
        for m in majors:
            history.append(entry(key(0, m)))
        assert history.insertion_index(key(0, probe)) == sorted(
            majors + [probe]
        ).index(probe)


class TestTruncate:
    def test_truncate_returns_and_removes_suffix(self):
        history = DeliveredHistory()
        entries = [entry(key(0, m)) for m in (1, 2, 3, 4)]
        for e in entries:
            history.append(e)
        rolled = history.truncate_from(2)
        assert rolled == entries[2:]
        assert len(history) == 2
        # appending in the gap now works
        history.append(entry(key(0, 3)))


class TestPrune:
    def test_prunes_old_entries_keeps_minimum(self):
        history = DeliveredHistory()
        for i, m in enumerate((1, 2, 3)):
            history.append(entry(key(0, m), delivered_at=i * 100))
        pruned = history.prune_before_time(cutoff_us=250, keep_min=1)
        assert pruned == 2
        assert len(history) == 1
        assert history.total_pruned == 2

    def test_keep_min_retains_anchor(self):
        history = DeliveredHistory()
        history.append(entry(key(0, 1), delivered_at=0))
        assert history.prune_before_time(cutoff_us=10**9, keep_min=1) == 0
        assert len(history) == 1

    def test_is_late_after_prune(self):
        history = DeliveredHistory()
        for m in (1, 5):
            history.append(entry(key(0, m), delivered_at=0))
        history.append(entry(key(0, 9), delivered_at=10**6))
        history.prune_before_time(cutoff_us=500_000)
        assert history.is_late(key(0, 2))
        assert not history.is_late(key(0, 7))

    def test_no_late_before_any_prune(self):
        history = DeliveredHistory()
        history.append(entry(key(0, 5)))
        assert not history.is_late(key(0, 1))


class TestTags:
    def test_msg_tag_contains_identity_not_uid(self):
        e = entry(key(2, 7, seq=3))
        tag = e.tag()
        assert "m|p|s|" in tag
        assert str(e.msg.uid) not in tag.split("|")[0:4]

    def test_timer_tag(self):
        e = HistoryEntry(kind="timer", key=key(1, -1), group=1, timer_key="hello")
        assert e.tag() == "t|hello|1"

    def test_ext_tag(self):
        from repro.simnet.events import ExternalEvent

        e = HistoryEntry(
            kind="ext",
            key=key(1, 0),
            group=1,
            seq=4,
            event=ExternalEvent(time_us=0, kind="link_down", target=("a", "b")),
        )
        assert e.tag() == "e|link_down|('a', 'b')|1|4"

    def test_reset_for_replay_clears_delivery_state(self):
        e = entry(key(0, 1))
        e.outputs.append(Message(src="s", dst="d", protocol="p", payload=0, uid=7))
        e.log_index = 3
        e.reset_for_replay()
        assert e.outputs == [] and e.checkpoint is None and e.log_index == -1
