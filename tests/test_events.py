"""Unit tests for external events and schedules."""

import pytest

from repro.simnet.events import (
    ANNOUNCE,
    LINK_DOWN,
    NODE_DOWN,
    EventSchedule,
    ExternalEvent,
)


class TestExternalEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ExternalEvent(time_us=0, kind="meteor_strike", target="a")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ExternalEvent(time_us=-1, kind=LINK_DOWN, target=("a", "b"))

    def test_link_event_observed_at_both_endpoints(self):
        ev = ExternalEvent(time_us=0, kind=LINK_DOWN, target=("a", "b"))
        assert ev.endpoints() == ("a", "b")

    def test_node_event_observed_at_node(self):
        ev = ExternalEvent(time_us=0, kind=NODE_DOWN, target="r1")
        assert ev.endpoints() == ("r1",)

    def test_announce_observed_at_receiver(self):
        ev = ExternalEvent(time_us=0, kind=ANNOUNCE, target="r1", data={"x": 1})
        assert ev.endpoints() == ("r1",)


class TestEventSchedule:
    def test_sorted_by_time(self):
        schedule = EventSchedule()
        schedule.add(ExternalEvent(time_us=20, kind=NODE_DOWN, target="b"))
        schedule.add(ExternalEvent(time_us=10, kind=NODE_DOWN, target="a"))
        assert [e.time_us for e in schedule] == [10, 20]

    def test_stable_tiebreak_for_equal_times(self):
        schedule = EventSchedule()
        schedule.add(ExternalEvent(time_us=10, kind=NODE_DOWN, target="b"))
        schedule.add(ExternalEvent(time_us=10, kind=LINK_DOWN, target=("a", "b")))
        kinds = [e.kind for e in schedule]
        assert kinds == sorted(kinds)

    def test_len_and_extend(self):
        schedule = EventSchedule()
        schedule.extend(
            ExternalEvent(time_us=i, kind=NODE_DOWN, target="a") for i in range(3)
        )
        assert len(schedule) == 3

    def test_horizon(self):
        schedule = EventSchedule()
        assert schedule.horizon_us() == 0
        schedule.add(ExternalEvent(time_us=99, kind=NODE_DOWN, target="a"))
        assert schedule.horizon_us() == 99


class TestSortedCache:
    def test_repeated_sorted_reuses_the_ordering(self):
        schedule = EventSchedule()
        schedule.add(ExternalEvent(time_us=20, kind=NODE_DOWN, target="b"))
        schedule.add(ExternalEvent(time_us=10, kind=NODE_DOWN, target="a"))
        first = schedule.sorted()
        assert schedule._sorted_cache is not None
        assert schedule.sorted() == first

    def test_mutators_invalidate(self):
        schedule = EventSchedule()
        schedule.add(ExternalEvent(time_us=20, kind=NODE_DOWN, target="b"))
        assert [e.time_us for e in schedule.sorted()] == [20]
        schedule.add(ExternalEvent(time_us=10, kind=NODE_DOWN, target="a"))
        assert [e.time_us for e in schedule.sorted()] == [10, 20]
        schedule.extend(
            [ExternalEvent(time_us=5, kind=NODE_DOWN, target="c")]
        )
        assert [e.time_us for e in schedule.sorted()] == [5, 10, 20]

    def test_direct_events_append_is_caught_by_length_guard(self):
        schedule = EventSchedule()
        schedule.add(ExternalEvent(time_us=20, kind=NODE_DOWN, target="b"))
        schedule.sorted()
        schedule.events.append(ExternalEvent(time_us=10, kind=NODE_DOWN, target="a"))
        assert [e.time_us for e in schedule.sorted()] == [10, 20]

    def test_sorted_returns_an_unaliased_list(self):
        schedule = EventSchedule()
        schedule.add(ExternalEvent(time_us=20, kind=NODE_DOWN, target="b"))
        schedule.add(ExternalEvent(time_us=10, kind=NODE_DOWN, target="a"))
        view = schedule.sorted()
        view.reverse()  # a caller mangling its copy must not poison the cache
        assert [e.time_us for e in schedule.sorted()] == [10, 20]
