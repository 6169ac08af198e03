"""The daemon contract (``repro.routing.base.Daemon``)."""

from _fixtures import FakeStack

from repro.routing.base import Daemon


class Minimal(Daemon):
    """Only the three callbacks a daemon must write."""

    def on_start(self):
        self.store.namespace("seen")["boot"] = (1,)

    def on_message(self, msg):  # pragma: no cover - never delivered to
        pass

    def on_timer(self, key):  # pragma: no cover - no timers armed
        pass


def test_three_callbacks_make_a_daemon():
    """``state()`` defaults to an independent copy of the whole store."""
    daemon = Minimal("a", FakeStack("a"))
    daemon.on_start()
    assert daemon.state() == daemon.store.materialize() == {"seen": {"boot": (1,)}}
    daemon.state()["seen"].clear()
    assert daemon.state() == {"seen": {"boot": (1,)}}
