"""Unit tests for the routing information base."""

from repro.core.statestore import StateStore
from repro.routing.rib import Rib, RouteEntry


def entry(dest="d", next_hop="n", metric=1, source="rip", expires=None):
    return RouteEntry(dest=dest, next_hop=next_hop, metric=metric,
                      source=source, expires_vt=expires)


class TestRib:
    def test_install_and_lookup(self):
        rib = Rib(StateStore())
        rib.install(entry())
        assert rib.lookup("d").metric == 1
        assert "d" in rib
        assert rib.next_hop("d") == "n"

    def test_install_replaces(self):
        rib = Rib(StateStore())
        rib.install(entry(metric=1))
        rib.install(entry(metric=9))
        assert rib.lookup("d").metric == 9
        assert len(rib) == 1

    def test_withdraw(self):
        rib = Rib(StateStore())
        rib.install(entry())
        removed = rib.withdraw("d")
        assert removed.dest == "d"
        assert rib.withdraw("d") is None
        assert "d" not in rib

    def test_lookup_missing(self):
        assert Rib(StateStore()).lookup("zz") is None
        assert Rib(StateStore()).next_hop("zz") is None

    def test_iteration_is_sorted_by_destination(self):
        rib = Rib(StateStore())
        for dest in ("z", "a", "m"):
            rib.install(entry(dest=dest))
        assert [e.dest for e in rib] == ["a", "m", "z"]
        assert rib.destinations() == ["a", "m", "z"]

    def test_store_restore_roundtrip(self):
        """A table bound into a store rewinds with it."""
        store = StateStore()
        rib = Rib(store)
        rib.install(entry(dest="a", expires=9))
        rib.install(entry(dest="b", next_hop=None, source="connected"))
        dump = rib.as_dict()
        token = store.snapshot()
        rib.withdraw("a")
        rib.update("b", metric=5)
        rib.install(entry(dest="c"))
        store.restore(token)
        assert rib.as_dict() == dump

    def test_as_dict_is_deterministic(self):
        rib1, rib2 = Rib(StateStore()), Rib(StateStore())
        for dest in ("b", "a"):
            rib1.install(entry(dest=dest))
        for dest in ("a", "b"):
            rib2.install(entry(dest=dest))
        assert repr(rib1.as_dict()) == repr(rib2.as_dict())

    def test_route_entry_repr_mentions_expiry(self):
        assert "exp@9" in repr(entry(expires=9))
        assert "exp@" not in repr(entry())
