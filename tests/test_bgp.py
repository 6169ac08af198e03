"""Unit tests for the BGP decision process and the XORP 0.4 bug."""

import itertools

import pytest

from _fixtures import FakeStack

from repro.routing.bgp import (
    BgpPath,
    BuggyXorpBgp,
    CorrectBgp,
    PROTO_UPDATE,
    full_selection,
    pairwise_prefer,
)
from repro.scenarios import BGP_PATHS
from repro.simnet.events import ExternalEvent
from repro.simnet.messages import Message

P1, P2, P3 = BGP_PATHS["p1"], BGP_PATHS["p2"], BGP_PATHS["p3"]


class TestFullSelection:
    def test_paper_scenario_selects_p3(self):
        assert full_selection([P1, P2, P3]).path_id == "p3"

    def test_order_independent(self):
        for perm in itertools.permutations([P1, P2, P3]):
            assert full_selection(list(perm)).path_id == "p3"

    def test_empty_returns_none(self):
        assert full_selection([]) is None

    def test_shortest_as_path_dominates(self):
        short = BgpPath("pfx", "s", as_path_len=1, med=99, neighbor_as="X", igp_dist=99)
        assert full_selection([P1, short]).path_id == "s"

    def test_med_filters_within_neighbor_as_group(self):
        # p1 and p2 share AS-A: p2's lower MED eliminates p1 before IGP
        assert full_selection([P1, P2]).path_id == "p2"

    def test_igp_breaks_cross_group_ties(self):
        # p1 (AS-A, igp 10) vs p3 (AS-B, igp 20): different groups, IGP decides
        assert full_selection([P1, P3]).path_id == "p1"

    def test_deterministic_tiebreak_on_full_tie(self):
        a = BgpPath("pfx", "a", 1, 5, "X", 10)
        b = BgpPath("pfx", "b", 1, 5, "Y", 10)
        assert full_selection([b, a]).path_id == "a"


class TestPairwisePreference:
    def test_non_transitivity_of_paper_paths(self):
        """The heart of Figure 4: p2 > p1, p3 > p2, and yet p1 > p3."""
        assert pairwise_prefer(P2, P1)
        assert pairwise_prefer(P3, P2)
        assert pairwise_prefer(P1, P3)

    def test_as_path_length_first(self):
        short = BgpPath("pfx", "s", 1, 99, "AS-A", 99)
        assert pairwise_prefer(short, P1)

    def test_med_only_compared_within_same_neighbor_as(self):
        low_med_other_as = BgpPath("pfx", "x", 3, 1, "AS-C", 50)
        # med 1 < p1's 10, but different AS: falls through to IGP (50 > 10)
        assert not pairwise_prefer(low_med_other_as, P1)


def wire(path):
    return tuple(sorted(path.to_wire().items()))


def announce(path):
    return ExternalEvent(time_us=0, kind="announce", target="R3", data=path.to_wire())


def update(path, src="R1"):
    return Message(src=src, dst="R3", protocol=PROTO_UPDATE, payload=wire(path))


class TestBuggyDaemonOrderDependence:
    """Feed the three paths in both orders directly: the defect is visible
    without any network."""

    def run_order(self, order, cls=BuggyXorpBgp):
        stack = FakeStack("R3", ["R1", "R2"])
        daemon = cls("R3", stack, peers=["R1", "R2"])
        daemon.on_start()
        for path in order:
            daemon.on_message(update(path))
        return daemon.best_path_id("10.0.0.0/8")

    def test_lucky_order_selects_p3(self):
        assert self.run_order([P1, P2, P3]) == "p3"

    def test_unlucky_order_selects_p2(self):
        assert self.run_order([P1, P3, P2]) == "p2"

    def test_correct_daemon_is_order_independent(self):
        for perm in itertools.permutations([P1, P2, P3]):
            assert self.run_order(list(perm), cls=CorrectBgp) == "p3"

    def test_refresh_of_incumbent_keeps_it(self):
        assert self.run_order([P1, P3, P1]) == "p1"


class TestDaemonPlumbing:
    def test_external_announce_relayed_to_all_peers(self):
        stack = FakeStack("R1", ["R2", "R3"])
        daemon = CorrectBgp("R1", stack, peers=["R2", "R3"])
        daemon.on_start()
        daemon.on_external(announce(P1))
        relays = [(d, par) for d, p, _pl, par in stack.sent if p == PROTO_UPDATE]
        assert [d for d, _ in relays] == ["R2", "R3"]
        # relays are originations (caused by the external event)
        assert all(par is None for _, par in relays)

    def test_ibgp_split_horizon_no_reforwarding(self):
        stack = FakeStack("R3", ["R1", "R2"])
        daemon = CorrectBgp("R3", stack, peers=["R1", "R2"])
        daemon.on_start()
        daemon.on_message(update(P1))
        assert stack.sent == []

    def test_non_announce_external_ignored(self):
        stack = FakeStack("R1", ["R2"])
        daemon = CorrectBgp("R1", stack, peers=["R2"])
        daemon.on_start()
        daemon.on_external(
            ExternalEvent(time_us=0, kind="link_down", target=("R1", "R2"))
        )
        assert stack.sent == []

    def test_unknown_protocol_rejected(self):
        stack = FakeStack("R1", [])
        daemon = CorrectBgp("R1", stack, peers=[])
        daemon.on_start()
        with pytest.raises(ValueError):
            daemon.on_message(
                Message(src="x", dst="R1", protocol="mystery", payload=())
            )

    def test_snapshot_restore_roundtrip(self):
        """The store is the checkpoint path: a rewind restores the RIB-in
        and the best path it implies."""
        stack = FakeStack("R3", [])
        daemon = BuggyXorpBgp("R3", stack, peers=[])
        daemon.on_start()
        daemon.on_message(update(P1))
        before = daemon.state()
        token = daemon.store.snapshot()
        daemon.on_message(update(P3))
        daemon.store.restore(token)
        assert daemon.best_path_id("10.0.0.0/8") == "p1"
        assert ("10.0.0.0/8", "p3") not in daemon.adj_rib_in
        assert daemon.state() == before

    def test_state_renders_rows_as_dicts(self):
        stack = FakeStack("R3", [])
        daemon = BuggyXorpBgp("R3", stack, peers=[])
        daemon.on_start()
        daemon.on_message(update(P1))
        daemon.on_message(update(P3))
        assert daemon.state() == {
            "adj_rib_in": {
                ("10.0.0.0/8", "p1"): P1.to_wire(),
                ("10.0.0.0/8", "p3"): P3.to_wire(),
            },
            "best": {"10.0.0.0/8": P1.to_wire()},
        }


class TestWireFormat:
    def test_path_roundtrip(self):
        assert BgpPath.from_wire(P1.to_wire()) == P1

    def test_wire_is_jsonable(self):
        import json

        assert json.loads(json.dumps(P1.to_wire())) == P1.to_wire()
