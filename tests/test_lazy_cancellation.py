"""Lazy cancellation in the DEFINED-RB shim, against the protocol it replaced.

A rollback keeps the outputs of the rolled-back suffix, lets the
re-execution adopt the ones it reproduces byte for byte, and unsends only
the rest.  The protocol it replaced -- unsend *everything* first, re-send
under fresh uids -- survives here as a test-local oracle (the
``aggressive`` fixture): it is never a second live path, only an
auxiliary run whose final observable state the shipped protocol must
equal.
"""

from collections import Counter

import pytest

from _fixtures import graph_of, run_scenario_cell
from _oracles import deepcopy_stores

from repro.core.recorder import Recorder
from repro.core.rollback import ReplayStack, output_id, send_identity
from repro.core.shim import DefinedShim
from repro.routing.base import Daemon
from repro.simnet.messages import Annotation, Message, Unsend
from repro.sweep import SweepRunner
from repro.topology import to_network


@pytest.fixture
def aggressive(monkeypatch):
    """Retract-everything cancellation: every rewind unsends all the
    suffix emitted *before* the replay and leaves it nothing to adopt."""
    lazy_rewind = DefinedShim._rewind

    def rewind(self, index):
        rolled = lazy_rewind(self, index)
        self._unsend_outputs(self._kept.values())
        self._kept = {}
        return rolled

    monkeypatch.setattr(DefinedShim, "_rewind", rewind)


@pytest.fixture
def emissions(monkeypatch):
    """Tracker: ``(node, tag of the delivery being processed) -> send
    identities its latest execution emitted``, deliverable or not."""
    latest = {}
    outgoing = ReplayStack._outgoing

    def tracking(self, *args):
        msg = outgoing(self, *args)
        entry = self._current_entry
        if entry is not None:
            slot = latest.get((self.node.node_id, entry.tag()))
            if slot is None or slot[0] is not entry.checkpoint:  # a new execution
                slot = latest[(self.node.node_id, entry.tag())] = (entry.checkpoint, set())
            slot[1].add(send_identity(msg))
        return msg

    monkeypatch.setattr(ReplayStack, "_outgoing", tracking)
    return latest


def observable(prod, emissions):
    """What must not depend on the cancellation protocol, per node."""
    final_sends = {
        identity
        for (node_id, tag), (_checkpoint, identities) in emissions.items()
        if tag in set(prod.logs[node_id])
        for identity in identities
    }
    per_node = {}
    for node_id, node in sorted(prod.network.nodes.items()):
        per_node[node_id] = (
            prod.logs[node_id],
            node.daemon.state(),
            Counter(
                output_id(msg) for entry in node.stack.history for msg in entry.outputs
            ),
        )
    return prod.fingerprint, per_node, prod.recording.drops & final_sends


DEFAULT_GRID_DEFINED = sorted(
    {cell.scenario for cell in SweepRunner(seeds=(1,)).grid() if cell.mode == "defined"}
)


class TestAggressiveOracle:
    """Same final execution, same state, same live outputs, same drops."""

    def compare(self, request, emissions, name, **cell):
        lazy = run_scenario_cell(name, "defined", **cell)
        seen = observable(lazy, emissions)
        emissions.clear()
        request.getfixturevalue("aggressive")
        oracle = run_scenario_cell(name, "defined", **cell)
        assert seen == observable(oracle, emissions)
        assert lazy.late_deliveries == oracle.late_deliveries == 0
        return lazy, oracle

    @pytest.mark.parametrize("name", DEFAULT_GRID_DEFINED)
    def test_default_grid(self, request, emissions, name):
        self.compare(request, emissions, name)

    @pytest.mark.parametrize("name", ["flap-storm@40", "partition@40"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_forty_nodes_where_it_pays(self, request, emissions, name, seed):
        lazy, oracle = self.compare(request, emissions, name, seed=seed, network_seed=seed)
        # (daemon work is *not* monotone per cell: other timing, other
        # mis-speculations -- partition@40 seed 1 executes more)
        unsend_packets = [
            sum(s.unsends_sent for s in prod.network.run_stats.per_node.values())
            for prod in (lazy, oracle)
        ]
        assert 0 < 2 * unsend_packets[0] < unsend_packets[1]

    def test_reboot_with_a_non_empty_window(self, request, emissions):
        """``crash-restart@20`` reboots three nodes through ``start()``
        while their windows still hold entries, and rolls back (the
        10-node cell no longer does under the playout hold); ``on_crash``
        retracts aggressively under both protocols."""
        lazy, _oracle = self.compare(request, emissions, "crash-restart@20")
        assert lazy.rollbacks > 0

    def test_deepcopy_snapshots(self, request, emissions):
        with deepcopy_stores():
            self.compare(request, emissions, "flap-storm@20")


# ----------------------------------------------------------------------
# hand-built cases on a line a - b - c: b forwards to c
# ----------------------------------------------------------------------
class Forwarder(Daemon):
    """Sees everything; forwards what is not ``quiet``.  A ``count``
    payload is forwarded with how many messages preceded it, so a
    straggler that sorts earlier changes that output and no other."""

    def __init__(self, node_id, stack, forward_to=None):
        super().__init__(node_id, stack)
        self.forward_to = forward_to
        self._seen = self.store.namespace("seen")  # position -> payload

    @property
    def seen(self):
        return self._seen.values()

    def on_start(self):
        self._seen.clear()

    def on_message(self, msg):
        self._seen[len(self._seen)] = msg.payload
        if self.forward_to and msg.payload != "quiet":
            payload = (msg.payload, len(self._seen)) if msg.payload == "count" else msg.payload
            self.send(self.forward_to, "fwd", payload, parent=msg)

    def on_timer(self, key):  # pragma: no cover - no timers armed
        pass


class Line:
    """a - b - c with every transmission recorded, unsends included."""

    def __init__(self):
        self.net = to_network(graph_of([("a", "b", 2_000), ("b", "c", 2_000)]), jitter_us=0)
        self.recorder = Recorder()
        self.net.attach(
            lambda node: DefinedShim(node, recorder=self.recorder),
            lambda node_id, stack: Forwarder(
                node_id, stack, forward_to="c" if node_id == "b" else None
            ),
        )
        self.net.start()
        self.sent = []
        for name in ("transmit", "transmit_deterministic"):
            setattr(self.net, name, self.recording(getattr(self.net, name)))
        self.b, self.c = self.net.nodes["b"], self.net.nodes["c"]

    def recording(self, transmit):
        def wrapper(msg, *args, **kwargs):
            self.sent.append(msg)
            return transmit(msg, *args, **kwargs)
        return wrapper

    def arrive(self, payload, delay_us):
        """``payload`` from ``a`` lands at ``b`` now; its ordering key
        grows with ``delay_us``, whatever the arrival order."""
        msg = Message(
            src="a", dst="b", protocol="ping", payload=payload,
            uid=self.net.next_uid(),
            annotation=Annotation(
                origin="a", seq=delay_us, delay_us=delay_us, group=0,
                chain=0, sub=0, sender="a",
            ),
        )
        self.b.stack.on_wire(msg)
        return msg

    def settle(self):
        """Run to quiescence; returns what was transmitted since the last call."""
        self.net.run()
        sent, self.sent = self.sent, []
        return sent


class TestThreeNodeLine:
    @pytest.fixture
    def line(self):
        return Line()

    def test_an_unchanged_output_survives_the_rollback(self, line):
        b, c = line.b, line.c
        late = line.arrive("late", 5_000)
        (forward,) = line.settle()
        assert c.daemon.seen == ["late"]

        line.arrive("quiet", 3_000)  # sorts first: b rolls back over "late"
        assert b.stats.rollbacks == 1 and b.daemon.seen == ["quiet", "late"]
        assert (b.stats.outputs_kept, b.stats.outputs_retracted) == (1, 0)
        # "late" was re-executed and re-emitted the same forward: nothing
        # unsent, nothing re-sent, and c never noticed
        assert line.settle() == []
        assert c.stats.rollbacks == 0 and c.stats.unsends_received == 0
        # the old uid sits on the *re-executed* entry, so a later
        # rollback can still retract it
        reexecuted = b.stack.history[1]
        assert reexecuted.msg is late and reexecuted.outputs == [forward]
        b.stack.on_wire(
            Message(src="a", dst="b", protocol="_unsend", payload=Unsend(uids=(late.uid,)))
        )
        (unsend,) = line.settle()
        assert unsend.dst == "c" and unsend.payload.uids == (forward.uid,)
        assert c.daemon.seen == []

    def test_a_changed_output_is_unsent_after_the_replay(self, line):
        b, c = line.b, line.c
        line.arrive("plain", 4_000)
        line.arrive("count", 6_000)
        plain, counted = line.settle()
        assert c.daemon.seen == ["plain", ("count", 2)]
        now = line.net.sim.now

        line.arrive("quiet", 3_000)  # "count" now has three predecessors
        assert (b.stats.outputs_kept, b.stats.outputs_retracted) == (1, 1)
        # exactly the changed uid is unsent, after the replay re-sent it,
        # and all of it inside the one engine event
        resent, unsend = line.sent
        assert (resent.protocol, resent.payload) == ("fwd", ("count", 3))
        assert (unsend.protocol, unsend.payload.uids) == ("_unsend", (counted.uid,))
        assert resent.sent_at_us == unsend.sent_at_us == line.net.sim.now == now
        assert [e.outputs for e in b.stack.history] == [[], [plain], [resent]]
        line.settle()
        assert c.daemon.seen == ["plain", ("count", 3)]

    def test_an_output_that_could_not_be_resent_now_is_not_adopted(self, line):
        b, c = line.b, line.c
        line.arrive("late", 5_000)
        (forward,) = line.settle()
        identity = send_identity(forward)
        assert identity not in line.recorder.recording().drops
        line.net.link_between("b", "c").up = False

        line.arrive("quiet", 3_000)
        # the re-emission meets a downed link: transmitted into the void
        # and recorded as dropped, and the copy sent while the link was up
        # is retracted -- what retract-everything did
        assert (b.stats.outputs_kept, b.stats.outputs_retracted) == (0, 1)
        dropped, unsend = line.settle()
        assert output_id(dropped) == output_id(forward) and dropped.uid != forward.uid
        assert unsend.payload.uids == (forward.uid,)
        assert identity in line.recorder.recording().drops
        assert all(e.outputs == [] for e in b.stack.history)
        assert c.daemon.seen == []
