"""Tests for the StateStore sanitizer: in-place mutation of a stored
value caught at ``snapshot()``, at the write barrier and at
``restore()``; attribution to a delivery under the DEFINED shim; the
REPRO_SANITIZE switch; and transparency (sanitize mode must not change
observable behaviour)."""

import copy

import pytest

from _fixtures import line_graph
from _oracles import DeepcopyStore

from repro.core.shim import HOLD_SLACK_US, DefinedShim
from repro.core.statestore import StateStore, StoreContractViolation
from repro.harness import run_production
from repro.routing.base import Daemon
from repro.simnet.messages import Annotation, Message
from repro.topology import to_network


@pytest.fixture
def store():
    return StateStore(sanitize=True)


def _mutators():
    """(stored value, in-place mutation of the value read back) pairs:
    every mutator of the four mutable types the sanitizer digests."""
    cases = {
        "list": ([1, 2, 3], [
            lambda v: v.append(4),
            lambda v: v.extend([4]),
            lambda v: v.insert(0, 0),
            lambda v: v.remove(1),
            lambda v: v.pop(),
            lambda v: v.sort(reverse=True),
            lambda v: v.reverse(),
            lambda v: v.clear(),
            lambda v: v.__setitem__(0, 9),
            lambda v: v.__delitem__(0),
        ]),
        "dict": ({"a": 1}, [
            lambda v: v.__setitem__("b", 2),
            lambda v: v.pop("a"),
            lambda v: v.update({"b": 2}),
            lambda v: v.clear(),
            lambda v: v.setdefault("b", 2),
        ]),
        "set": ({1, 2}, [
            lambda v: v.add(3),
            lambda v: v.discard(1),
            lambda v: v.remove(1),
            lambda v: v.clear(),
        ]),
        "bytearray": (bytearray(b"ab"), [
            lambda v: v.append(0),
            lambda v: v.__setitem__(0, 0),
        ]),
        "nested": ({"inner": [1, 2]}, [
            lambda v: v["inner"].append(3),
        ]),
    }
    return [
        pytest.param(value, mutate, id=f"{kind}-{i}")
        for kind, (value, mutators) in cases.items()
        for i, mutate in enumerate(mutators)
    ]


class TestReadsAreRaw:
    @pytest.mark.parametrize("value, mutate", _mutators())
    def test_mutating_a_read_value_raises_at_snapshot(self, store, value, mutate):
        ns = store.namespace("rib")
        ns["k"] = copy.deepcopy(value)  # params are shared across cases
        mutate(ns["k"])
        with pytest.raises(StoreContractViolation, match=r"'rib'.*'k'"):
            store.snapshot()

    def test_reads_are_transparent(self, store):
        ns = store.namespace("rib")
        stored = [1, 2]
        ns["l"] = stored
        ns["t"] = (1, 2)
        assert ns["l"] is stored
        assert ns.get("l") is stored
        assert ns.values()[0] is stored
        assert ns.items()[0] == ("l", stored)
        assert ns.as_dict()["l"] is stored
        assert ns["t"] == (1, 2)
        assert ns.get("missing", 5) == 5

    def test_storing_a_read_value_under_another_key(self, store):
        ns = store.namespace("rib")
        ns["a"] = [1]
        ns["b"] = ns["a"]
        assert ns["b"] is ns["a"]
        store.snapshot()  # one object, two keys, both digests match


class TestAliasedEscape:
    def test_seeded_inplace_mutation_raises_at_snapshot(self, store):
        """The hazard the differential grid only catches
        probabilistically: the caller keeps the raw reference it stored
        and mutates it in place.  A seeded RNG picks the victim, so the
        corruption itself is deterministic -- and still invisible to
        any read until the sanitizer digests it."""
        import random

        rng = random.Random("sanitize|victim|1")
        ns = store.namespace("rib")
        rows = {f"d{i}": [rng.randint(0, 9)] for i in range(6)}
        for dest in sorted(rows):
            ns[dest] = rows[dest]
        store.snapshot()  # clean: digests all match

        victim = sorted(rows)[rng.randrange(len(rows))]
        rows[victim].append(99)  # behind the barrier, no view involved
        with pytest.raises(StoreContractViolation, match="aliased"):
            store.snapshot()

    def test_replacement_through_barrier_is_clean(self, store):
        ns = store.namespace("rib")
        ns["k"] = [1]
        ns["k"] = [1, 2]  # replacement, not mutation
        store.snapshot()

    def test_deleted_key_is_not_checked(self, store):
        ns = store.namespace("rib")
        raw = [1]
        ns["k"] = raw
        del ns["k"]
        raw.append(2)
        store.snapshot()


class TestAliasing:
    """A stored value mutated through a reference the caller got back
    from the store itself.  Every sequence ends in a violation naming the
    namespace and key, wherever along the sequence it is caught."""

    def test_read_mutate_write_back(self, store):
        ns = store.namespace("rib")
        ns["k"] = [1]
        v0 = store.snapshot()
        with pytest.raises(StoreContractViolation, match=r"'rib'.*'k'"):
            value = ns["k"]
            value.append(9)
            ns["k"] = value  # the same object: an "equal rewrite"
            store.snapshot()
            store.restore(v0)

    def test_mutated_pop_result_held_by_undo_journal(self, store):
        ns = store.namespace("rib")
        ns["k"] = [1]
        v0 = store.snapshot()
        with pytest.raises(StoreContractViolation, match=r"'rib'.*'k'"):
            popped = ns.pop("k")  # v0's undo journal still holds it
            popped.append(9)
            store.restore(v0)

    def test_mutated_displaced_value_held_by_undo_journal(self, store):
        ns = store.namespace("rib")
        ns["k"] = [1]
        v0 = store.snapshot()
        with pytest.raises(StoreContractViolation, match=r"'rib'.*'k'"):
            old = ns["k"]
            ns["k"] = [2]  # journals the displaced object into v0
            old.append(9)
            store.restore(v0)


class TestStoreCalls:
    """Where each store call checks: the barrier checks the value it
    displaces, ``restore()`` every live value."""

    @pytest.mark.parametrize("displace", [
        pytest.param(lambda ns, v: ns.__setitem__("k", v), id="write-back"),
        pytest.param(lambda ns, v: ns.__setitem__("k", [2]), id="replace-key"),
        pytest.param(lambda ns, v: ns.__delitem__("k"), id="delete"),
        pytest.param(lambda ns, v: ns.pop("k"), id="pop"),
        pytest.param(lambda ns, v: ns.clear(), id="clear"),
        pytest.param(lambda ns, v: ns.replace({}), id="replace-all"),
    ])
    def test_displacing_a_mutated_value_raises_at_the_barrier(self, store, displace):
        ns = store.namespace("rib")
        ns["k"] = [1]
        value = ns["k"]
        value.append(9)
        with pytest.raises(StoreContractViolation, match=r"'rib'.*'k'"):
            displace(ns, value)

    def test_restore_checks_live_values(self, store):
        ns = store.namespace("rib")
        ns["k"] = [1]
        v0 = store.snapshot()
        ns["k"].append(9)
        with pytest.raises(StoreContractViolation, match=r"'rib'.*'k'"):
            store.restore(v0)


class Hoarder(Daemon):
    """Keeps every payload it sees in one stored list, appending to the
    list it reads back: the contract violation the sanitizer must pin to
    the delivery whose handler did it."""

    def __init__(self, node_id, stack):
        super().__init__(node_id, stack)
        self._seen = self.store.namespace("seen")

    def on_start(self):
        self._seen["payloads"] = []

    def on_message(self, msg):
        self._seen["payloads"].append(msg.payload)  # behind the barrier

    def on_timer(self, key):  # pragma: no cover - no timers armed
        pass


class TestAttribution:
    """DEFINED-RB on a 3-node line: the middle node's handler mutates a
    stored list, and the next store call of its shim names the
    namespace, the key and the delivery that ran that handler."""

    @pytest.fixture
    def middle(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        net = to_network(line_graph(3), jitter_us=0)
        net.attach(DefinedShim, Hoarder)
        net.start()
        # past every arrival's release instant (d_i <= 5 ms, plus the
        # playout hold's slack): each is admitted as it lands
        net.run(until_us=10_000 + HOLD_SLACK_US)
        return net, net.nodes["n1"]

    @staticmethod
    def arrive(net, node, payload, delay_us):
        """``payload`` from ``n0`` lands now; its ordering key grows with
        ``delay_us``, whatever the arrival order."""
        node.stack.on_wire(Message(
            src="n0", dst=node.node_id, protocol="ping", payload=payload,
            uid=net.next_uid(),
            annotation=Annotation(
                origin="n0", seq=delay_us, delay_us=delay_us, group=0,
                chain=0, sub=0, sender="n0",
            ),
        ))
        return node.stack.delivery_log[-1]

    def test_next_checkpoint_names_the_delivery(self, middle):
        net, node = middle
        tag = self.arrive(net, node, "first", 3_000)
        assert "first" in tag
        with pytest.raises(StoreContractViolation) as caught:
            self.arrive(net, node, "second", 5_000)
        message = str(caught.value)
        assert "'seen'" in message and "'payloads'" in message
        assert f"delivery {tag!r}" in message and "'n1'" in message
        assert any(frame.name == "_take_checkpoint" for frame in caught.traceback)

    def test_rollback_over_the_delivery_names_it(self, middle):
        net, node = middle
        tag = self.arrive(net, node, "late", 5_000)
        with pytest.raises(StoreContractViolation) as caught:
            self.arrive(net, node, "early", 3_000)  # sorts first: rewind
        message = str(caught.value)
        assert "'seen'" in message and "'payloads'" in message
        assert f"delivery {tag!r}" in message
        assert any(frame.name == "_rewind" for frame in caught.traceback)


class TestSanitizeSwitch:
    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        store = StateStore()
        assert store.sanitize
        ns = store.namespace("x")
        ns["k"] = [1]
        ns["k"].append(2)
        with pytest.raises(StoreContractViolation):
            store.snapshot()

    def test_env_var_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        store = StateStore()
        assert not store.sanitize
        ns = store.namespace("x")
        ns["k"] = [1]
        ns["k"].append(2)
        store.snapshot()  # nothing digested, nothing checked

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert not StateStore(sanitize=False).sanitize


class TestSnapshotRoundtrip:
    @pytest.mark.parametrize(
        "store_cls", [StateStore, DeepcopyStore], ids=["cow", "deepcopy"]
    )
    def test_snapshot_restore_under_sanitize(self, store_cls):
        store = store_cls(sanitize=True)
        ns = store.namespace("rib")
        ns["a"] = (1, 2)
        v1 = store.snapshot()
        ns["a"] = (3, 4)
        ns["b"] = (5,)
        store.restore(v1)
        assert ns["a"] == (1, 2)
        assert "b" not in ns

    def test_dirty_key_counts_track_journal_traffic(self):
        store = StateStore()
        rib = store.namespace("rib")
        lsdb = store.namespace("lsdb")
        rib["a"] = 1
        store.snapshot()
        rib["a"] = 2  # journalled
        rib["a"] = 3  # same key: no new journal entry
        lsdb["x"] = 1  # journalled
        assert store.dirty_key_counts() == {"lsdb": 1, "rib": 1}


class TestEndToEnd:
    def test_defined_run_sanitized_fingerprint_unchanged(
        self, square, square_flap, monkeypatch
    ):
        """A DEFINED production run under REPRO_SANITIZE=1 completes
        with zero StoreContractViolation and the exact fingerprint of
        an unsanitized run: the sanitizer observes, never perturbs."""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        baseline = run_production(square, square_flap, mode="defined", seed=3)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = run_production(square, square_flap, mode="defined", seed=3)
        assert sanitized.fingerprint == baseline.fingerprint
