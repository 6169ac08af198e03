"""Tests for the StateStore sanitizer: freeze-proxy views, aliased
escape detection at snapshot time, the REPRO_SANITIZE switch, and
transparency (sanitize mode must not change observable behaviour)."""

import copy

import pytest

from _oracles import DeepcopyStore

from repro.core.statestore import StateStore, StoreContractViolation
from repro.harness import run_production


@pytest.fixture
def store():
    return StateStore(sanitize=True)


class TestFreezeViews:
    def test_list_mutators_raise(self, store):
        ns = store.namespace("rib")
        ns["k"] = [1, 2, 3]
        view = ns["k"]
        for mutate in (
            lambda: view.append(4),
            lambda: view.extend([4]),
            lambda: view.insert(0, 0),
            lambda: view.remove(1),
            lambda: view.pop(),
            lambda: view.sort(),
            lambda: view.reverse(),
            lambda: view.clear(),
            lambda: view.__setitem__(0, 9),
            lambda: view.__delitem__(0),
        ):
            with pytest.raises(StoreContractViolation):
                mutate()

    def test_dict_mutators_raise(self, store):
        ns = store.namespace("rib")
        ns["k"] = {"a": 1}
        view = ns["k"]
        for mutate in (
            lambda: view.__setitem__("b", 2),
            lambda: view.pop("a"),
            lambda: view.update({"b": 2}),
            lambda: view.clear(),
            lambda: view.setdefault("b", 2),
        ):
            with pytest.raises(StoreContractViolation):
                mutate()

    def test_set_mutators_raise(self, store):
        ns = store.namespace("rib")
        ns["k"] = {1, 2}
        view = ns["k"]
        for mutate in (
            lambda: view.add(3),
            lambda: view.discard(1),
            lambda: view.remove(1),
            lambda: view.clear(),
        ):
            with pytest.raises(StoreContractViolation):
                mutate()

    def test_violation_names_namespace_and_key(self, store):
        ns = store.namespace("peers")
        ns["r1"] = [1]
        with pytest.raises(StoreContractViolation, match=r"'peers'.*'r1'"):
            ns["r1"].append(2)

    def test_reads_are_transparent(self, store):
        ns = store.namespace("rib")
        ns["l"] = [1, 2]
        ns["d"] = {"a": 1}
        ns["t"] = (1, 2)
        assert ns["l"] == [1, 2]
        assert list(ns["l"]) == [1, 2]
        assert len(ns["d"]) == 1
        assert "a" in ns["d"]
        assert ns["d"]["a"] == 1
        assert ns["t"] == (1, 2)  # immutables pass through unwrapped
        assert isinstance(ns["t"], tuple)
        assert ns.get("missing", 5) == 5

    def test_nested_values_are_wrapped(self, store):
        ns = store.namespace("rib")
        ns["k"] = {"inner": [1, 2]}
        inner = ns["k"]["inner"]
        with pytest.raises(StoreContractViolation):
            inner.append(3)

    def test_storing_a_view_back_unwraps_it(self, store):
        ns = store.namespace("rib")
        ns["a"] = [1]
        ns["b"] = ns["a"]
        assert ns["b"] == [1]
        store.snapshot()  # digests recorded against raw values, not views

    def test_deepcopy_of_view_is_plain(self, store):
        ns = store.namespace("rib")
        ns["k"] = [1, [2]]
        plain = copy.deepcopy(ns["k"])
        assert plain == [1, [2]]
        plain.append(3)  # a real list again


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


class TestSanitizeSwitch:
    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        store = StateStore()
        assert store.sanitize
        ns = store.namespace("x")
        ns["k"] = [1]
        with pytest.raises(StoreContractViolation):
            ns["k"].append(2)

    def test_env_var_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        store = StateStore()
        assert not store.sanitize
        ns = store.namespace("x")
        ns["k"] = [1]
        ns["k"].append(2)  # raw value, no proxy

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
