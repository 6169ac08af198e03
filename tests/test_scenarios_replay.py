"""Cross-cutting replay regressions at moderate scale.

These are the distilled regressions for the subtle bugs found while
bringing Theorem 1 up at Rocketfuel scale (see DESIGN.md, "Soundness
notes"): stale annotations under differential retransmission, group-close
with queued unsends, and mid-group origination offsets.  Ebone (25 nodes)
is the smallest topology whose boot flood exercises deep cascade chains.
"""

import pytest

from repro.diff import diff_logs
from repro.harness import run_ls_replay, run_production
from repro.simnet.engine import SECOND
from repro.simnet.events import EventSchedule, ExternalEvent
from repro.topology import rocketfuel_topology
from repro.topology.traces import compressed_trace


@pytest.fixture(scope="module")
def ebone():
    return rocketfuel_topology("ebone")


class TestTheorem1AtScale:
    def test_boot_flood_replay_exact(self, ebone):
        """The synchronized boot flood drives thousands of rollbacks with
        deep unsend cascades -- the regime where every soundness bug so
        far has surfaced."""
        prod = run_production(
            ebone, EventSchedule(), mode="defined", seed=1,
            settle_us=2 * SECOND, tail_us=SECOND,
        )
        assert prod.rollbacks > 100  # the storm actually happened
        replay = run_ls_replay(ebone, prod.recording)
        assert diff_logs(prod.logs, replay.logs) is None

    def test_event_storm_replay_exact(self, ebone):
        trace = compressed_trace(
            ebone, n_events=4, gap_us=8 * SECOND, start_us=4_097_000
        )
        prod = run_production(ebone, trace, mode="defined", seed=2)
        replay = run_ls_replay(ebone, prod.recording)
        assert diff_logs(prod.logs, replay.logs) is None

    def test_mid_group_event_offsets_recorded(self, ebone):
        """Events landing mid-group must carry their group offset, and the
        offset must flow into origination delay estimates."""
        trace = compressed_trace(
            ebone, n_events=2, gap_us=8 * SECOND, start_us=4_097_000
        )
        prod = run_production(ebone, trace, mode="defined", seed=1)
        observed = [
            e for e in prod.recording.events
            if e.node != "__net__" and e.kind.startswith("link")
        ]
        assert observed
        assert any(e.offset_us > 0 for e in observed)

    def test_production_delivery_order_is_key_sorted(self, ebone):
        """The core invariant behind Theorem 1: every node's surviving
        delivery sequence is strictly increasing in ordering-key order."""
        import repro.core.shim as shim_mod

        key_logs = {}
        original = shim_mod.DefinedShim._deliver

        def patched(self, entry, checkpoint, extra_delay_us):
            log = key_logs.setdefault(self.node.node_id, [])
            del log[len(self.delivery_log):]
            result = original(self, entry, checkpoint, extra_delay_us)
            log.append(entry.key)
            return result

        def patched_rb(self, index, new_entries, removed_uids):
            base = self.history[index]
            if base.log_index >= 0:
                log = key_logs.setdefault(self.node.node_id, [])
                del log[base.log_index:]
            return original_rb(self, index, new_entries, removed_uids)

        original_rb = shim_mod.DefinedShim._rollback
        shim_mod.DefinedShim._deliver = patched
        shim_mod.DefinedShim._rollback = patched_rb
        try:
            trace = compressed_trace(
                ebone, n_events=2, gap_us=8 * SECOND, start_us=4_097_000
            )
            run_production(ebone, trace, mode="defined", seed=3)
        finally:
            shim_mod.DefinedShim._deliver = original
            shim_mod.DefinedShim._rollback = original_rb
        assert key_logs
        for node_id, keys in key_logs.items():
            for a, b in zip(keys, keys[1:]):
                assert a < b, f"unsorted surviving delivery at {node_id}"


class TestComposedScenarioDeterminism:
    """Every composed builtin is a full grid citizen: two independent
    executions of the same (scenario, seed, mode) must be bit-identical,
    and the DEFINED-LS replay must match the defined fingerprint."""

    COMPOSED_BUILTINS = [
        "flap-storm+partition",
        "crash-restart+ddos-overload",
        "flap-storm+partition~j1us",
        "crash-restart+ddos-overload~j1us",
    ]

    @pytest.mark.parametrize("name", COMPOSED_BUILTINS)
    def test_rerun_is_bit_identical_and_replay_matches(self, name):
        from repro.sweep import SweepCell, run_cell

        cell = SweepCell(name, seed=1, mode="defined")
        first, second = run_cell(cell), run_cell(cell)
        assert first.error is None, first.error
        assert second.error is None, second.error
        # independent executions of one cell collapse to one fingerprint
        assert first.fingerprint == second.fingerprint
        assert first.replay_fingerprint == second.replay_fingerprint
        assert first.rollbacks == second.rollbacks
        # and the DEFINED-mode replay reproduced production (Theorem 1)
        assert first.invariant_ok is True
        assert first.replay_fingerprint == first.fingerprint

    @pytest.mark.parametrize("name", COMPOSED_BUILTINS)
    def test_vanilla_mode_reruns_identically_too(self, name):
        from repro.sweep import SweepCell, run_cell

        cell = SweepCell(name, seed=2, mode="vanilla")
        first, second = run_cell(cell), run_cell(cell)
        assert first.error is None and second.error is None
        assert first.fingerprint == second.fingerprint


class TestMessageConservation:
    def test_no_lost_or_phantom_messages(self, ebone):
        """Every surviving send is a surviving delivery and vice versa
        (boot sends are untracked by design and excluded)."""
        trace = compressed_trace(
            ebone, n_events=2, gap_us=8 * SECOND, start_us=4_097_000
        )
        prod = run_production(
            ebone, trace, mode="defined", seed=1, window_us=10**12
        )
        sent = {}
        for nid, node in prod.network.nodes.items():
            for entry in node.stack.history.entries:
                for msg in entry.outputs:
                    sent[msg.uid] = msg.dst
        boot_uid_cap = 0
        delivered = {}
        for nid, node in prod.network.nodes.items():
            for entry in node.stack.history.entries:
                if entry.kind == "msg":
                    delivered[entry.msg.uid] = nid
                    ann = entry.msg.annotation
                    if ann.chain == 0 and ann.sub == 0:
                        boot_uid_cap = max(boot_uid_cap, 0)  # boot originations allowed
        lost = [u for u in sent if u not in delivered]
        assert not lost
        phantom = [
            u for u, nid in delivered.items()
            if u not in sent
        ]
        # phantoms must all be boot originations (sent before any delivery)
        for uid in phantom:
            node = delivered[uid]
            entry = next(
                e for e in prod.network.nodes[node].stack.history.entries
                if e.kind == "msg" and e.msg.uid == uid
            )
            assert entry.msg.annotation.sub == 0
            assert entry.msg.annotation.chain == 0
