"""The paper's core guarantees, as executable properties.

* **Seed invariance of DEFINED-RB** (our strengthening of "deterministic
  network execution"): the same topology and external schedule produce
  the same per-node delivery sequences under *any* jitter seed.
* **Theorem 1 (Reproducibility)**: a DEFINED-LS replay of the partial
  recording reproduces the production execution exactly.
* **Vanilla nondeterminism** (the problem statement): without DEFINED the
  same workload yields different executions across seeds.
"""

import pytest

from _fixtures import flap_schedule, line_graph, square_graph

from repro.core.recorder import Recording
from repro.diff import diff_logs
from repro.harness import run_ls_replay, run_production
from repro.simnet.engine import SECOND
from repro.simnet.events import EventSchedule, ExternalEvent


def assert_same_execution(a, b):
    divergence = diff_logs(a.logs, b.logs)
    assert divergence is None, f"executions diverge: {divergence}"


class TestVanillaIsNondeterministic:
    def test_different_seeds_different_executions(self, square, square_flap):
        runs = [
            run_production(square, square_flap, mode="vanilla", seed=seed)
            for seed in (1, 2, 3)
        ]
        fingerprints = {r.fingerprint for r in runs}
        assert len(fingerprints) > 1

    def test_same_seed_same_execution(self, square, square_flap):
        a = run_production(square, square_flap, mode="vanilla", seed=7)
        b = run_production(square, square_flap, mode="vanilla", seed=7)
        assert_same_execution(a, b)


class TestDefinedRbSeedInvariance:
    @pytest.mark.parametrize("ordering", ["OO", "RO"])
    def test_square_flap(self, square, square_flap, ordering):
        runs = [
            run_production(
                square, square_flap, mode="defined", seed=seed, ordering=ordering
            )
            for seed in (1, 2, 3)
        ]
        for run in runs:
            assert run.late_deliveries == 0
        assert_same_execution(runs[0], runs[1])
        assert_same_execution(runs[0], runs[2])

    def test_high_jitter_still_deterministic(self, square, square_flap):
        runs = [
            run_production(
                square, square_flap, mode="defined", seed=seed, jitter_us=2_500
            )
            for seed in (4, 5)
        ]
        assert_same_execution(runs[0], runs[1])
        assert runs[0].rollbacks > 0  # jitter forced actual rollbacks

    def test_line_topology(self):
        graph = line_graph(4)
        schedule = flap_schedule(("n1", "n2"))
        a = run_production(graph, schedule, mode="defined", seed=10)
        b = run_production(graph, schedule, mode="defined", seed=11)
        assert_same_execution(a, b)

    def test_multiple_concurrent_flaps(self, square):
        schedule = EventSchedule()
        schedule.add(ExternalEvent(time_us=4_103_000, kind="link_down", target=("b", "c")))
        schedule.add(ExternalEvent(time_us=4_155_000, kind="link_down", target=("a", "d")))
        schedule.add(ExternalEvent(time_us=9_367_000, kind="link_up", target=("b", "c")))
        schedule.add(ExternalEvent(time_us=9_411_000, kind="link_up", target=("a", "d")))
        a = run_production(square, schedule, mode="defined", seed=1)
        b = run_production(square, schedule, mode="defined", seed=2)
        assert_same_execution(a, b)


class TestTheorem1Reproducibility:
    def test_replay_reproduces_production(self, square, square_flap):
        prod = run_production(square, square_flap, mode="defined", seed=3)
        replay = run_ls_replay(square, prod.recording, seed=999)
        assert replay.fingerprint == prod.fingerprint

    def test_replay_is_independent_of_debug_network_seed(self, square, square_flap):
        prod = run_production(square, square_flap, mode="defined", seed=3)
        replays = [
            run_ls_replay(square, prod.recording, seed=s) for s in (100, 200)
        ]
        assert replays[0].fingerprint == prod.fingerprint
        assert replays[1].fingerprint == prod.fingerprint

    def test_replay_from_serialized_recording(self, square, square_flap, tmp_path):
        """The recording survives the trip from production site to the
        debugging site as a file."""
        prod = run_production(square, square_flap, mode="defined", seed=6)
        path = str(tmp_path / "prod.recording.json")
        prod.recording.save(path)
        replay = run_ls_replay(square, Recording.load(path))
        assert replay.fingerprint == prod.fingerprint

    def test_replay_with_random_ordering(self, square, square_flap):
        """Theorem 1 holds for any ordering function, as long as both
        networks use the same one."""
        prod = run_production(
            square, square_flap, mode="defined", seed=3, ordering="RO"
        )
        replay = run_ls_replay(square, prod.recording, ordering="RO")
        assert replay.fingerprint == prod.fingerprint

    def test_replay_under_lossy_debug_network(self, square, square_flap):
        """The debugging network's TCP masks its own packet loss.

        At loss 0.2 the transports retransmit 137 times, so duplicate
        frames are still in flight when barriers complete; the barrier's
        simulated cost is pinned to show that accounting idle nodes'
        phase-begins at broadcast is blind to them."""
        prod = run_production(square, square_flap, mode="defined", seed=3)
        from repro.topology import to_network
        from repro.core.lockstep import LockstepCoordinator
        from repro.core.ordering import make_ordering
        from repro.core.fingerprint import execution_fingerprint
        from repro.harness import ospf_daemon_factory

        net = to_network(square, seed=50, jitter_us=500, loss=0.2)
        coordinator = LockstepCoordinator(net, prod.recording, ordering=make_ordering("OO"))
        coordinator.attach(ospf_daemon_factory(square))
        coordinator.start()
        coordinator.run_all()
        assert execution_fingerprint(net.delivery_logs()) == prod.fingerprint
        retransmissions = sum(
            stack.transport.retransmissions for stack in coordinator.stacks.values()
        )
        assert retransmissions == 137
        assert sum(net.run_stats.step_times_us) == 6_083_774
        assert net.run_stats.total_control_packets() == 2_958
        assert net.sim.now == 6_710_774

    def test_line_topology_replay(self):
        graph = line_graph(4)
        schedule = flap_schedule(("n1", "n2"))
        prod = run_production(graph, schedule, mode="defined", seed=21)
        replay = run_ls_replay(graph, prod.recording)
        assert replay.fingerprint == prod.fingerprint


class TestPartialRecordingContents:
    def test_recording_contains_only_external_events(self, square, square_flap):
        prod = run_production(square, square_flap, mode="defined", seed=1)
        kinds = {e.kind for e in prod.recording.events}
        assert kinds <= {"link_down", "link_up"}
        # two observers per link event plus the network-level record
        per_kind = [e for e in prod.recording.events if e.kind == "link_down"]
        assert len(per_kind) == 3

    def test_recording_is_small(self, square, square_flap):
        """The entire point: partial recordings are tiny compared to the
        number of internal events they let us reproduce."""
        prod = run_production(square, square_flap, mode="defined", seed=1)
        internal_events = sum(len(log) for log in prod.logs.values())
        assert prod.recording.size_bytes() < 2_000
        assert internal_events > 100
