"""Section 4 case studies as benchmarks: the end-to-end debugging stories,
plus direct checks of the paper's two theorems."""

from _bench import emit

from repro.analysis.report import render_table
from repro.diff import diff_logs
from repro.harness import run_ls_replay, run_production
from repro.scenarios import (
    BGP_CORRECT_BEST,
    bgp_daemon_factory,
    bgp_topology,
    quagga_rip_scenario,
    rip_daemon_factory,
    rip_topology,
    xorp_bgp_scenario,
)
from repro.topology import rocketfuel_topology
from repro.topology.traces import compressed_trace


def test_xorp_bgp_ordering_bug(benchmark):
    def run():
        vanilla = [
            xorp_bgp_scenario(mode="vanilla", decision="buggy", seed=s).best_at_r3
            for s in range(8)
        ]
        defined = [
            xorp_bgp_scenario(mode="defined", decision="buggy", seed=s).best_at_r3
            for s in (1, 2)
        ]
        prod = xorp_bgp_scenario(mode="defined", decision="buggy", seed=1)
        replay = run_ls_replay(
            bgp_topology(), prod.result.recording,
            daemon_factory=bgp_daemon_factory("buggy"),
        )
        patched = run_ls_replay(
            bgp_topology(), prod.result.recording,
            daemon_factory=bgp_daemon_factory("correct"),
        )
        return {
            "vanilla_outcomes": sorted(set(vanilla)),
            "defined_outcomes": sorted(set(defined)),
            "replay_exact": replay.fingerprint == prod.result.fingerprint,
            "patched_best": patched.network.nodes["R3"].daemon.best_path_id(
                "10.0.0.0/8"
            ),
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(render_table(
        "Case study: XORP 0.4 BGP MED ordering bug (Figure 4)",
        ["check", "result"],
        [
            ["vanilla outcomes across seeds", ", ".join(result["vanilla_outcomes"])],
            ["DEFINED-RB outcomes across seeds", ", ".join(result["defined_outcomes"])],
            ["DEFINED-LS replay exact", result["replay_exact"]],
            ["patched daemon picks", result["patched_best"]],
        ],
    ))
    assert result["vanilla_outcomes"] == ["p2", "p3"]  # nondeterministic
    assert len(result["defined_outcomes"]) == 1        # deterministic
    assert result["replay_exact"]                      # Theorem 1
    assert result["patched_best"] == BGP_CORRECT_BEST  # patch validated


def test_quagga_rip_timer_bug(benchmark):
    def run():
        vanilla = {
            quagga_rip_scenario(mode="vanilla", matching="buggy", config="race",
                                seed=s).route_via
            for s in range(12)
        }
        defined = {
            quagga_rip_scenario(mode="defined", matching="buggy", config="blackhole",
                                seed=s).route_via
            for s in (1, 2)
        }
        prod = quagga_rip_scenario(
            mode="defined", matching="buggy", config="blackhole", seed=1
        )
        replay = run_ls_replay(
            rip_topology(), prod.result.recording,
            daemon_factory=rip_daemon_factory("buggy", 8),
        )
        patched = run_ls_replay(
            rip_topology(), prod.result.recording,
            daemon_factory=rip_daemon_factory("correct", 8),
        )
        return {
            "vanilla_outcomes": sorted(str(v) for v in vanilla),
            "defined_outcomes": sorted(str(v) for v in defined),
            "replay_exact": replay.fingerprint == prod.result.fingerprint,
            "patched_route": patched.network.nodes["R1"].daemon.route_via("dst"),
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(render_table(
        "Case study: Quagga 0.96.5 RIP timer bug (Figure 5)",
        ["check", "result"],
        [
            ["vanilla race outcomes across seeds", ", ".join(result["vanilla_outcomes"])],
            ["DEFINED-RB outcomes across seeds", ", ".join(result["defined_outcomes"])],
            ["DEFINED-LS replay exact", result["replay_exact"]],
            ["patched daemon routes via", result["patched_route"]],
        ],
    ))
    assert len(result["vanilla_outcomes"]) > 1      # timing-dependent
    assert result["defined_outcomes"] == ["R2"]     # deterministic black hole
    assert result["replay_exact"]                   # Theorem 1
    assert result["patched_route"] == "R3"          # patch validated


def test_theorem1_reproducibility(benchmark):
    """Theorem 1 at Rocketfuel scale, with the recording round-tripped
    through its file format."""
    graph = rocketfuel_topology("ebone")
    trace = compressed_trace(graph, n_events=4, gap_us=8_000_000, start_us=4_097_000)

    def run():
        prod = run_production(graph, trace, mode="defined", seed=1)
        from repro.core.recorder import Recording

        recording = Recording.from_json(prod.recording.to_json())
        replay = run_ls_replay(graph, recording)
        return prod, replay

    prod, replay = benchmark.pedantic(run, rounds=1, iterations=1)
    divergence = diff_logs(prod.logs, replay.logs)
    emit(render_table(
        "Theorem 1 (Reproducibility) on Ebone",
        ["check", "result"],
        [
            ["production fingerprint", prod.fingerprint[:16] + "..."],
            ["replay fingerprint", replay.fingerprint[:16] + "..."],
            ["identical executions", divergence is None],
            ["events recorded", len(prod.recording.events)],
            ["recording bytes", prod.recording.size_bytes()],
            ["late deliveries", prod.late_deliveries],
        ],
    ))
    assert divergence is None, f"diverged: {divergence}"


def test_theorem2_termination(benchmark):
    """Theorem 2: under adversarial jitter the instrumented network keeps
    making progress (every rollback cascade settles)."""
    graph = rocketfuel_topology("ebone")
    trace = compressed_trace(graph, n_events=4, gap_us=8_000_000, start_us=4_097_000)

    def run():
        return run_production(graph, trace, mode="defined", seed=9, jitter_us=1_500)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    deliveries = sum(
        s.deliveries for s in result.network.run_stats.per_node.values()
    )
    emit(render_table(
        "Theorem 2 (Termination) on Ebone, jitter 1.5 ms",
        ["check", "result"],
        [
            ["rollbacks", result.rollbacks],
            ["deliveries", deliveries],
            ["unconverged events", result.unconverged_events],
            ["late deliveries", result.late_deliveries],
        ],
    ))
    assert result.unconverged_events == 0
    assert deliveries > 0
