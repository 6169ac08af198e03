"""Property tests for size-parameterized scenarios (``Scenario.sized`` /
the ``name@N`` grammar).

The paper's replay guarantee is only as credible as the grid it is
verified on; these tests pin the properties that make a *size-swept*
grid trustworthy:

* ``sized(n)`` is a deterministic function of the cell seed -- two
  independent derivations produce bit-identical topologies and
  schedules, different seeds produce different ones;
* schedule event counts scale proportionally with the node count;
* ``name@N`` round-trips through dynamic name resolution, composes with
  the ``a+b`` and ``~jNus`` grammars, and resolves identically in
  worker processes under both ``fork`` and ``spawn`` start methods;
* scenarios bound to fixed topologies (the paper case studies, the
  pre-jittered builtin variants) refuse to size, loudly.
"""

from __future__ import annotations

import multiprocessing

import pytest

from _fixtures import scenario_resolution_digest

from repro.simnet.events import LINK_DOWN, NODE_DOWN
from repro.sweep import (
    SweepCell,
    canonical_scenario_name,
    default_grid,
    get_scenario,
    run_cell,
    scenario_names,
    sized_spec,
)

#: Every sizeable builtin family; the paper's scalability sizes.
SIZEABLE = [
    "flap-storm", "crash-restart", "partition",
    "latency-jitter", "ddos-overload",
]
SIZES = (20, 40, 80)


class TestSizedDerivation:
    @pytest.mark.parametrize("name", SIZEABLE)
    @pytest.mark.parametrize("n", SIZES)
    def test_sized_rescales_topology(self, name, n):
        scenario = get_scenario(name).sized(n)
        assert scenario.name == f"{name}@{n}"
        assert scenario.base_nodes == n
        graph = scenario.topology(1)
        assert graph.node_count() == n
        assert graph.is_connected()

    @pytest.mark.parametrize("name", SIZEABLE)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", [1, 7])
    def test_sized_is_deterministic_per_seed(self, name, n, seed):
        """Two *independent* derivations agree bit for bit per seed."""
        a = get_scenario(name).sized(n)
        b = get_scenario(name).sized(n)
        assert a is not b  # genuinely fresh closures
        graph_a, graph_b = a.topology(seed), b.topology(seed)
        assert graph_a.edges == graph_b.edges
        assert a.schedule(graph_a, seed).sorted() == b.schedule(graph_b, seed).sorted()

    @pytest.mark.parametrize("name", SIZEABLE)
    def test_sized_seeds_are_independent(self, name):
        scenario = get_scenario(name).sized(20)
        graph = scenario.topology(1)
        assert (
            scenario.schedule(graph, 1).sorted()
            != scenario.schedule(graph, 2).sorted()
        )

    def test_sized_streams_split_from_base(self):
        """A sized scenario is not the base scenario in disguise: its
        schedule RNG stream is seed-split on the sized name."""
        base = get_scenario("flap-storm")
        sized = base.sized(base.base_nodes)
        graph = sized.topology(1)
        assert sized.schedule(graph, 1).sorted() != base.schedule(graph, 1).sorted()

    def test_event_counts_scale_proportionally(self):
        # flap-storm: 4 flaps at 8 nodes -> 4 * 40/8 = 20 at 40
        storm = get_scenario("flap-storm@40")
        schedule = storm.schedule(storm.topology(1), 1)
        downs = [e for e in schedule if e.kind == LINK_DOWN]
        assert len(downs) == 20
        # crash-restart: 1 crash at 6 nodes -> round(1 * 20/6) = 3 at 20
        crash = get_scenario("crash-restart@20")
        crash_schedule = crash.schedule(crash.topology(1), 1)
        assert len([e for e in crash_schedule if e.kind == NODE_DOWN]) == 3

    def test_diamond_scenarios_rebase_onto_waxman(self):
        for name in ("latency-jitter", "ddos-overload"):
            assert get_scenario(name).topology(1).node_count() == 4
            assert get_scenario(f"{name}@20").topology(1).node_count() == 20

    @pytest.mark.parametrize("name", ["xorp-bgp-med", "quagga-rip-blackhole"])
    def test_case_studies_refuse_to_size(self, name):
        with pytest.raises(ValueError, match="not size-parameterized"):
            get_scenario(name).sized(20)
        with pytest.raises(ValueError, match="not size-parameterized"):
            get_scenario(f"{name}@20")

    def test_jittered_size_suffix_order_rejected_with_hint(self):
        """Sizing binds inside the jitter wrapper ("a@20~j1us"); the
        reversed spelling is rejected with a rewrite hint instead of
        silently dropping the jitter."""
        with pytest.raises(ValueError, match="size binds inside the jitter"):
            get_scenario("flap-storm~j1us@20")

    def test_jittered_variants_size_inside_the_wrapper(self):
        """The grammar is closed under @N: sizing a jittered scenario
        sizes the base and re-wraps, producing the canonical
        "a@N~jJus" -- never a silently unjittered sized scenario."""
        sized = get_scenario("flap-storm~j1us").sized(20)
        assert sized.name == "flap-storm@20~j1us"
        assert sized is not get_scenario("flap-storm@20")
        # and the spelled-out canonical form resolves to the same family
        assert get_scenario("flap-storm@20~j1us").name == sized.name

    def test_sized_scenarios_refuse_to_resize(self):
        with pytest.raises(ValueError, match="already size-parameterized"):
            get_scenario("flap-storm@20").sized(40)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            get_scenario("flap-storm").sized(1)


class TestSizedNameGrammar:
    def test_builtin_size_variants_registered(self):
        """Every fault family resolves at the paper's sizes by name, with
        no registration: the sizes are in neither the registry nor the
        default grid."""
        listed = set(scenario_names()) | set(default_grid())
        for base in ("flap-storm", "crash-restart", "partition",
                     "latency-jitter", "ddos-overload"):
            for n in SIZES:
                assert get_scenario(f"{base}@{n}").name == f"{base}@{n}"
                assert f"{base}@{n}" not in listed
        assert not [n for n in listed if "@" in n]

    def test_name_round_trips(self):
        for name in SIZEABLE:
            for n in (12, 20, 80):  # 12: dynamic-only, never registered
                assert get_scenario(f"{name}@{n}").name == f"{name}@{n}"

    def test_underscore_aliases_canonicalize(self):
        assert canonical_scenario_name("flap_storm@40") == "flap-storm@40"
        assert (
            canonical_scenario_name("flap_storm@40+partition@40~j2us")
            == "flap-storm@40+partition@40~j2us"
        )

    def test_size_composes_with_compose_and_jitter(self):
        spec = "flap-storm@40+partition@40~j2us"
        scenario = get_scenario(spec)
        assert scenario.name == spec
        graph = scenario.topology(1)
        assert graph.node_count() == 40
        a = scenario.schedule(graph, 3).sorted()
        b = get_scenario(spec).schedule(graph, 3).sorted()
        assert a == b

    def test_sized_spec_helper(self):
        assert sized_spec("flap_storm+partition~j2us", 40) == (
            "flap-storm@40+partition@40~j2us"
        )
        with pytest.raises(ValueError, match="already carries a size"):
            sized_spec("flap-storm@20", 40)

    def test_registered_and_dynamic_resolutions_agree(self):
        """`flap-storm@20` (registered at import) and a fresh
        `.sized(20)` derivation describe the same environment."""
        registered = get_scenario("flap-storm@20")
        dynamic = get_scenario("flap-storm").sized(20)
        graph_r, graph_d = registered.topology(5), dynamic.topology(5)
        assert graph_r.edges == graph_d.edges
        assert (
            registered.schedule(graph_r, 5).sorted()
            == dynamic.schedule(graph_d, 5).sorted()
        )


def _digest_in_pool(start_method: str, names):
    ctx = multiprocessing.get_context(start_method)
    with ctx.Pool(1) as pool:
        return pool.apply(scenario_resolution_digest, (names,))


class TestCrossProcessResolution:
    """``name@N`` must resolve to the *same* environment in any worker."""

    NAMES = [
        "flap-storm@20", "crash-restart@40", "partition@80",
        "latency-jitter@20", "ddos-overload@20",
        "flap-storm@20+partition@20",
        "flap_storm@20+partition@20~j1us",  # underscore alias, fuzzed
    ]

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_worker_resolution_matches_parent(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"platform has no {start_method} start method")
        local = scenario_resolution_digest(self.NAMES)
        remote = _digest_in_pool(start_method, self.NAMES)
        assert remote == local


class TestSizedCellsEndToEnd:
    def test_sized_cell_is_rerun_bit_identical(self):
        """A full sized grid cell reruns bit-for-bit (topology, schedule
        and simulation all derived from the seed), and upholds the
        Theorem-1 replay invariant at size 20."""
        cell = SweepCell("partition@20", seed=2, mode="defined")
        a, b = run_cell(cell), run_cell(cell)
        assert a.error is None, a.error
        assert a.invariant_ok is True
        assert a.fingerprint == b.fingerprint
        assert a.replay_fingerprint == b.replay_fingerprint
        assert a.rollbacks == b.rollbacks
