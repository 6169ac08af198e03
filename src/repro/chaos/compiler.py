"""Compile validated chaos documents into sweep :class:`Scenario` objects.

The compiler is a pure function of the document: every open choice (which
links flap, which nodes skew, each skew's magnitude) is drawn from an RNG
stream keyed on the document *name*, the block's position, and the cell
seed -- so one file + one seed is one deterministic execution, and two
blocks of the same kind in one document stay independent.  A file is how
a custom scenario is written: the path resolves wherever a scenario name
does, and the compiled scenario sizes (``file.yaml@N`` for the synthetic
families), fuzzes (``file.yaml~j1us``) and composes
(``file.yaml+flap-storm``) exactly like the builtins.
"""

from __future__ import annotations

import os
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.loader import ScenarioFileError, parse_file, validate_file
from repro.simnet.events import EventSchedule
from repro.simnet.faults import LinkFaultWindow, NetworkTuning
from repro.sweep import (
    DEFAULT_MODES,
    Scenario,
    _diamond_topology,
    _expect_all_links_healed,
    _expect_all_nodes_up,
    _expect_damping,
    crash_restart_schedule,
    flap_storm_schedule,
    partition_schedule,
    seed_split,
    srlg_schedule,
    zone_blackout_schedule,
)
from repro.topology import TopologyGraph, barabasi_albert, waxman_family
from repro.topology.rocketfuel import rocketfuel_topology


def _opt(block: Dict[str, Any], *keys: str) -> Dict[str, Any]:
    """The subset of ``keys`` the author actually set -- absent keys fall
    through to the generator's own defaults."""
    return {key: block[key] for key in keys if key in block}


def _ba_family(tag: str, n: int, seed_base: int = 1_000):
    """Seed-indexed Barabási–Albert family, mirroring ``waxman_family``:
    the graph name embeds tag and seed so name-keyed fault RNG streams
    never collide across documents, sizes, or seeds."""

    def factory(seed: int) -> TopologyGraph:
        graph = barabasi_albert(n, seed=seed_base + seed)
        return TopologyGraph(
            name=f"{tag}-{graph.name}-s{seed}",
            nodes=graph.nodes,
            edges=graph.edges,
        )

    return factory


def _link_id(a: str, b: str) -> str:
    return f"{a}~{b}" if a <= b else f"{b}~{a}"


def _compile_event_block(
    name: str, index: int, block: Dict[str, Any], graph: TopologyGraph, seed: int
) -> EventSchedule:
    kind = block["kind"]
    sseed = seed_split(seed, f"{name}/events[{index}]/{kind}")
    if kind == "flap_storm":
        kwargs = _opt(block, "start_us", "min_hold_us", "max_hold_us", "gap_us")
        if "flaps" in block:
            kwargs["n_flaps"] = block["flaps"]
        if "links" in block:
            kwargs["links"] = [tuple(pair) for pair in block["links"]]
        return flap_storm_schedule(graph, sseed, **kwargs)
    if kind == "crash_restart":
        kwargs = _opt(block, "start_us", "down_for_us", "gap_us")
        if "crashes" in block:
            kwargs["n_crashes"] = block["crashes"]
        if "nodes" in block:
            kwargs["nodes"] = list(block["nodes"])
        return crash_restart_schedule(graph, sseed, **kwargs)
    if kind == "partition":
        kwargs = _opt(block, "heal_after_us")
        if "start_us" in block:
            kwargs["at_us"] = block["start_us"]
        return partition_schedule(graph, sseed, **kwargs)
    if kind == "zone_blackout":
        kwargs = _opt(block, "size", "nodes", "duration_us")
        if "start_us" in block:
            kwargs["at_us"] = block["start_us"]
        return zone_blackout_schedule(graph, sseed, **kwargs)
    if kind == "srlg":
        kwargs = _opt(block, "size", "duration_us")
        if "links" in block:
            kwargs["links"] = [tuple(link) for link in block["links"]]
        if "start_us" in block:
            kwargs["at_us"] = block["start_us"]
        return srlg_schedule(graph, sseed, **kwargs)
    raise ValueError(f"unknown event kind {kind!r}")  # pragma: no cover


def _compile_fault_block(
    name: str,
    index: int,
    block: Dict[str, Any],
    graph: TopologyGraph,
    seed: int,
    skews: Dict[str, int],
    windows: List[LinkFaultWindow],
) -> None:
    kind = block["kind"]
    rng = random.Random(f"chaos|{name}|faults[{index}]|{kind}|{seed}")
    if kind == "clock_skew":
        if "nodes" in block:
            victims = sorted(block["nodes"])
        else:
            pool = sorted(graph.nodes)
            victims = sorted(rng.sample(pool, min(block.get("count", 1), len(pool))))
        for victim in victims:
            if "skew_us" in block:
                skew = block["skew_us"]
            else:
                magnitude = rng.randrange(1, block["max_skew_us"] + 1)
                skew = magnitude if rng.random() < 0.5 else -magnitude
            skews[victim] = skews.get(victim, 0) + skew
        return
    links = tuple(
        sorted(_link_id(a, b) for a, b in block.get("links", []))
    )
    window = {
        "links": links,
        "start_us": block.get("start_us", 0),
        "end_us": block.get("end_us"),
    }
    if kind == "duplicate":
        windows.append(
            LinkFaultWindow("duplicate", probability=block["probability"], **window)
        )
    elif kind == "reorder":
        windows.append(
            LinkFaultWindow(
                "reorder",
                probability=block["probability"],
                magnitude_us=block.get("magnitude_us", 2_000),
                **window,
            )
        )
    elif kind == "gray":
        windows.append(LinkFaultWindow("gray", loss=block["loss"], **window))
    else:  # pragma: no cover - schema rejects unknown kinds
        raise ValueError(f"unknown fault kind {kind!r}")


def compile_document(doc: Dict[str, Any]) -> Scenario:
    """Compile one *validated* document into a :class:`Scenario`.

    Validation is the loader's job (:func:`load_scenario_file` runs it);
    feeding an unvalidated document here trades file:line diagnostics
    for whatever exception falls out first.
    """
    name = doc["name"]
    topo_block = doc["topology"]
    family = topo_block["family"]
    event_blocks: List[Dict[str, Any]] = list(doc.get("events") or ())
    fault_blocks: List[Dict[str, Any]] = list(doc.get("faults") or ())

    sizer: Optional[Callable[[int], Scenario]] = None
    if family == "waxman":
        nodes = topo_block["nodes"]
        topology = waxman_family(f"chaos-{name}", nodes)
        base_nodes = nodes
    elif family == "ba":
        nodes = topo_block["nodes"]
        topology = _ba_family(f"chaos-{name}", nodes)
        base_nodes = nodes
    elif family == "diamond":
        topology = _diamond_topology
        base_nodes = 4
    else:  # rocketfuel
        map_name = topo_block["map"]
        topology = lambda seed: rocketfuel_topology(map_name)  # noqa: E731
        base_nodes = None

    if family in ("waxman", "ba"):
        def sizer(n: int) -> Scenario:
            sized = dict(doc)
            sized["topology"] = dict(topo_block, nodes=n)
            return compile_document(sized)

    def schedule(graph: TopologyGraph, seed: int) -> EventSchedule:
        parts = [
            _compile_event_block(name, i, block, graph, seed)
            for i, block in enumerate(event_blocks)
        ]
        if not parts:
            return EventSchedule()
        if len(parts) == 1:
            return parts[0]
        return parts[0].merged(*parts[1:])

    tuning: Optional[Callable[[TopologyGraph, int], NetworkTuning]] = None
    if fault_blocks:
        def tuning(graph: TopologyGraph, seed: int) -> NetworkTuning:
            skews: Dict[str, int] = {}
            windows: List[LinkFaultWindow] = []
            for i, block in enumerate(fault_blocks):
                _compile_fault_block(name, i, block, graph, seed, skews, windows)
            return NetworkTuning(
                clock_skew_us=tuple(sorted(skews.items())),
                link_faults=tuple(windows),
            )

    has_gray = any(block.get("kind") == "gray" for block in fault_blocks)
    modes: Tuple[str, ...] = tuple(doc.get("modes") or ())
    if not modes:
        modes = ("vanilla",) if has_gray else DEFAULT_MODES

    expect_block = doc.get("expect") or {}
    predicates = []
    if expect_block.get("links_healed"):
        predicates.append(_expect_all_links_healed)
    if expect_block.get("nodes_up"):
        predicates.append(_expect_all_nodes_up)
    if "damping" in expect_block:
        damping = expect_block["damping"]
        predicates.append(_expect_damping(
            min_suppressed=damping.get("min_suppressed"),
            released_by_end=damping.get("released_by_end"),
        ))
    expect = None
    if predicates:
        def expect(result) -> bool:
            return all(predicate(result) for predicate in predicates)

    kwargs: Dict[str, Any] = {}
    for knob in ("jitter_us", "ordering", "settle_us", "tail_us"):
        if knob in doc:
            kwargs[knob] = doc[knob]
    return Scenario(
        name=name,
        description=doc.get(
            "description", f"chaos scenario {name!r} ({family} topology)"
        ),
        topology=topology,
        schedule=schedule,
        expect=expect,
        modes=modes,
        tuning=tuning,
        base_nodes=base_nodes,
        sizer=sizer,
        **kwargs,
    )


#: Compiled-scenario cache keyed on absolute path; invalidated when the
#: file's (mtime, size) changes, so edits recompile without a restart.
_FILE_CACHE: Dict[str, Tuple[Tuple[int, int], Scenario]] = {}


def load_scenario_file(path: str) -> Scenario:
    """Validate + compile a scenario file, with mtime-keyed caching.

    Raises :class:`ScenarioFileError` carrying ``path:line:col`` pointers
    when the document does not validate.
    """
    abspath = os.path.abspath(path)
    try:
        stat = os.stat(abspath)
    except OSError as exc:
        raise ScenarioFileError(
            path, validate_file(path)
        ) from exc
    stamp = (stat.st_mtime_ns, stat.st_size)
    cached = _FILE_CACHE.get(abspath)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    issues = validate_file(path)
    if issues:
        raise ScenarioFileError(path, issues)
    doc, _marks = parse_file(path)
    scenario = compile_document(doc)
    _FILE_CACHE[abspath] = (stamp, scenario)
    return scenario
