"""Scenario-sweep subsystem: diverse failure environments, checked in bulk.

The paper's evaluation runs one recorded workload through the vanilla,
DEFINED-RB and DEFINED-LS stacks and compares bit-for-bit fingerprints.
This module scales that methodology from two hand-built case studies to a
whole *grid*:

* a :class:`Scenario` descriptor bundles everything one failure
  environment needs -- a topology factory, an external-event schedule
  factory, an optional daemon factory and an expected-outcome predicate
  -- with every random choice derived from the cell's seed, so a grid
  cell is a pure function of ``(scenario, seed, mode)``;
* the builtin catalogue (:data:`repro.scenarios.BUILTINS`, read through
  :func:`get_scenario`) names the scenarios the spec grammar cannot
  derive, so grid cells stay picklable and the CLI can address them;
  :func:`default_grid` is the grid a sweep runs when none is named;
* :func:`run_scenario` is the one path from a scenario to a production
  run, for grid cells and the paper's case studies alike;
* a family of parameterized fault-injection generators synthesizes
  link-flap storms, node crash/restarts, network partitions,
  link-latency jitter and DDoS-overload variants (the last built on the
  stop-and-wait :mod:`repro.baselines.ddos` stack);
* :class:`SweepRunner` shards the scenario x seed x mode grid across
  cores on the supervised worker pool (:mod:`repro.supervise`) -- each
  worker builds its own :class:`~repro.simnet.engine.Simulator`, so
  per-run determinism is untouched -- and aggregates a
  divergence/determinism report, verifying the Theorem-1 invariant
  (``replay.fingerprint == defined.fingerprint``) for every DEFINED cell;
* :func:`compose` overlays any scenarios into a new one
  (merged schedules on seed-split RNG streams, widest topology, AND-ed
  expectations, mode intersection), so every pair of scenarios is itself
  a scenario -- ``partition`` during a ``flap-storm``, a crash in the
  middle of a ``ddos-overload`` burst;
* :func:`jittered` wraps any scenario in the **boundary-jitter fuzzer**:
  every external event is snapped onto a beacon-group boundary +/- a few
  seed-derived microseconds, the exact regime where group tagging,
  per-group ordering and anti-message retraction hand off;
* :func:`fuzz_grid` names a jittered grid (scenario x jitter) for
  :class:`SweepRunner`, and :func:`shrink_failure` shrinks a failing
  report to the smallest failing (scenario, seed, jitter) triple.

Composed, sized and jittered scenarios are addressable *by name*
(``a+b``, ``a@40``, ``a~j2us``; the grammar is :class:`_Spec`'s) over
the seven builtins that no spec derives (:mod:`repro.scenarios`) and
chaos/v1 files (:mod:`repro.chaos`), which is how a custom scenario is
written.  The catalogue is a constant, so name resolution is a pure
function of the name and the files it reads, and the names travel to
worker processes regardless of the multiprocessing start method.

Two scale-out mechanisms round the grid machinery out:

* ``SweepRunner(..., repeats=K)`` is the **seed-invariance probe**: each
  ``(scenario, seed, mode)`` cell is re-run under ``K`` seed-split
  *jitter seeds* -- same topology, same external schedule, different
  network timing -- and for the deterministic modes (``defined``,
  ``ddos``) the ``K`` fingerprints must collapse to one.  A split is a
  first-class divergence (:meth:`SweepReport.invariance_splits`).
* with ``workers > 1`` results stream back through a bounded
  :mod:`multiprocessing.shared_memory` ring
  (:mod:`repro.sweep_stream`), so 1000+-cell grids report progress live
  and the parent's result-transport memory stays flat.

Every grid executes under one :class:`~repro.supervise.SupervisionPolicy`
(no deadline and the default retry budget unless the caller says
otherwise): a worker that dies costs its one cell a retry -- and, past
the budget, quarantine -- never the rest of the grid.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import time
import zlib
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.report import render_matrix, render_table
from repro.core.history import WindowHeadroomStats
from repro.harness import (
    ProductionResult,
    ReplayResult,
    burst_schedule,
    flappable_links,
    run_ls_replay,
    run_production,
)
from repro.simnet.engine import SECOND
from repro.simnet.events import (
    LINK_DOWN,
    LINK_UP,
    NODE_DOWN,
    NODE_UP,
    EventSchedule,
    ExternalEvent,
)
from repro.simnet.faults import NetworkTuning
from repro.simnet.network import DEFAULT_TIME_UNIT_US
from repro.topology import TopologyGraph, waxman_family

TopologyFactory = Callable[[int], TopologyGraph]
ScheduleFactory = Callable[[TopologyGraph, int], EventSchedule]
DaemonBuilder = Callable[[TopologyGraph], Optional[Callable]]
ExpectPredicate = Callable[[ProductionResult], bool]
TuningFactory = Callable[[TopologyGraph, int], NetworkTuning]

#: Every mode the harness builds (:func:`repro.harness.run_production`).
#: :class:`SweepRunner` rejects any other name.
MODES: Tuple[str, ...] = ("vanilla", "defined", "ddos", "logging")

#: Modes a scenario runs in by default.  ``defined`` cells additionally
#: run a DEFINED-LS replay and check the Theorem-1 invariant.
DEFAULT_MODES: Tuple[str, ...] = ("vanilla", "defined")

#: Modes that guarantee timing-independent execution: the same workload
#: must produce the same fingerprint under *any* jitter seed.  The
#: seed-invariance probe (``repeats > 1``) only demands fingerprint
#: collapse in these modes.
DETERMINISTIC_MODES: Tuple[str, ...] = ("defined", "ddos")


@dataclass(frozen=True)
class Scenario:
    """One reproducible failure environment.

    Everything is a factory taking the cell seed, so the same descriptor
    yields a *family* of concrete environments -- same failure shape,
    different topologies/timings -- while each cell stays a deterministic
    function of its seed.
    """

    name: str
    description: str
    topology: TopologyFactory
    schedule: ScheduleFactory
    #: Builds a per-node daemon factory for a concrete topology; ``None``
    #: falls back to the harness's OSPF daemon.
    daemon: Optional[DaemonBuilder] = None
    #: Scenario-level sanity predicate over the finished run (outcome
    #: shape, not determinism -- the runner checks determinism itself).
    expect: Optional[ExpectPredicate] = None
    #: The modes a sweep runs this scenario in unless told otherwise;
    #: any of :data:`MODES` may be asked for.
    modes: Tuple[str, ...] = DEFAULT_MODES
    jitter_us: int = 200
    ordering: str = "OO"
    settle_us: int = 3 * SECOND
    tail_us: int = 2 * SECOND
    #: Optional continuous-perturbation factory (chaos DSL fault
    #: families): maps the concrete topology and the *workload* seed to a
    #: :class:`~repro.simnet.faults.NetworkTuning` (per-node clock skew,
    #: link-layer duplication/reordering, gray loss) installed on the
    #: production network before boot.  Keyed on the workload seed -- not
    #: the jitter seed -- so the perturbation *configuration* is part of
    #: the workload and the seed-invariance probe varies only its timing
    #: draws.
    tuning: Optional[TuningFactory] = None
    #: Nominal node count of ``topology`` (None: unknown / not meaningful).
    base_nodes: Optional[int] = None
    #: Size-parameterization hook: maps a node count to a re-scaled
    #: scenario of the same family (topology re-based to ``n`` nodes,
    #: schedule event counts scaled proportionally).  Installed by the
    #: scenario-family constructors; ``None`` means :meth:`sized` refuses
    #: (the paper case studies are bound to their fixed topologies), and
    #: a sized variant's sizer refuses to size it again.
    sizer: Optional[Callable[[int], "Scenario"]] = None

    def sized(self, n: int) -> "Scenario":
        """Derive the ``n``-node variant of this scenario (``name@N``).

        The sizer re-builds the family at ``n`` nodes -- topology factory
        re-scaled, schedule event counts scaled proportionally to
        ``n / base_nodes`` -- and the derived schedule runs on a
        seed-split RNG stream keyed on the sized name, so every size is
        an independent, deterministic function of the cell seed.
        """
        if self.sizer is None:
            raise ValueError(
                f"scenario {self.name!r} is not size-parameterized: it is "
                "bound to a fixed topology (no sizer hook)"
            )
        if n < 2:
            raise ValueError("sized() needs at least two nodes")
        derived = self.sizer(n)
        if derived.name != self.name:
            # compositions and jitter wrappers re-derive from their sized
            # components, so the result already carries its canonical
            # name ("a@N+b@N", "a@N~jJus") and the matching seed-split
            # streams ("(a+b)@N" is the same scenario as "a@N+b@N")
            return derived
        sized_name = f"{self.name}@{n}"
        base_schedule = derived.schedule

        def refuse(n: int) -> "Scenario":
            raise ValueError(
                f"scenario {sized_name!r} is already size-parameterized; "
                "derive sizes from the base scenario"
            )

        def schedule(graph: TopologyGraph, seed: int) -> EventSchedule:
            return base_schedule(graph, seed_split(seed, sized_name))

        return replace(
            derived,
            name=sized_name,
            description=f"{derived.description} [sized to {n} nodes]",
            schedule=schedule,
            base_nodes=n,
            sizer=refuse,
        )


# ----------------------------------------------------------------------
# the builtin catalogue
# ----------------------------------------------------------------------

_BUILTINS: Dict[str, Scenario] = {}


def _builtins() -> Dict[str, Scenario]:
    """:data:`repro.scenarios.BUILTINS` by name, loaded on first use
    (:mod:`repro.scenarios` imports this module)."""
    if not _BUILTINS:
        from repro.scenarios import BUILTINS

        _BUILTINS.update((scenario.name, scenario) for scenario in BUILTINS)
    return _BUILTINS


#: ``name~j<N>us`` -- the boundary-jitter suffix.
_JITTER_SUFFIX = re.compile(r"^(?P<base>.+)~j(?P<us>\d+)us$")

#: ``name@<N>`` -- the size suffix.
_SIZE_SUFFIX = re.compile(r"^(?P<base>.+)@(?P<n>\d+)$")

#: ``(a+b)`` / ``(a+b)@<N>`` -- an explicitly grouped composition.
_PAREN_SPEC = re.compile(r"^\((?P<base>[^()]+)\)(?:@(?P<n>\d+))?$")

#: Cache for dynamically resolved (composed / sized / jittered)
#: scenarios.
_DYNAMIC_CACHE: Dict[str, Scenario] = {}

#: Scenario-file components (chaos DSL documents) are recognized by
#: extension anywhere a scenario name is accepted.  Paths containing
#: ``+`` are unsupported -- ``+`` is the composition operator.
_SCENARIO_FILE_SUFFIXES = (".yaml", ".yml", ".json")


def _is_scenario_file(name: str) -> bool:
    return name.endswith(_SCENARIO_FILE_SUFFIXES)


def _load_scenario_file(path: str) -> Scenario:
    """Compile a chaos DSL document into a :class:`Scenario`.

    Deferred import: :mod:`repro.chaos` imports this module for the
    Scenario/seed_split machinery, so the dependency must stay one-way at
    import time.  The loader caches on ``(path, mtime, size)``, which is
    why file components bypass :data:`_DYNAMIC_CACHE` -- an edited file
    must recompile.
    """
    from repro.chaos import load_scenario_file

    return load_scenario_file(path)


@dataclass(frozen=True)
class _Component:
    """One component of a :class:`_Spec`: ``name[@N][~jJus]``."""

    name: str
    size: Optional[int] = None
    jitter: Optional[int] = None

    @classmethod
    def parse(cls, text: str) -> "_Component":
        base, jitter = _Spec.split_jitter(text)
        size = None
        match = _SIZE_SUFFIX.match(base)
        if match:
            if _JITTER_SUFFIX.match(match.group("base")):
                raise ValueError(
                    f"component {text!r}: the size binds inside the jitter "
                    "suffix -- write 'name@N~jJus', not 'name~jJus@N'"
                )
            if _SIZE_SUFFIX.match(match.group("base")):
                raise ValueError(
                    f"component {text!r} already carries a size; cannot re-size"
                )
            base, size = match.group("base"), int(match.group("n"))
        builtins = _builtins()
        if base not in builtins and base.replace("_", "-") in builtins:
            base = base.replace("_", "-")
        return cls(base, size, jitter)

    def __str__(self) -> str:
        text = self.name if self.size is None else f"{self.name}@{self.size}"
        return _Spec.jitter_name(text, self.jitter)

    def resolve(self) -> Optional[Scenario]:
        if _is_scenario_file(self.name):
            scenario = _load_scenario_file(self.name)
        elif self.name in _builtins():
            scenario = _builtins()[self.name]
        else:
            return None
        if self.size is not None:
            scenario = scenario.sized(self.size)
        if self.jitter is not None:
            scenario = jittered(scenario, self.jitter)
        return scenario


@dataclass(frozen=True)
class _Spec:
    """A parsed scenario spec: its components and whole-spec jitter.

    The one statement of the grammar::

        spec  := body [jit]
        body  := comps | '(' comps ')' ['@' N]
        comps := comp ('+' comp)*
        comp  := name ['@' N] [jit]
        jit   := '~j' J 'us'

    * ``+`` composes (:func:`compose`), ``@N`` sizes
      (:meth:`Scenario.sized`), ``~jJus`` applies boundary jitter
      (:func:`jittered`);
    * ``(a+b)@N`` sizes every component inside its own jitter: it is
      ``a@N+b@N``;
    * a trailing jitter suffix covers the whole spec (``a+b~j1us``), except
      that on an unparenthesised body in which another component carries
      its own jitter it binds to the last component (``a~j1us+b~j5us``);
      after parens it always covers the whole spec
      (``(a~j1us+b)~j5us``);
    * ``name`` is any text without ``+`` (nor parens, inside parens):
      a builtin scenario (an underscore alias parses to the builtin
      spelling) or a chaos/v1 file path; unknown names parse and fail
      to resolve.

    Parse errors: stacked jitter on one target (``a~j1us~j2us``,
    ``(a~j1us)~j2us``), a size after a jitter suffix (``a~j1us@20``) and
    re-sizing a sized component (``a@20@40``, ``(a@20+b)@40``).

    ``str(spec)`` is the canonical name, and :meth:`resolve` gives the
    scenario that name: parens appear only where they change the
    meaning (``(a+b~j1us)`` jitters ``b`` alone, ``a+b~j1us`` the whole
    composition).  A one-component spec keeps its jitter in
    :attr:`jitter`.
    """

    comps: Tuple[_Component, ...]
    jitter: Optional[int] = None

    @classmethod
    def parse(cls, text: str) -> "_Spec":
        body, jitter = cls.split_jitter(text)
        paren = _PAREN_SPEC.match(body)
        if paren:
            body = paren.group("base")
        spec = cls(tuple(_Component.parse(part) for part in body.split("+")))
        if paren and paren.group("n"):
            spec = spec.sized(int(paren.group("n")))
        comps = list(spec.comps)
        if jitter is not None and not paren and any(
            comp.jitter is not None for comp in comps
        ):
            # the mixed form "a~j1us+b~j5us"
            comps[-1], jitter = replace(comps[-1], jitter=jitter), None
        if len(comps) == 1 and comps[0].jitter is not None:
            # "(a~j1us)" is "a~j1us": one target, so one jitter
            if jitter is not None:
                raise cls._stacked(text)
            comps[0], jitter = replace(comps[0], jitter=None), comps[0].jitter
        return cls(tuple(comps), jitter)

    @classmethod
    def split_jitter(cls, text: str) -> Tuple[str, Optional[int]]:
        """Strip one trailing jitter suffix; reject a stacked one."""
        match = _JITTER_SUFFIX.match(text)
        if match is None:
            return text, None
        if _JITTER_SUFFIX.match(match.group("base")):
            raise cls._stacked(text)
        return match.group("base"), int(match.group("us"))

    @staticmethod
    def _stacked(text: str) -> ValueError:
        return ValueError(
            f"{text!r} stacks more than one ~j<N>us jitter suffix on the "
            "same target; jitter binds per component (a~j1us+b~j5us) or "
            "once over the whole composition ((a+b)~j1us), never twice"
        )

    @staticmethod
    def join(names: Sequence[str]) -> str:
        """Compose component names.  When only the last one carries
        jitter, parens keep that jitter on it: ``a+b~j1us`` would read
        as whole-composition jitter."""
        body = "+".join(names)
        jittered = [bool(_JITTER_SUFFIX.match(name)) for name in names]
        if len(names) > 1 and jittered[-1] and not any(jittered[:-1]):
            return f"({body})"
        return body

    @staticmethod
    def jitter_name(body: str, jitter_us: Optional[int]) -> str:
        """``body`` under ``jitter_us`` of boundary jitter; a body that
        carries jitter of its own is parenthesised, so the suffix reads
        as whole-spec jitter."""
        if jitter_us is None:
            return body
        if "~j" in body and not (body.startswith("(") and body.endswith(")")):
            body = f"({body})"
        return f"{body}~j{jitter_us}us"

    def __str__(self) -> str:
        body = self.join([str(comp) for comp in self.comps])
        return self.jitter_name(body, self.jitter)

    def sized(self, n: int) -> "_Spec":
        """Every component at ``n`` nodes (inside its own jitter)."""
        for comp in self.comps:
            if comp.size is not None:
                raise ValueError(
                    f"component {str(comp)!r} already carries a size; "
                    "cannot re-size"
                )
        return replace(self, comps=tuple(replace(c, size=n) for c in self.comps))

    def rejittered(self, jitter_us: Optional[int]) -> "_Spec":
        """The spec under ``jitter_us`` of whole-spec boundary jitter,
        replacing any it had (``None`` removes it)."""
        return replace(self, jitter=jitter_us)

    @classmethod
    def fuzz_axes(cls, text: str) -> Tuple[str, int]:
        """``text`` on a fuzz grid's two axes: the canonical spec without
        its whole-spec jitter, and that jitter (0 when it has none)."""
        spec = cls.parse(text)
        return str(spec.rejittered(None)), spec.jitter or 0

    def resolve(self) -> Optional[Scenario]:
        """The scenario this spec names; ``None`` for an unknown name."""
        parts = []
        for comp in self.comps:
            scenario = comp.resolve()
            if scenario is None:
                return None
            parts.append(scenario)
        scenario = compose(*parts) if len(parts) > 1 else parts[0]
        if self.jitter is not None:
            scenario = jittered(scenario, self.jitter)
        return scenario


def canonical_scenario_name(name: str) -> str:
    """The canonical spelling of a scenario spec (see :class:`_Spec`):
    builtin component spellings, suffixes kept, parens only where
    they change the meaning.  Unknown names pass through, so they fail
    later with the full lookup error; parse errors raise here."""
    return str(_Spec.parse(name))


def sized_spec(name: str, n: int) -> str:
    """The canonical spec with every component at ``n`` nodes:
    ``sized_spec("flap_storm+partition~j2us", 40)`` is
    ``"flap-storm@40+partition@40~j2us"``.  A component that already
    carries a size is rejected (re-sizing would be ambiguous)."""
    return str(_Spec.parse(name).sized(n))


def _grid_specs(
    names: Sequence[str],
    sizes: Optional[Sequence[int]] = None,
    boundary_jitter_us: Optional[int] = None,
) -> List[str]:
    """Canonical grid names: each spec at each of ``sizes`` (if any),
    under ``boundary_jitter_us`` of whole-spec jitter (if given, replacing
    any the spec had), deduplicated in order."""
    specs = [_Spec.parse(name) for name in names]
    if sizes:
        specs = [spec.sized(n) for spec in specs for n in sizes]
    if boundary_jitter_us is not None:
        specs = [spec.rejittered(boundary_jitter_us) for spec in specs]
    return list(dict.fromkeys(str(spec) for spec in specs))


def get_scenario(name: str) -> Scenario:
    """Look up a builtin scenario or a chaos DSL file
    (``.yaml`` / ``.yml`` / ``.json``, :mod:`repro.chaos`), or resolve
    a spec over them (:class:`_Spec`: ``a+b``, ``a@40``, ``a~j1us``,
    ``examples/skew.yaml@20~j1us``).  The catalogue is a constant, so
    every process resolves a name to the same scenario, whatever the
    multiprocessing start method."""
    builtins = _builtins()
    if name in builtins:
        return builtins[name]
    if _is_scenario_file(name):
        return _load_scenario_file(name)
    scenario = _DYNAMIC_CACHE.get(name)
    if scenario is not None:
        return scenario
    spec = _Spec.parse(name)
    scenario = spec.resolve()
    if scenario is None:
        raise KeyError(
            f"unknown scenario {name!r}; builtins: {scenario_names()} "
            "(or compose with 'a+b', size with 'a@<N>', fuzz with 'a~j<N>us')"
        )
    if not any(_is_scenario_file(comp.name) for comp in spec.comps):
        # file components recompile when the file changes (the loader
        # caches on mtime); memoizing them here would pin the first parse
        _DYNAMIC_CACHE[name] = scenario
    return scenario


def scenario_names() -> List[str]:
    """The builtin scenario names, without the specs derived from them."""
    return sorted(_builtins())


def default_grid() -> List[str]:
    """The default sweep grid: every builtin scenario, the builtin
    compositions (:data:`repro.scenarios.COMPOSITIONS`), and each builtin
    and composition under 1 us of boundary jitter.  Sizes (``name@N``)
    opt in by name: an 80-node cell runs for minutes."""
    from repro.scenarios import COMPOSITIONS

    names = [*_builtins(), *COMPOSITIONS]
    jittered_specs = [str(_Spec.parse(name).rejittered(1)) for name in names]
    return sorted({*names, *jittered_specs})


# ----------------------------------------------------------------------
# scenario composition and the boundary-jitter fuzzer
# ----------------------------------------------------------------------

def seed_split(seed: int, tag: str) -> int:
    """Derive an independent child seed from ``(seed, tag)``.

    Composition overlays several generators that may share RNG tags (two
    flap storms on the same graph, say); splitting the cell seed per
    component keeps their streams independent while the whole cell stays
    a pure function of its seed.  ``zlib.crc32`` rather than ``hash()``:
    the latter is salted per process and would desynchronize workers.
    """
    return zlib.crc32(f"{tag}|{seed}".encode()) & 0x7FFFFFFF


def compose(*comps: Scenario) -> Scenario:
    """Overlay two or more scenarios into one composed scenario.

    * **schedule**: each component's schedule is built with a seed-split
      RNG stream (:func:`seed_split` over the composed name and component
      index), then merged via :meth:`EventSchedule.merged`;
    * **topology**: widest-topology resolution -- per seed, every
      component's topology is built and the one with the most nodes (then
      edges) hosts the composition, so every component's fault generator
      has room to act;
    * **expect**: the AND of every component predicate;
    * **modes**: the intersection, in the first component's order (a
      component with a restricted mode list narrows the composition);
    * **knobs**: most adversarial wins -- max ``jitter_us``, min
      ``settle_us``, max ``tail_us``.

    Scenarios with custom daemons (the paper case studies) are not
    composable: their daemons close over their own fixed topologies.
    """
    if len(comps) < 2:
        raise ValueError("compose() needs at least two scenarios")
    for comp in comps:
        if comp.daemon is not None:
            raise ValueError(
                f"scenario {comp.name!r} declares a custom daemon bound to "
                "its own topology and cannot be composed"
            )
    orderings = {comp.ordering for comp in comps}
    if len(orderings) > 1:
        raise ValueError(f"components disagree on ordering: {sorted(orderings)}")
    modes = tuple(
        m for m in comps[0].modes if all(m in c.modes for c in comps[1:])
    )
    if not modes:
        raise ValueError(
            "composed scenarios share no modes: "
            + "; ".join(f"{c.name}={c.modes}" for c in comps)
        )
    composed_name = _Spec.join([c.name for c in comps])

    def topology(seed: int) -> TopologyGraph:
        graphs = [c.topology(seed) for c in comps]
        return max(graphs, key=lambda g: (g.node_count(), g.edge_count()))

    def schedule(graph: TopologyGraph, seed: int) -> EventSchedule:
        parts = [
            comp.schedule(graph, seed_split(seed, f"{composed_name}#{i}:{comp.name}"))
            for i, comp in enumerate(comps)
        ]
        return parts[0].merged(*parts[1:])

    predicates = [c.expect for c in comps if c.expect is not None]

    def expect(result: ProductionResult) -> bool:
        return all(predicate(result) for predicate in predicates)

    # continuous perturbations merge like schedules: each component
    # builds its tuning on the same seed-split stream its schedule uses,
    # then skews sum per node and fault windows concatenate
    tuning_comps = [(i, c) for i, c in enumerate(comps) if c.tuning is not None]
    tuning: Optional[TuningFactory] = None
    if tuning_comps:
        def tuning(graph: TopologyGraph, seed: int) -> NetworkTuning:
            merged = NetworkTuning()
            for i, comp in tuning_comps:
                merged = merged.merged(
                    comp.tuning(
                        graph, seed_split(seed, f"{composed_name}#{i}:{comp.name}")
                    )
                )
            return merged

    # size-parameterized iff every component is: "(a+b)@N" re-composes
    # the components' own sized variants, so it resolves to exactly the
    # same scenario as "a@N+b@N" (same canonical name, same seed-split
    # schedule streams)
    sizer: Optional[Callable[[int], Scenario]] = None
    if all(c.sizer is not None for c in comps):
        def sizer(n: int) -> Scenario:
            return compose(*(c.sized(n) for c in comps))

    return Scenario(
        name=composed_name,
        description="composed: " + " + ".join(c.description for c in comps),
        topology=topology,
        schedule=schedule,
        expect=expect if predicates else None,
        modes=modes,
        tuning=tuning,
        jitter_us=max(c.jitter_us for c in comps),
        ordering=comps[0].ordering,
        settle_us=min(c.settle_us for c in comps),
        tail_us=max(c.tail_us for c in comps),
        sizer=sizer,
    )


def jittered(scenario: Scenario, jitter_us: int) -> Scenario:
    """The boundary-jitter fuzzer: ``scenario`` with every external event
    snapped onto a beacon-group boundary (one virtual-time unit,
    :data:`~repro.simnet.network.DEFAULT_TIME_UNIT_US`) +/- ``jitter_us``
    of seed-derived jitter (see :meth:`EventSchedule.boundary_jittered`).

    Group boundaries are where external-event tagging, the per-group
    ordering function and anti-message retraction hand off, so this is
    the adversarial placement for the DEFINED machinery; Theorem 1 must
    hold regardless.
    """
    fuzz_name = _Spec.jitter_name(scenario.name, jitter_us)
    base_schedule = scenario.schedule

    def schedule(graph: TopologyGraph, seed: int) -> EventSchedule:
        return base_schedule(graph, seed).boundary_jittered(
            DEFAULT_TIME_UNIT_US,
            seed_split(seed, fuzz_name),
            jitter_us=jitter_us,
            tag=f"fuzz|{fuzz_name}",
        )

    # sizing happens *inside* the jitter wrapper: "a~j1us" sizes to
    # "a@20~j1us" by sizing the base and re-wrapping, so the grammar is
    # closed under @N and a sized jittered spec can never silently
    # resolve to an unjittered scenario
    sizer: Optional[Callable[[int], Scenario]] = None
    if scenario.sizer is not None:
        def sizer(n: int) -> Scenario:
            return jittered(scenario.sized(n), jitter_us)

    return replace(
        scenario,
        name=fuzz_name,
        description=(
            f"{scenario.name} with events snapped to beacon-group "
            f"boundaries +/-{jitter_us}us"
        ),
        schedule=schedule,
        sizer=sizer,
    )


# ----------------------------------------------------------------------
# fault-injection generators (each a deterministic function of its seed)
# ----------------------------------------------------------------------

def _rng(tag: str, seed: int) -> random.Random:
    return random.Random(f"sweep|{tag}|{seed}")


def flap_storm_schedule(
    graph: TopologyGraph,
    seed: int,
    n_flaps: int = 4,
    start_us: int = 4 * SECOND + 97_000,
    min_hold_us: int = SECOND // 2,
    max_hold_us: int = 3 * SECOND,
    gap_us: int = SECOND + 217_000,
    links: Optional[Sequence[Tuple[str, str]]] = None,
) -> EventSchedule:
    """A storm of independent link flaps; every link heals by the end.

    Victims are drawn per flap from ``links`` when given (an explicit
    target list, validated against the graph -- how damping scenarios
    concentrate a storm on one known link) or from the flappable set
    otherwise.  Hold times and gaps stay seed-drawn either way.
    """
    rng = _rng(f"flap|{graph.name}", seed)
    if links is not None:
        chosen = [tuple(link) for link in links]
        for a, b in chosen:
            if not any(
                (a, b) == (x, y) or (a, b) == (y, x) for x, y, _d in graph.edges
            ):
                raise ValueError(
                    f"flap storm names a link not in {graph.name}: {a}-{b}"
                )
        links = sorted(chosen)
    else:
        links = flappable_links(graph)
    if not links:
        raise ValueError(f"topology {graph.name} has no flappable links")
    schedule = EventSchedule()
    t = start_us
    for _ in range(n_flaps):
        link = links[rng.randrange(len(links))]
        hold = rng.randrange(min_hold_us, max_hold_us)
        schedule.add(ExternalEvent(time_us=t, kind=LINK_DOWN, target=link))
        schedule.add(ExternalEvent(time_us=t + hold, kind=LINK_UP, target=link))
        t += gap_us + rng.randrange(0, 311_000)
    return schedule


def crash_restart_schedule(
    graph: TopologyGraph,
    seed: int,
    n_crashes: int = 1,
    start_us: int = 4 * SECOND + 211_000,
    down_for_us: int = 3 * SECOND,
    gap_us: int = 5 * SECOND,
    nodes: Optional[Sequence[str]] = None,
) -> EventSchedule:
    """Routers die and come back: a ``node_down`` / ``node_up`` cycle per
    victim, victims drawn deterministically from the seed -- from an
    explicit ``nodes`` target list when given, the whole graph
    otherwise."""
    rng = _rng(f"crash|{graph.name}", seed)
    if nodes is not None:
        victims_pool = sorted(nodes)
        unknown = [node for node in victims_pool if node not in graph.nodes]
        if unknown:
            raise ValueError(
                f"crash/restart names nodes not in {graph.name}: {unknown}"
            )
        nodes = victims_pool
    else:
        nodes = sorted(graph.nodes)
    schedule = EventSchedule()
    t = start_us
    for _ in range(n_crashes):
        victim = nodes[rng.randrange(len(nodes))]
        schedule.add(ExternalEvent(time_us=t, kind=NODE_DOWN, target=victim))
        schedule.add(
            ExternalEvent(time_us=t + down_for_us, kind=NODE_UP, target=victim)
        )
        t += gap_us + rng.randrange(0, 293_000)
    return schedule


def partition_schedule(
    graph: TopologyGraph,
    seed: int,
    at_us: int = 4 * SECOND + 157_000,
    heal_after_us: int = 4 * SECOND,
) -> EventSchedule:
    """Cut the network into two halves, then heal it.

    A random bipartition (seed-derived) selects one side; every crossing
    link goes down at ``at_us`` and comes back ``heal_after_us`` later.
    """
    rng = _rng(f"partition|{graph.name}", seed)
    nodes = sorted(graph.nodes)
    if len(nodes) < 2:
        raise ValueError("cannot partition fewer than two nodes")
    side_size = rng.randrange(1, len(nodes))
    side = set(rng.sample(nodes, side_size))
    crossing = [
        (a, b) for a, b, _d in graph.edges if (a in side) != (b in side)
    ]
    schedule = EventSchedule()
    for link in crossing:
        schedule.add(ExternalEvent(time_us=at_us, kind=LINK_DOWN, target=link))
        schedule.add(
            ExternalEvent(time_us=at_us + heal_after_us, kind=LINK_UP, target=link)
        )
    return schedule


def zone_blackout_schedule(
    graph: TopologyGraph,
    seed: int,
    size: int = 2,
    nodes: Optional[Sequence[str]] = None,
    at_us: int = 4 * SECOND + 131_000,
    duration_us: int = 3 * SECOND,
) -> EventSchedule:
    """A correlated zone failure: several routers go dark *simultaneously*
    (shared power/cooling domain), then all restart together.

    Victims are either named explicitly or drawn seed-deterministically;
    at least one node always survives so the network keeps existing.
    """
    pool = sorted(graph.nodes)
    if nodes is not None:
        victims = sorted(nodes)
        unknown = [v for v in victims if v not in graph.nodes]
        if unknown:
            raise ValueError(
                f"zone blackout names nodes not in {graph.name}: {unknown}"
            )
        if len(victims) >= len(pool):
            raise ValueError("zone blackout must leave at least one node up")
    else:
        rng = _rng(f"zone|{graph.name}", seed)
        victims = sorted(rng.sample(pool, min(size, len(pool) - 1)))
    schedule = EventSchedule()
    for victim in victims:
        schedule.add(ExternalEvent(time_us=at_us, kind=NODE_DOWN, target=victim))
        schedule.add(
            ExternalEvent(time_us=at_us + duration_us, kind=NODE_UP, target=victim)
        )
    return schedule


def srlg_schedule(
    graph: TopologyGraph,
    seed: int,
    size: int = 2,
    links: Optional[Sequence[Tuple[str, str]]] = None,
    at_us: int = 4 * SECOND + 173_000,
    duration_us: int = 2 * SECOND,
) -> EventSchedule:
    """A shared-risk link group: several links fail *as one* (a common
    conduit cut) and are repaired together.

    The correlated simultaneous failure is the point -- independent flaps
    give each LSA wave time to converge, an SRLG cut does not.  Links are
    either named explicitly or drawn seed-deterministically from the
    flappable set (both endpoints keep degree >= 1).
    """
    if links is not None:
        group = [tuple(link) for link in links]
        for a, b in group:
            if not any(
                (a, b) == (x, y) or (a, b) == (y, x) for x, y, _d in graph.edges
            ):
                raise ValueError(f"SRLG names a link not in {graph.name}: {a}-{b}")
        group.sort()
    else:
        eligible = flappable_links(graph)
        if not eligible:
            raise ValueError(f"topology {graph.name} has no flappable links")
        rng = _rng(f"srlg|{graph.name}", seed)
        group = sorted(rng.sample(eligible, min(size, len(eligible))))
    schedule = EventSchedule()
    for link in group:
        schedule.add(ExternalEvent(time_us=at_us, kind=LINK_DOWN, target=link))
        schedule.add(
            ExternalEvent(time_us=at_us + duration_us, kind=LINK_UP, target=link)
        )
    return schedule


def ddos_overload_schedule(
    graph: TopologyGraph,
    seed: int,
    events_per_second: int = 8,
    n_events: int = 10,
    start_us: int = 4 * SECOND,
) -> EventSchedule:
    """An event-rate overload: a fixed-rate link-flap burst far above the
    normal workload, the regime where stop-and-wait delivery (the DDOS
    baseline stack) pays its worst-case holds."""
    return burst_schedule(
        graph, events_per_second, n_events, start_us=start_us, seed=seed
    )


# ----------------------------------------------------------------------
# builtin scenario families
# ----------------------------------------------------------------------

def _scale_count(base_count: int, base_nodes: int, n: int) -> int:
    """Scale a schedule event count proportionally with the node count."""
    return max(1, round(base_count * n / base_nodes))


def _diamond_topology(seed: int) -> TopologyGraph:
    """The fixed four-node diamond used by the determinism tests."""
    del seed
    return TopologyGraph(
        name="diamond",
        nodes=["a", "b", "c", "d"],
        edges=[
            ("a", "b", 2_000),
            ("b", "c", 3_000),
            ("c", "d", 2_500),
            ("a", "d", 4_000),
            ("b", "d", 3_500),
        ],
    )


def flap_storm_scenario(
    name: str = "flap-storm",
    nodes: int = 8,
    n_flaps: int = 4,
) -> Scenario:
    return Scenario(
        name=name,
        description=f"{n_flaps} randomized link flaps on a {nodes}-node Waxman graph",
        topology=waxman_family(name, nodes),
        schedule=lambda graph, seed: flap_storm_schedule(graph, seed, n_flaps=n_flaps),
        expect=_expect_all_links_healed,
        tail_us=3 * SECOND,
        base_nodes=nodes,
        sizer=lambda n: flap_storm_scenario(
            name=name, nodes=n, n_flaps=_scale_count(n_flaps, nodes, n)
        ),
    )


def crash_restart_scenario(
    name: str = "crash-restart",
    nodes: int = 6,
    n_crashes: int = 1,
) -> Scenario:
    return Scenario(
        name=name,
        description=f"{n_crashes} router crash/restart cycle(s) on a {nodes}-node Waxman graph",
        topology=waxman_family(name, nodes),
        schedule=lambda graph, seed: crash_restart_schedule(
            graph, seed, n_crashes=n_crashes
        ),
        expect=_expect_all_nodes_up,
        tail_us=3 * SECOND,
        base_nodes=nodes,
        sizer=lambda n: crash_restart_scenario(
            name=name, nodes=n, n_crashes=_scale_count(n_crashes, nodes, n)
        ),
    )


def partition_scenario(
    name: str = "partition",
    nodes: int = 8,
) -> Scenario:
    return Scenario(
        name=name,
        description=f"random bipartition + heal on a {nodes}-node Waxman graph",
        topology=waxman_family(name, nodes),
        schedule=partition_schedule,
        expect=_expect_all_links_healed,
        tail_us=3 * SECOND,
        base_nodes=nodes,
        # the cut scales with the topology itself: every crossing link of
        # a seed-derived bipartition flaps, however many there are
        sizer=lambda n: partition_scenario(name=name, nodes=n),
    )


#: Node count of the fixed diamond topology the delay-stress scenarios
#: default to; their sizers re-base onto Waxman graphs from here.
_DIAMOND_NODES = 4


def latency_jitter_scenario(
    name: str = "latency-jitter",
    jitter_us: int = 2_500,
    nodes: Optional[int] = None,
    n_flaps: int = 2,
) -> Scenario:
    """Heavy per-packet link jitter: stresses the delay-sensitive ordering
    into actual rollbacks while determinism must still hold.

    Defaults to the fixed diamond topology the determinism tests use;
    ``nodes`` (or :meth:`Scenario.sized`) re-bases it onto an ``n``-node
    Waxman graph with the flap count scaled proportionally.
    """
    return Scenario(
        name=name,
        description=(
            f"{n_flaps} link flap(s) under {jitter_us}us per-packet latency jitter"
            + (f" on a {nodes}-node Waxman graph" if nodes else "")
        ),
        topology=(
            _diamond_topology if nodes is None else waxman_family(name, nodes)
        ),
        schedule=lambda graph, seed: flap_storm_schedule(
            graph, seed, n_flaps=n_flaps,
            min_hold_us=2 * SECOND, max_hold_us=4 * SECOND,
        ),
        jitter_us=jitter_us,
        tail_us=3 * SECOND,
        base_nodes=nodes if nodes is not None else _DIAMOND_NODES,
        sizer=lambda n: latency_jitter_scenario(
            name=name, jitter_us=jitter_us, nodes=n,
            n_flaps=_scale_count(n_flaps, nodes or _DIAMOND_NODES, n),
        ),
    )


def ddos_overload_scenario(
    name: str = "ddos-overload",
    events_per_second: int = 8,
    n_events: int = 8,
    nodes: Optional[int] = None,
) -> Scenario:
    """Event-rate overload, also run through the stop-and-wait DDOS
    baseline stack (:mod:`repro.baselines.ddos`) to contrast blocking
    determinism with DEFINED-RB's speculation under load."""
    return Scenario(
        name=name,
        description=(
            f"{events_per_second}/s link-event burst; includes the DDOS "
            "stop-and-wait baseline mode"
            + (f" (on a {nodes}-node Waxman graph)" if nodes else "")
        ),
        topology=(
            _diamond_topology if nodes is None else waxman_family(name, nodes)
        ),
        schedule=lambda graph, seed: ddos_overload_schedule(
            graph, seed, events_per_second=events_per_second, n_events=n_events
        ),
        expect=_expect_all_links_healed,
        modes=("vanilla", "defined", "ddos"),
        tail_us=4 * SECOND,
        base_nodes=nodes if nodes is not None else _DIAMOND_NODES,
        sizer=lambda n: ddos_overload_scenario(
            name=name, events_per_second=events_per_second,
            n_events=_scale_count(n_events, nodes or _DIAMOND_NODES, n),
            nodes=n,
        ),
    )


def _expect_all_links_healed(result: ProductionResult) -> bool:
    return all(link.up for link in result.network.links.values())


def _expect_all_nodes_up(result: ProductionResult) -> bool:
    return all(node.up for node in result.network.nodes.values())


def _expect_damping(
    min_suppressed: Optional[int] = None,
    released_by_end: Optional[bool] = None,
) -> Callable[[ProductionResult], bool]:
    """Build a route-flap-damping expectation predicate.

    Replays the run's observed link-down transitions (one virtual-time
    unit per beacon interval) through a reference
    :class:`~repro.routing.damping.FlapDampener` at its paper defaults:

    * ``min_suppressed``: at least this many downs land while the link
      is suppressed -- pins that the storm is dense enough to trip
      damping at all;
    * ``released_by_end``: by run end the penalty has decayed below the
      reuse threshold on every link -- pins that the scenario's tail is
      long enough for suppression to release.

    The dampener is a pure function of the transition log, so the
    predicate is as deterministic as the run that produced it.
    """

    def predicate(result: ProductionResult) -> bool:
        from repro.routing.damping import FlapDampener

        network = result.network
        unit = network.time_unit_us
        dampener = FlapDampener()
        links_seen = set()
        suppressed_downs = 0
        for time_us, link_id, up in network.link_transitions:
            if up:
                continue
            links_seen.add(link_id)
            if dampener.flap(link_id, time_us // unit):
                suppressed_downs += 1
        if min_suppressed is not None and suppressed_downs < min_suppressed:
            return False
        if released_by_end:
            end_vt = network.sim.now // unit
            if any(dampener.poll(link_id, end_vt) for link_id in sorted(links_seen)):
                return False
        return True

    return predicate


# ----------------------------------------------------------------------
# grid cells and the worker (module-level, so it pickles)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    """One point of the grid: a pure function of these fields.

    ``seed`` drives the *workload* (topology + external schedule).
    ``jitter_seed``, when set, re-seeds only the network timing (link
    jitter, cost sampling) -- the seed-invariance probe runs the same
    workload under several jitter seeds and checks that deterministic
    modes collapse to one fingerprint.  ``repeat`` disambiguates the
    probe's re-executions in reports.

    ``window_us`` / ``jitter_us`` override the shim's history window and
    the scenario's per-packet delivery jitter for this one cell -- the
    two axes the window-envelope mapper (:mod:`repro.envelope`) grids
    over.  ``check_invariant=False`` skips the DEFINED-LS replay of a
    ``defined`` cell: envelope *mapping* cells run deliberately
    undersized windows where late deliveries forfeit determinism, so a
    Theorem-1 check would only measure the mis-configuration; the
    verification re-run at the suggested window turns it back on."""

    scenario: str
    seed: int
    mode: str
    repeat: int = 0
    jitter_seed: Optional[int] = None
    window_us: Optional[int] = None
    jitter_us: Optional[int] = None
    check_invariant: bool = True
    #: When set, a ``defined`` cell whose Theorem-1 check fails archives
    #: both executions as content-addressed run bundles in this
    #: directory (the production bundle embeds the recording, so the
    #: divergence is replayable offline with ``repro diff``).  Workers
    #: write the bundles themselves: the fixed-width result record
    #: cannot carry paths.
    artifact_dir: Optional[str] = None

    @property
    def network_seed(self) -> int:
        """The seed the simulated network's timing draws from."""
        return self.seed if self.jitter_seed is None else self.jitter_seed


#: Result fields that record how a cell was executed, not what it
#: computed.  :meth:`SweepReport.semantic_rows` leaves them out, so a
#: resumed or retried grid digests like an uninterrupted one.
PROVENANCE_FIELDS = ("wall_seconds", "attempts", "outcome")


@dataclass(frozen=True)
class CellResult:
    """The picklable outcome of one grid cell."""

    scenario: str
    seed: int
    mode: str
    repeat: int = 0
    #: Jitter seed the network timing actually ran under (None: same as
    #: ``seed``); carried so seed-invariance splits are attributable.
    jitter_seed: Optional[int] = None
    #: The cell's overrides, echoed back (None: scenario defaults) so
    #: envelope grids can group results by their (window, jitter) axes.
    window_us: Optional[int] = None
    jitter_us: Optional[int] = None
    fingerprint: str = ""
    replay_fingerprint: Optional[str] = None
    #: Theorem-1 check (``defined`` cells only): replay == production.
    invariant_ok: Optional[bool] = None
    #: Scenario-level expected-outcome predicate, when one is declared.
    expected_ok: Optional[bool] = None
    #: Deterministic-delivery check for instrumented modes: no ordering
    #: misses slipped through (late deliveries are rollback-repaired in
    #: ``defined`` mode, so they must net out to zero only for ``ddos``).
    late_deliveries: int = 0
    rollbacks: int = 0
    deliveries: int = 0
    recording_bytes: Optional[int] = None
    #: Measured history-window headroom (``defined`` cells only): the
    #: slack-deficit distribution plus the *effective* window the run
    #: used -- the envelope mapper's raw material.
    headroom: Optional[WindowHeadroomStats] = None
    #: Per-node headroom for nodes that went late (worst offenders only
    #: when streamed; see ``repro.sweep_stream.NODE_HEADROOM_SLOTS``).
    #: Keys are node ids; lets the envelope recommend per-node windows.
    node_headroom: Optional[Dict[str, WindowHeadroomStats]] = None
    wall_seconds: float = 0.0
    error: Optional[str] = None
    #: Executions this result took (supervised retries; 1 elsewhere).
    attempts: int = 1
    #: Coverage accounting (see :meth:`SweepReport.coverage`):
    #: ``completed`` -- the cell executed to a final answer (error or
    #: not); ``timed_out`` -- reaped past the supervised deadline;
    #: ``quarantined`` -- parked after exhausting transient retries;
    #: ``resumed`` -- replayed from a journal instead of executed.
    outcome: str = "completed"

    @classmethod
    def for_cell(cls, cell: SweepCell, **fields) -> "CellResult":
        """A result echoing ``cell``'s identity; ``fields`` supply the rest.

        Results travel without their identity (the fixed-width ring
        record and the journal payload both omit it -- the parent
        already holds the grid), so every producer re-attaches it here.
        """
        return cls(
            scenario=cell.scenario,
            seed=cell.seed,
            mode=cell.mode,
            repeat=cell.repeat,
            jitter_seed=cell.jitter_seed,
            window_us=cell.window_us,
            jitter_us=cell.jitter_us,
            **fields,
        )

    def to_row(self) -> Dict:
        """Every field as plain JSON values: the one serialisation of a
        result.  The journal record, the semantic digest and the report
        JSONs are projections of this row.  Headroom becomes dicts, and
        an empty ``node_headroom`` becomes ``None``."""
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.headroom is not None:
            row["headroom"] = self.headroom.to_dict()
        row["node_headroom"] = (
            {node: hr.to_dict() for node, hr in sorted(self.node_headroom.items())}
            if self.node_headroom
            else None
        )
        return row

    @classmethod
    def from_row(cls, row: Mapping) -> "CellResult":
        """The inverse of :meth:`to_row`.  ``row`` must hold every field;
        keys that name no field are ignored."""
        values = {f.name: row[f.name] for f in fields(cls)}
        if values["headroom"] is not None:
            values["headroom"] = WindowHeadroomStats(**values["headroom"])
        if values["node_headroom"] is not None:
            values["node_headroom"] = {
                node: WindowHeadroomStats(**hr)
                for node, hr in values["node_headroom"].items()
            }
        return cls(**values)

    @property
    def key(self) -> Tuple[str, int, str]:
        return (self.scenario, self.seed, self.mode)

    @property
    def network_seed_label(self) -> int:
        return self.seed if self.jitter_seed is None else self.jitter_seed

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.invariant_ok is not False
            and self.expected_ok is not False
        )

    @property
    def ordering_miss(self) -> bool:
        """An instrumented cell delivered out of deterministic order.
        ``defined`` repairs late arrivals by rollback, so only ``ddos``
        (which cannot roll back) counts."""
        return self.mode == "ddos" and self.late_deliveries > 0

    @property
    def failed(self) -> bool:
        """This cell alone fails :meth:`SweepReport.ok` (seed-invariance
        splits span cells, so they are the report's to find)."""
        return not self.ok or self.ordering_miss


def _archive_divergence(cell: SweepCell, production, replay) -> None:
    """Write both sides of a failed Theorem-1 check as run bundles.

    Bundle writing must never sink the cell: the divergence itself is
    the result, the artifact is a debugging convenience, so I/O errors
    degrade to a warning.
    """
    from repro.artifact import RunBundle

    context = {
        "scenario": cell.scenario,
        "seed": cell.seed,
        "jitter_seed": cell.jitter_seed,
        "window_us": cell.window_us,
        "jitter_us": cell.jitter_us,
    }
    try:
        os.makedirs(cell.artifact_dir, exist_ok=True)
        RunBundle.from_production(production, context=context).save(
            cell.artifact_dir
        )
        RunBundle.from_replay(replay, context=context).save(cell.artifact_dir)
    except OSError as exc:  # pragma: no cover - disk-full/permission paths
        import warnings

        warnings.warn(
            f"could not archive divergence bundles for "
            f"{cell.scenario}/seed={cell.seed}: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )


def run_scenario(
    scenario: Scenario,
    mode: str,
    seed: int,
    network_seed: Optional[int] = None,
    jitter_us: Optional[int] = None,
    window_us: Optional[int] = None,
) -> ProductionResult:
    """One production run of ``scenario``, and the only place a scenario
    becomes a :func:`~repro.harness.run_production` call: the workload
    (topology, schedule, tuning) from ``seed``, the network timing from
    ``network_seed`` (default ``seed``), and ``jitter_us`` / ``window_us``
    overriding the delivery jitter and the shim's history window."""
    graph = scenario.topology(seed)
    return run_production(
        graph,
        scenario.schedule(graph, seed),
        mode=mode,
        seed=seed if network_seed is None else network_seed,
        jitter_us=scenario.jitter_us if jitter_us is None else jitter_us,
        ordering=scenario.ordering,
        daemon_factory=scenario.daemon(graph) if scenario.daemon else None,
        measure_convergence=False,
        settle_us=scenario.settle_us,
        tail_us=scenario.tail_us,
        window_us=window_us,
        # like the schedule, the tuning is workload: the same seed under
        # a different timing seed must perturb the same nodes and links
        tuning=scenario.tuning(graph, seed) if scenario.tuning is not None else None,
    )


def replay_scenario(scenario: Scenario, production: ProductionResult) -> ReplayResult:
    """The Theorem-1 DEFINED-LS replay of a ``defined`` run of
    ``scenario``, with the scenario's ordering and daemon."""
    return run_ls_replay(
        production.graph,
        production.recording,
        ordering=scenario.ordering,
        daemon_factory=scenario.daemon(production.graph) if scenario.daemon else None,
    )


def run_cell(cell: SweepCell) -> CellResult:
    """Execute one grid cell in the current process.

    Runs the cell's scenario (:func:`run_scenario`) on a fresh
    :class:`Simulator` and -- for ``defined`` cells -- replays the
    partial recording through DEFINED-LS on the same topology and checks
    the Theorem-1 invariant.  The workload always derives from
    ``cell.seed``; the network's timing draws from ``cell.network_seed``,
    so the seed-invariance probe can vary timing under a pinned workload.
    Never raises: failures come back as ``error`` so one bad cell cannot
    sink a whole sweep.
    """
    start = time.perf_counter()
    try:
        scenario = get_scenario(cell.scenario)
        result = run_scenario(
            scenario,
            cell.mode,
            cell.seed,
            network_seed=cell.network_seed,
            jitter_us=cell.jitter_us,
            window_us=cell.window_us,
        )
        replay_fp: Optional[str] = None
        invariant: Optional[bool] = None
        recording_bytes: Optional[int] = None
        if cell.mode == "defined":
            assert result.recording is not None
            recording_bytes = result.recording.size_bytes()
            if cell.check_invariant:
                replay = replay_scenario(scenario, result)
                replay_fp = replay.fingerprint
                invariant = replay_fp == result.fingerprint
                if invariant is False and cell.artifact_dir:
                    _archive_divergence(cell, result, replay)
        expected = scenario.expect(result) if scenario.expect else None
        return CellResult.for_cell(
            cell,
            fingerprint=result.fingerprint,
            replay_fingerprint=replay_fp,
            invariant_ok=invariant,
            expected_ok=expected,
            late_deliveries=result.late_deliveries,
            rollbacks=result.rollbacks,
            deliveries=sum(len(log) for log in result.logs.values()),
            recording_bytes=recording_bytes,
            headroom=result.headroom,
            node_headroom=result.node_headroom or None,
            wall_seconds=time.perf_counter() - start,
        )
    except Exception as exc:  # pragma: no cover - exercised via error cells
        return CellResult.for_cell(
            cell,
            wall_seconds=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )


# ----------------------------------------------------------------------
# the runner and its report
# ----------------------------------------------------------------------

@dataclass
class SweepReport:
    """Aggregated sweep results plus the determinism verdicts."""

    cells: List[CellResult]
    seeds: Tuple[int, ...]
    workers: int
    repeats: int
    wall_seconds: float = 0.0

    # -- verdicts ------------------------------------------------------
    def errors(self) -> List[CellResult]:
        return [c for c in self.cells if c.error is not None]

    def invariant_violations(self) -> List[CellResult]:
        """DEFINED cells where the replay diverged from production."""
        return [c for c in self.cells if c.invariant_ok is False]

    def expectation_failures(self) -> List[CellResult]:
        return [c for c in self.cells if c.expected_ok is False]

    def ordering_misses(self) -> List[CellResult]:
        """Instrumented cells that delivered out of deterministic order
        (:attr:`CellResult.ordering_miss`)."""
        return [c for c in self.cells if c.ordering_miss]

    def invariance_splits(self) -> List[Tuple[str, int, str]]:
        """Seed-invariance breaches: (scenario, seed, mode) groups whose
        re-executions under different jitter seeds produced more than one
        fingerprint in a *deterministic* mode.  Cells at different
        ``window_us`` / ``jitter_us`` overrides run different workloads,
        so they are never compared.

        ``defined`` and ``ddos`` guarantee timing-independence -- the
        same workload must fingerprint identically under any jitter seed.
        ``vanilla``/``logging`` carry no such guarantee (their splits are
        the paper's motivation), so they are reported in the distinct-
        fingerprint matrix but are not failures."""
        seen: Dict[Tuple, str] = {}
        bad: List[Tuple[str, int, str]] = []
        for c in self.cells:
            if c.error is not None or c.mode not in DETERMINISTIC_MODES:
                continue
            group = (c.key, c.window_us, c.jitter_us)
            prior = seen.setdefault(group, c.fingerprint)
            if prior != c.fingerprint and c.key not in bad:
                bad.append(c.key)
        return bad

    # -- coverage accounting -------------------------------------------
    def timed_out(self) -> List[CellResult]:
        """Cells the supervised watchdog reaped past their deadline."""
        return [c for c in self.cells if c.outcome == "timed_out"]

    def quarantined(self) -> List[CellResult]:
        """Cells parked after exhausting their transient-retry budget."""
        return [c for c in self.cells if c.outcome == "quarantined"]

    def resumed(self) -> List[CellResult]:
        """Cells replayed from a resume journal instead of executed."""
        return [c for c in self.cells if c.outcome == "resumed"]

    def coverage(self) -> Dict[str, int]:
        """What the grid actually did, cell by cell.

        A partial report must never masquerade as a full one: any
        non-zero ``timed_out``/``quarantined`` count means coverage
        gaps, and ``resumed`` says how much of the grid was inherited
        from a journal rather than executed here.
        """
        counts = {"completed": 0, "resumed": 0, "timed_out": 0, "quarantined": 0}
        for c in self.cells:
            counts[c.outcome] = counts.get(c.outcome, 0) + 1
        counts["cells"] = len(self.cells)
        return counts

    def semantic_rows(self) -> List[Dict]:
        """The cells' rows without the provenance fields: exactly what
        the grid *computed* -- cell identities, fingerprints, verdicts,
        counters, headroom -- and nothing of how it was computed."""
        return [
            {k: v for k, v in c.to_row().items() if k not in PROVENANCE_FIELDS}
            for c in self.cells
        ]

    def semantic_digest(self) -> str:
        """Order-insensitive content hash of :meth:`semantic_rows`.

        It excludes wall seconds, attempt counts, worker topology and
        outcome provenance (``resumed`` vs ``completed``).  An
        interrupted grid resumed from its journal must therefore digest
        identically to the same grid run uninterrupted; the CI
        interrupted-grid job pins this.
        """
        from repro.artifact.bundle import canonical_json

        rows = sorted(self.semantic_rows(), key=canonical_json)
        doc = {"seeds": list(self.seeds), "repeats": self.repeats, "cells": rows}
        return hashlib.sha256(canonical_json(doc).encode("ascii")).hexdigest()

    def failures(self) -> List[str]:
        """The verdict's failure counts, e.g. ``errors: 2``; empty when
        the grid is ok."""
        return [
            f"{label}: {len(items)}"
            for label, items in [
                ("errors", self.errors()),
                ("Theorem-1 violations", self.invariant_violations()),
                ("expectation failures", self.expectation_failures()),
                ("ordering misses (ddos)", self.ordering_misses()),
                ("seed-invariance splits", self.invariance_splits()),
            ]
            if items
        ]

    def ok(self) -> bool:
        return not self.failures()

    # -- aggregation ---------------------------------------------------
    def fingerprint_index(self) -> Dict[Tuple[str, int, str, int], str]:
        """(scenario, seed, mode, repeat) -> fingerprint, for equivalence
        checks between serial and parallel executions."""
        return {
            (c.scenario, c.seed, c.mode, c.repeat): c.fingerprint
            for c in self.cells
        }

    def scenario_names(self) -> List[str]:
        return sorted({c.scenario for c in self.cells})

    def modes(self) -> List[str]:
        order = {"vanilla": 0, "defined": 1, "ddos": 2, "logging": 3}
        return sorted({c.mode for c in self.cells}, key=lambda m: (order.get(m, 9), m))

    def distinct_fingerprints(self, scenario: str, mode: str) -> int:
        fps = {
            c.fingerprint
            for c in self.cells
            if c.scenario == scenario and c.mode == mode and c.error is None
        }
        return len(fps)

    def _group(self, scenario: str, mode: str) -> List[CellResult]:
        return [c for c in self.cells if c.scenario == scenario and c.mode == mode]

    # -- rendering -----------------------------------------------------
    def summary_rows(self) -> List[List]:
        rows = []
        for scenario in self.scenario_names():
            for mode in self.modes():
                group = self._group(scenario, mode)
                if not group:
                    continue
                errors = sum(1 for c in group if c.error is not None)
                invariant = [c for c in group if c.invariant_ok is not None]
                rows.append([
                    scenario,
                    mode,
                    len(group),
                    self.distinct_fingerprints(scenario, mode),
                    ("-" if not invariant
                     else f"{sum(1 for c in invariant if c.invariant_ok)}/{len(invariant)}"),
                    sum(c.rollbacks for c in group),
                    sum(c.late_deliveries for c in group),
                    errors,
                    sum(c.wall_seconds for c in group),
                ])
        return rows

    def render(self) -> str:
        parts = [
            render_table(
                "scenario sweep: divergence / determinism",
                ["scenario", "mode", "cells", "fingerprints",
                 "theorem1", "rollbacks", "late", "errors", "wall (s)"],
                self.summary_rows(),
            )
        ]
        matrix = {
            scenario: {
                mode: (str(self.distinct_fingerprints(scenario, mode))
                       if self._group(scenario, mode) else "-")
                for mode in self.modes()
            }
            for scenario in self.scenario_names()
        }
        parts.append("")
        parts.append(render_matrix(
            f"distinct fingerprints across {len(self.seeds)} seed(s) "
            f"x {self.repeats} jitter-seed repeat(s)  "
            "[defined/ddos: 1 per seed == seed-invariant]",
            "scenario",
            self.modes(),
            matrix,
        ))
        parts.append("")
        parts.append(
            f"grid: {len(self.cells)} cells, {self.workers} worker(s), "
            f"{self.wall_seconds:.2f}s wall"
        )
        parts.extend(self.coverage_lines())
        failures = self.failures()
        parts.append(
            "verdict: FAILED -- " + "; ".join(failures) if failures
            else "verdict: OK -- every DEFINED cell reproduced bit-for-bit"
        )
        return "\n".join(parts)

    def coverage_lines(self) -> List[str]:
        """One line on the coverage gaps and journal reuse, or none when
        every cell ran here to completion."""
        coverage = self.coverage()
        if not any(coverage[k] for k in ("timed_out", "quarantined", "resumed")):
            return []
        return [
            "coverage: "
            f"{coverage['completed']} completed, "
            f"{coverage['resumed']} resumed from journal, "
            f"{coverage['timed_out']} timed out, "
            f"{coverage['quarantined']} quarantined"
        ]

    def to_dict(self) -> Dict:
        """JSON-serializable divergence report (the CI artifact).

        Summarizes the grid and carries every divergence in full --
        errors, Theorem-1 violations, expectation failures, ordering
        misses, and seed-invariance splits (with the per-jitter-seed
        fingerprints that refused to collapse)."""
        splits = []
        for scenario, seed, mode in self.invariance_splits():
            group = [
                c for c in self.cells
                if c.key == (scenario, seed, mode) and c.error is None
            ]
            splits.append({
                "scenario": scenario,
                "seed": seed,
                "mode": mode,
                "fingerprints": {
                    str(c.network_seed_label): c.fingerprint for c in group
                },
            })

        return {
            "ok": self.ok(),
            "grid_cells": len(self.cells),
            "seeds": list(self.seeds),
            "repeats": self.repeats,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "coverage": self.coverage(),
            "semantic_digest": self.semantic_digest(),
            "timed_out": [c.to_row() for c in self.timed_out()],
            "quarantined": [c.to_row() for c in self.quarantined()],
            "errors": [c.to_row() for c in self.errors()],
            "theorem1_violations": [
                c.to_row() for c in self.invariant_violations()
            ],
            "expectation_failures": [
                c.to_row() for c in self.expectation_failures()
            ],
            "ordering_misses": [c.to_row() for c in self.ordering_misses()],
            "invariance_splits": splits,
        }


#: Fixed override for the shared-memory result ring's slot count.  The
#: default (``None``) sizes the ring adaptively from the grid size and
#: the record width (:func:`repro.sweep_stream.adaptive_ring_capacity`);
#: set an integer to pin it (tests use tiny rings to exercise
#: backpressure).
STREAM_RING_CAPACITY: Optional[int] = None


class SweepRunner:
    """Shard a scenario x seed x mode grid across worker processes.

    ``workers=1`` runs everything inline (same process, deterministic
    order); ``workers>1`` fans cells out to the supervised worker pool
    (:mod:`repro.supervise`).  Either way :meth:`run` returns results
    ordered by the grid, so two runs of the same grid are comparable
    cell by cell.

    Pool workers append fixed-width result records to a bounded
    :mod:`multiprocessing.shared_memory` ring that the parent consumes
    incrementally (:mod:`repro.sweep_stream`): progress callbacks fire
    in *completion* order as cells finish, and the parent never holds
    more than the ring's worth of in-flight transport state.  A worker
    resolves each cell's scenario by name, as this process does, so the
    pool takes ``fork`` where the platform has it (cheap start) and the
    default start method elsewhere.

    Every grid runs under :attr:`policy`.  ``cell_timeout_s`` arms the
    watchdog (hung workers are reaped, the cell surfaces ``timed_out``;
    a deadline needs a process to reap, so it moves even ``workers=1``
    onto a pool of one); ``retries`` is the per-cell budget for
    *transient* failures -- a worker killed under the cell, a stalled
    ring -- after which the cell is ``quarantined`` and the rest of the
    grid still completes.  Deterministic outcomes (divergences, in-cell
    exceptions) are never re-executed.

    ``repeats=K`` arms the **seed-invariance probe**: every
    (scenario, seed, mode) cell runs under ``K`` jitter seeds (repeat 0
    uses the workload seed itself; later repeats use seed-split
    derivations), and :meth:`SweepReport.invariance_splits` demands the
    deterministic modes collapse to one fingerprint per cell.
    """

    def __init__(
        self,
        scenarios: Optional[Sequence[str]] = None,
        seeds: Sequence[int] = (1, 2, 3),
        modes: Optional[Sequence[str]] = None,
        workers: int = 1,
        repeats: int = 1,
        artifact_dir: Optional[str] = None,
        cell_timeout_s: Optional[float] = None,
        retries: Optional[int] = None,
        journal_dir: Optional[str] = None,
        resume_dir: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        from repro.supervise.executor import DEFAULT_RETRIES, SupervisionPolicy

        #: What the executor enforces on every cell (see
        #: :mod:`repro.supervise`); no deadline and the default retry
        #: budget unless the caller configures them.
        self.policy = SupervisionPolicy(
            cell_timeout_s=cell_timeout_s,
            retries=DEFAULT_RETRIES if retries is None else retries,
        )
        #: Cell-journal directory (append-only, crash-safe): every
        #: finished cell is durably recorded so an interrupted grid can
        #: be resumed.  ``resume_dir`` replays completed cells from an
        #: existing journal *and* keeps journaling into it (unless a
        #: separate ``journal_dir`` is given), so a twice-interrupted
        #: grid keeps one linear history.
        self.journal_dir = journal_dir
        self.resume_dir = resume_dir
        self.scenario_names = (
            list(scenarios) if scenarios is not None else default_grid()
        )
        for name in self.scenario_names:
            get_scenario(name)  # fail fast on unknown names
        self.seeds = tuple(seeds)
        self.modes = tuple(modes) if modes is not None else None
        for mode in self.modes or ():
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r} (modes: {MODES})")
        self.workers = workers
        self.repeats = repeats
        #: Directory Theorem-1 divergences are archived into as run
        #: bundles (None: no archiving); see :attr:`SweepCell.artifact_dir`.
        self.artifact_dir = artifact_dir

    def grid(self) -> List[SweepCell]:
        cells = []
        for name in self.scenario_names:
            scenario = get_scenario(name)
            modes = self.modes if self.modes is not None else scenario.modes
            for seed in self.seeds:
                for mode in modes:
                    for repeat in range(self.repeats):
                        # repeat 0 keeps the legacy identity (network
                        # seeded by the workload seed); later repeats are
                        # the invariance probe's extra jitter seeds
                        jitter_seed = (
                            None if repeat == 0
                            else seed_split(seed, f"jitter-repeat|{repeat}")
                        )
                        cells.append(
                            SweepCell(
                                name, seed, mode, repeat, jitter_seed,
                                artifact_dir=self.artifact_dir,
                            )
                        )
        return cells

    def run(
        self,
        progress: Optional[Callable[[CellResult], None]] = None,
        cells: Optional[Sequence[SweepCell]] = None,
    ) -> SweepReport:
        """Run the whole grid -- or ``cells``, an explicit list, such as
        the window-envelope mapper's cells with per-cell overrides -- and
        aggregate a :class:`SweepReport`.

        ``progress`` fires once per finished cell -- in cell order
        inline, in completion order on the pool.  The report's cell
        list is always in cell order.
        """
        cells = self.grid() if cells is None else list(cells)
        start = time.perf_counter()
        by_index: Dict[int, CellResult] = dict(self._iter_results(cells, progress))
        return SweepReport(
            cells=[by_index[i] for i in range(len(cells))],
            seeds=self.seeds,
            workers=self.workers,
            repeats=self.repeats,
            wall_seconds=time.perf_counter() - start,
        )

    def stream(
        self, progress: Optional[Callable[[CellResult], None]] = None
    ):
        """Yield :class:`CellResult` objects as cells finish, without
        retaining them: the constant-memory consumption surface for very
        large grids (aggregate on the fly, or ship each record
        elsewhere).  Ordering follows :meth:`run`'s ``progress`` rules.
        """
        for _index, result in self._iter_results(self.grid(), progress):
            yield result

    # -- execution -----------------------------------------------------
    def _iter_results(
        self,
        cells: Sequence[SweepCell],
        progress: Optional[Callable[[CellResult], None]],
    ):
        """The journal/resume wrapper around :meth:`_execute`.

        Without a journal or resume directory this is a pass-through.
        With one, completed cells from the resume journal are yielded
        first (outcome ``resumed``, no execution), and every newly
        executed cell is durably journaled before it is yielded -- so a
        sweep killed at any instant can resume from its journal.
        """
        cells = list(cells)
        journal_dir = self.journal_dir or self.resume_dir
        if journal_dir is None and self.resume_dir is None:
            yield from self._execute(cells, progress)
            return

        from repro.supervise.journal import (
            CellJournal,
            cell_fingerprint,
            cell_identity,
            load_completed,
        )

        resumed: Dict[int, CellResult] = {}
        if self.resume_dir is not None:
            completed = load_completed(self.resume_dir)
            for index, cell in enumerate(cells):
                record = completed.get(cell_fingerprint(cell))
                if record is not None:
                    resumed[index] = CellResult.from_row({
                        **record["result"],
                        **cell_identity(cell),
                        "outcome": "resumed",
                    })
        journal = CellJournal(journal_dir)
        for index, result in resumed.items():
            if progress is not None:
                progress(result)
            yield index, result
        todo = [index for index in range(len(cells)) if index not in resumed]
        if not todo:
            return
        # progress fires here (after journaling), not in the inner path,
        # so a callback exception can never lose a journal write
        for sub_index, result in self._execute([cells[i] for i in todo], None):
            index = todo[sub_index]
            journal.record(cells[index], result)
            if progress is not None:
                progress(result)
            yield index, result

    def _execute(
        self,
        cells: Sequence[SweepCell],
        progress: Optional[Callable[[CellResult], None]],
    ):
        """Run ``cells`` under :attr:`policy`, yielding ``(index, result)``.

        One worker without a deadline runs in this process; everything
        else runs on the supervised pool (a deadline needs a separate
        process to reap, even single-worker).  A host with no usable
        shared memory degrades to the in-process loop.
        """
        if not cells:
            return
        from repro.supervise.executor import (
            inline_supervised_iter,
            supervised_iter,
        )

        def inline():
            return inline_supervised_iter(
                cells,
                self.policy,
                artifact_dir=self.artifact_dir,
                progress=progress,
            )

        if self.workers == 1 and self.policy.cell_timeout_s is None:
            yield from inline()
            return

        import multiprocessing

        from repro.sweep_stream import adaptive_ring_capacity

        # fork keeps pool start cheap; any start method resolves every
        # name as this process does (the catalogue is a constant)
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        capacity = (
            adaptive_ring_capacity(len(cells))
            if STREAM_RING_CAPACITY is None
            else max(2, min(len(cells), STREAM_RING_CAPACITY))
        )
        produced = 0
        try:
            for item in supervised_iter(
                cells,
                workers=self.workers,
                ctx=ctx,
                policy=self.policy,
                ring_capacity=capacity,
                artifact_dir=self.artifact_dir,
                progress=progress,
            ):
                produced += 1
                yield item
        except OSError as exc:  # pragma: no cover - no usable shared memory
            if produced:
                raise
            import warnings

            warnings.warn(
                f"shared-memory result ring unavailable ({exc}); watchdog "
                "deadlines disabled, falling back to inline supervised "
                "execution",
                RuntimeWarning,
                stacklevel=3,
            )
            yield from inline()


# ----------------------------------------------------------------------
# boundary-jitter fuzzing: a sweep over a jitter axis, then a shrink
# ----------------------------------------------------------------------

def fuzz_grid(
    scenarios: Optional[Sequence[str]] = None,
    jitters_us: Sequence[int] = (0, 1, 2, 5),
) -> List[str]:
    """The boundary-jitter fuzz grid, for :class:`SweepRunner`: each
    spec under each of ``jitters_us`` of whole-spec jitter, base-major,
    deduplicated.

    The grid owns the whole-spec jitter axis, so a spec's own
    (``latency-jitter~j2us``) is replaced, never stacked; ``None`` is
    the default grid, whose jittered specs thereby fold onto their
    bases."""
    if any(j < 0 for j in jitters_us):
        raise ValueError("jitter magnitudes cannot be negative")
    if scenarios is None:
        scenarios = default_grid()
    for name in scenarios:
        get_scenario(name)  # fail fast on unknown names
    return list(dict.fromkeys(
        _grid_specs([name], boundary_jitter_us=jitter)[0]
        for name in scenarios
        for jitter in sorted(set(jitters_us))
    ))


def shrink_failure(report: SweepReport) -> Optional[Dict[str, object]]:
    """The smallest failing ``scenario`` (without its jitter), ``seed``
    and ``jitter_us`` reachable from a fuzz grid's failing cell with the
    smallest (jitter, seed, name), and the ``shrink_runs`` it took;
    ``None`` when no cell :attr:`~CellResult.failed`.

    A binary search over the jitter (assuming the usual monotone
    failure envelope), then a scan for the smallest failing seed, each
    probe one :func:`run_cell` in the cell's mode."""
    failures = [c for c in report.cells if c.failed]
    if not failures:
        return None
    first = min(
        failures,
        key=lambda c: (_Spec.fuzz_axes(c.scenario)[1], c.seed, c.scenario),
    )
    base, jitter = _Spec.fuzz_axes(first.scenario)
    seed = first.seed
    runs = 0

    def fails(jitter_us: int, cell_seed: int) -> bool:
        nonlocal runs
        runs += 1
        name = _grid_specs([base], boundary_jitter_us=jitter_us)[0]
        return run_cell(SweepCell(name, cell_seed, first.mode)).failed

    # The grid already ran this (base, seed) at every smaller grid jitter,
    # and they all passed (``first`` is the smallest failure), so the
    # bracket starts above the largest of them.
    passing = [_Spec.fuzz_axes(c.scenario) for c in report.cells
               if not c.failed and c.seed == seed]
    lo = max((j for b, j in passing if b == base and j < jitter), default=-1)
    while jitter - lo > 1:
        mid = (lo + jitter) // 2
        if fails(mid, seed):
            jitter = mid
        else:
            lo = mid
    for candidate in sorted(report.seeds):
        if candidate >= seed:
            break
        if fails(jitter, candidate):
            seed = candidate
            break
    return {"scenario": base, "seed": seed, "jitter_us": jitter,
            "shrink_runs": runs}
