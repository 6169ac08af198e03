"""Window-envelope mapper: measure the jitter/topology envelope of the
history window, then recommend a window that is *checked*, not guessed.

The DEFINED-RB shim guarantees deterministic delivery only inside its
sliding history window (:meth:`~repro.core.shim.DefinedShim.window_us`).
PR 3 made slack exhaustion loud -- every late arrival emits a
:class:`~repro.core.shim.HistoryWindowWarning` with a deficit lower
bound -- but "what ``window_us`` do I need for this topology at this
jitter level" still took trial and error.  This module closes that loop:

* :class:`EnvelopeRunner` grids **delivery jitter** x **window_us** x
  **topology size** (the ``name@N`` sized Waxman scenarios) and runs
  every cell through the ordinary sweep machinery
  (:meth:`~repro.sweep.SweepRunner.run_cells`, so ``workers > 1``
  streams results through the shared-memory ring).  Mapping cells run
  with the Theorem-1 replay *off* -- deliberately undersized windows
  forfeit determinism by construction, and the point of the pass is to
  measure by how much;
* each cell captures the **full slack-deficit distribution** -- count,
  max, quantiles -- as a :class:`~repro.core.history.WindowHeadroomStats`
  riding the fixed-width result record, instead of only the escalating
  warnings;
* :meth:`EnvelopeRunner.suggest_window` turns the measured distribution
  into a recommendation: every deficit is a lower bound on the absolute
  reach (``window + deficit = age of the pruned predecessor``) the
  window needed, so the suggestion is the target-quantile reach plus a
  safety margin;
* the recommendation is **self-checked**: :meth:`EnvelopeRunner.run`
  re-runs the whole (scenario x jitter x seed) grid at the suggested
  window -- replay checks back on -- and escalates until the re-run is
  deficit-free (bounded rounds).  The :class:`EnvelopeReport` carries
  the verification cells, so "safe" is an artifact, not a claim.

The jitter axis is per-packet delivery jitter in microseconds -- the
quantity the window formula's slack term exists to absorb (the 300 ms
regime of ``tests/test_window_headroom.py``).  The boundary-jitter
fuzzer composes: ``boundary_jitter_us`` puts that jitter over each
whole scenario spec, snapping external events onto beacon-group
boundaries (where pruning happens) before the grid runs.

CLI: ``repro envelope --scenarios flap-storm@20 --jitters 0,50,300
--windows auto --suggest``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import render_headroom, render_matrix, render_table
from repro.core.shim import default_window_us
from repro.sweep import (
    CellResult,
    SweepCell,
    SweepRunner,
    _grid_specs,
    get_scenario,
)
from repro.topology import to_network

#: Suggested windows are rounded up to this granularity: sub-millisecond
#: precision would be false precision on top of lower-bound deficits.
WINDOW_GRANULARITY_US = 1_000

#: Verification escalation rounds before giving up.  Deficits are lower
#: bounds, so a suggestion can come up short once; twice means the
#: margin, not the measurement, is the problem and the report says so.
MAX_VERIFY_ROUNDS = 3

#: ``--windows auto``: map the envelope at these fractions of the
#: network-derived default window.  The fractions deliberately reach
#: into undersized territory -- a grid that never exhausts its slack
#: measures nothing.
AUTO_WINDOW_FRACTIONS = (0.25, 0.5, 1.0)


def scenario_default_window_us(name: str, seed: int = 1) -> int:
    """The default history window the shims would derive for this
    scenario's topology at this seed (:func:`default_window_us` over the
    instantiated network)."""
    scenario = get_scenario(name)
    graph = scenario.topology(seed)
    return default_window_us(
        to_network(graph, seed=seed, jitter_us=scenario.jitter_us)
    )


@dataclass(frozen=True)
class WindowSuggestion:
    """The mapper's recommendation plus its self-consistency check."""

    window_us: int
    target_quantile: float
    margin: float
    #: True once a full-grid re-run at ``window_us`` finished with zero
    #: slack deficits, no errors, *and* every Theorem-1 replay check held
    #: -- the self-consistency check the suggestion is not allowed to
    #: skip.  Since the chain-delay spill fix, the lockstep replay is
    #: exact at any delivery-jitter level, so the replay check is part of
    #: the verification rather than a separately-reported caveat.
    verified: bool = False
    #: Whether the verification re-run's Theorem-1 checks (production vs
    #: DEFINED-LS replay) held.  Retained for report-format
    #: compatibility; it can no longer disagree with ``verified`` -- a
    #: suggestion whose clean round saw a replay divergence does not
    #: verify (and construction asserts the agreement).  ``None`` until a
    #: deficit-free round ran.
    invariant_clean: Optional[bool] = None
    #: Verification attempts as ``(window_us, deficit_count, errors)``;
    #: more than one entry means the first suggestion escalated.
    rounds: Tuple[Tuple[int, int, int], ...] = ()
    #: Per-node minimal safe windows, derived from the per-node headroom
    #: the mapping cells carried (the worst-offender slots of the result
    #: record).  ``window_us`` above is the global answer -- the window
    #: every shim in the topology can run at; these are the per-node
    #: lower bounds behind it, so a heterogeneous deployment can size
    #: the quiet nodes tighter than the hot ones.  Sorted worst-first.
    node_windows_us: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.verified and self.invariant_clean is not True:
            raise ValueError(
                "a verified suggestion requires invariant_clean=True: "
                "verified subsumes the Theorem-1 replay check"
            )

    def to_dict(self) -> Dict:
        return {
            "window_us": self.window_us,
            "target_quantile": self.target_quantile,
            "margin": self.margin,
            "verified": self.verified,
            "invariant_clean": self.invariant_clean,
            "rounds": [
                {"window_us": w, "deficits": d, "errors": e}
                for w, d, e in self.rounds
            ],
            "node_windows_us": {n: w for n, w in self.node_windows_us},
        }


@dataclass
class EnvelopeReport:
    """Everything one envelope-mapping campaign produced."""

    scenarios: Tuple[str, ...]
    jitters_us: Tuple[int, ...]
    windows_us: Tuple[int, ...]
    seeds: Tuple[int, ...]
    cells: List[CellResult] = field(default_factory=list)
    suggestion: Optional[WindowSuggestion] = None
    verification_cells: List[CellResult] = field(default_factory=list)
    wall_seconds: float = 0.0

    # -- verdicts ------------------------------------------------------
    def errors(self) -> List[CellResult]:
        return [c for c in self.cells if c.error is not None]

    def deficit_cells(self) -> List[CellResult]:
        return [
            c for c in self.cells
            if c.headroom is not None and not c.headroom.clean
        ]

    def ok(self) -> bool:
        """Mapping cells must *run* (deficits are data, crashes are not)
        and, when a suggestion was requested, it must have verified."""
        if self.errors():
            return False
        if self.suggestion is not None and not self.suggestion.verified:
            return False
        return True

    # -- aggregation ---------------------------------------------------
    def _group(self, scenario: str, jitter_us: int, window_us: int):
        return [
            c for c in self.cells
            if c.scenario == scenario
            and c.jitter_us == jitter_us
            and c.window_us == window_us
        ]

    def safe_windows(self) -> Dict[Tuple[str, int], Optional[int]]:
        """Per (scenario, jitter): the smallest mapped window whose cells
        all stayed deficit-free, or ``None`` when every mapped window
        exhausted its slack (the suggestion then extrapolates)."""
        out: Dict[Tuple[str, int], Optional[int]] = {}
        for scenario in self.scenarios:
            for jitter in self.jitters_us:
                safe = None
                for window in sorted(self.windows_us):
                    group = self._group(scenario, jitter, window)
                    if group and all(
                        c.error is None
                        and c.headroom is not None
                        and c.headroom.clean
                        for c in group
                    ):
                        safe = window
                        break
                out[(scenario, jitter)] = safe
        return out

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        parts = []
        for window in self.windows_us:
            matrix = {}
            for scenario in self.scenarios:
                row = {}
                for jitter in self.jitters_us:
                    group = self._group(scenario, jitter, window)
                    if not group:
                        row[str(jitter)] = "-"
                    elif any(c.error is not None for c in group):
                        row[str(jitter)] = "ERR"
                    else:
                        late = sum(
                            c.headroom.late_count for c in group
                            if c.headroom is not None
                        )
                        row[str(jitter)] = str(late) if late else "ok"
                matrix[scenario] = row
            parts.append(render_matrix(
                f"late deliveries at window={window}us "
                "(scenario x delivery jitter (us))",
                "scenario",
                [str(j) for j in self.jitters_us],
                matrix,
            ))
            parts.append("")
        hot = [
            (
                f"{c.scenario} j={c.jitter_us}us seed={c.seed}",
                c.headroom,
            )
            for c in self.deficit_cells()
        ]
        if hot:
            parts.append(render_headroom(
                "slack-deficit distribution (late cells only)", hot
            ))
            parts.append("")
        safe = self.safe_windows()
        parts.append(render_table(
            "smallest mapped deficit-free window",
            ["scenario", "jitter (us)", "safe window (us)"],
            [
                [scenario, jitter,
                 safe[(scenario, jitter)] if safe[(scenario, jitter)]
                 is not None else "> mapped range"]
                for scenario in self.scenarios
                for jitter in self.jitters_us
            ],
        ))
        parts.append("")
        parts.append(
            f"grid: {len(self.cells)} mapping cell(s), "
            f"{len(self.verification_cells)} verification cell(s), "
            f"{self.wall_seconds:.2f}s wall"
        )
        if self.suggestion is not None:
            s = self.suggestion
            if s.verified:
                parts.append(
                    f"suggested window_us = {s.window_us} "
                    f"(q{int(s.target_quantile * 100)} reach "
                    f"+ {int(s.margin * 100)}% margin) -- VERIFIED: "
                    "re-run at this window reported zero slack deficits "
                    "and fingerprint-exact Theorem-1 replays"
                )
            elif s.invariant_clean is False:
                parts.append(
                    f"suggested window_us = {s.window_us} -- NOT verified: "
                    "the lockstep replay diverged despite zero slack "
                    "deficits; this is a determinism bug, not a window-"
                    "sizing problem (file it with the run bundles)"
                )
            else:
                parts.append(
                    f"suggested window_us = {s.window_us} -- NOT verified "
                    f"after {len(s.rounds)} round(s); see report JSON"
                )
            if s.node_windows_us:
                parts.append("")
                parts.append(render_table(
                    "per-node window lower bounds (worst offenders; "
                    "global suggestion covers the rest)",
                    ["node", "suggested window (us)"],
                    [[node, window] for node, window in s.node_windows_us],
                ))
        if self.errors():
            parts.append(
                f"verdict: FAILED -- {len(self.errors())} mapping cell(s) "
                "crashed before measuring"
            )
        return "\n".join(parts)

    def to_dict(self) -> Dict:
        """JSON-serializable envelope report (the CI artifact)."""
        return {
            "ok": self.ok(),
            "scenarios": list(self.scenarios),
            "jitters_us": list(self.jitters_us),
            "windows_us": list(self.windows_us),
            "seeds": list(self.seeds),
            "mode": "defined",
            "grid_cells": len(self.cells),
            "wall_seconds": self.wall_seconds,
            "cells": [c.to_row() for c in self.cells],
            "safe_windows": [
                {"scenario": scenario, "jitter_us": jitter, "window_us": w}
                for (scenario, jitter), w in self.safe_windows().items()
            ],
            "suggestion": (
                self.suggestion.to_dict() if self.suggestion is not None else None
            ),
            "verification_cells": [c.to_row() for c in self.verification_cells],
        }


class EnvelopeRunner:
    """Grid (scenario x delivery-jitter x window x seed), measure the
    slack-deficit distribution per cell, and optionally recommend (and
    verify) a safe ``window_us``.  Every cell runs in ``defined`` mode:
    the headroom stats come from the shims' history windows.

    ``windows_us="auto"`` derives the ladder from the largest
    network-default window across the selected scenarios
    (:data:`AUTO_WINDOW_FRACTIONS`), so the grid brackets the formula
    the shims would have applied.  ``sizes`` re-scales every scenario
    through the ``name@N`` grammar; ``boundary_jitter_us`` puts that
    much boundary jitter over each whole spec, replacing any it had there
    (the ``sweep --boundary-jitter-us`` operation).
    """

    def __init__(
        self,
        scenarios: Sequence[str],
        jitters_us: Sequence[int] = (0, 50_000, 300_000),
        windows_us: "Sequence[int] | str" = "auto",
        seeds: Sequence[int] = (1,),
        workers: int = 1,
        sizes: Optional[Sequence[int]] = None,
        boundary_jitter_us: Optional[int] = None,
        target_quantile: float = 0.99,
        margin: float = 0.25,
        artifact_dir: Optional[str] = None,
        cell_timeout_s: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> None:
        if not scenarios:
            raise ValueError("envelope mapping needs at least one scenario")
        if any(j < 0 for j in jitters_us):
            raise ValueError("delivery-jitter magnitudes cannot be negative")
        if not 0.0 < target_quantile <= 1.0:
            raise ValueError(f"target_quantile out of range: {target_quantile}")
        if margin < 0:
            raise ValueError("margin cannot be negative")
        if boundary_jitter_us is not None and boundary_jitter_us < 0:
            raise ValueError("boundary jitter cannot be negative")
        names = _grid_specs(scenarios, sizes, boundary_jitter_us)
        for name in names:
            get_scenario(name)  # fail fast on unknown names
        self.scenarios: Tuple[str, ...] = tuple(names)
        self.jitters_us = tuple(sorted(set(int(j) for j in jitters_us)))
        self.seeds = tuple(seeds)
        self.target_quantile = target_quantile
        self.margin = margin
        #: Verification cells archive Theorem-1 divergences here as run
        #: bundles (None: no archiving).  Mapping cells never check the
        #: invariant, so only the verification pass can write bundles.
        self.artifact_dir = artifact_dir
        # the runner supplies the pool and the supervision policy;
        # run_cells() never reads its grid
        self._sweep = SweepRunner(
            scenarios=list(self.scenarios), seeds=self.seeds,
            workers=workers,
            cell_timeout_s=cell_timeout_s, retries=retries,
        )
        if isinstance(windows_us, str):
            if windows_us != "auto":
                raise ValueError(
                    f"windows_us must be a list of integers or 'auto', "
                    f"got {windows_us!r}"
                )
            base = max(
                scenario_default_window_us(name, seed)
                for name in self.scenarios
                for seed in self.seeds
            )
            ladder = {
                _round_window(int(base * f)) for f in AUTO_WINDOW_FRACTIONS
            }
            self.windows_us = tuple(sorted(ladder))
        else:
            if not windows_us:
                raise ValueError("windows_us cannot be empty")
            if any(w <= 0 for w in windows_us):
                raise ValueError("windows must be positive microsecond counts")
            self.windows_us = tuple(sorted(set(int(w) for w in windows_us)))

    # -- grid construction ---------------------------------------------
    def grid(self, window_us: Optional[int] = None, check_invariant: bool = False
             ) -> List[SweepCell]:
        """Mapping cells (all windows), or -- with ``window_us`` -- one
        verification pass over (scenario x jitter x seed) at that window."""
        windows = self.windows_us if window_us is None else (window_us,)
        return [
            SweepCell(
                scenario=name,
                seed=seed,
                mode="defined",
                window_us=window,
                jitter_us=jitter,
                check_invariant=check_invariant,
                artifact_dir=self.artifact_dir,
            )
            for name in self.scenarios
            for jitter in self.jitters_us
            for window in windows
            for seed in self.seeds
        ]

    # -- execution ------------------------------------------------------
    def map(
        self, progress: Optional[Callable[[CellResult], None]] = None
    ) -> List[CellResult]:
        """Run the mapping grid (replay checks off; deficits are the
        measurement, not a failure)."""
        return self._sweep.run_cells(self.grid(), progress=progress)

    def verify(
        self,
        window_us: int,
        progress: Optional[Callable[[CellResult], None]] = None,
    ) -> List[CellResult]:
        """Re-run (scenario x jitter x seed) at one window with the full
        Theorem-1 production-vs-replay check enabled."""
        return self._sweep.run_cells(
            self.grid(window_us=window_us, check_invariant=True),
            progress=progress,
        )

    # -- suggestion -----------------------------------------------------
    def suggest_window(self, cells: Sequence[CellResult]) -> int:
        """The minimal safe window the measured distribution supports.

        Each deficit is a lower bound on the *reach* the window needed:
        ``window + deficit`` is the measured age of the pruned
        predecessor the arrival should have sorted against.  The
        suggestion is the target-quantile reach across all late cells,
        inflated by the margin.  With zero deficits anywhere, the
        smallest mapped window that stayed clean is already the answer.
        """
        reaches = [
            c.headroom.window_us + c.headroom.deficit_at(self.target_quantile)
            for c in cells
            if c.error is None
            and c.headroom is not None
            and not c.headroom.clean
        ]
        if reaches:
            return _round_window(int(max(reaches) * (1.0 + self.margin)))
        clean = [
            c.headroom.window_us
            for c in cells
            if c.error is None and c.headroom is not None and c.headroom.clean
        ]
        if not clean:
            raise ValueError(
                "cannot suggest a window: no mapping cell completed with "
                "headroom measurements (all cells errored?)"
            )
        return min(clean)

    def suggest_node_windows(
        self, cells: Sequence[CellResult]
    ) -> Tuple[Tuple[str, int], ...]:
        """Per-node minimal safe windows behind the global suggestion.

        The pooled distribution answers "what window keeps *everything*
        safe"; the per-node headroom riding the result record (the worst
        offenders per cell) answers "which nodes actually needed it".
        Same reach formula as :meth:`suggest_window`, applied to each
        node's own distribution, taking the worst reach for a node
        across all mapping cells.  Nodes whose deficits were never
        measured (pruned before the deficit could be bounded) fall back
        to their worst *measured* quantile -- the global suggestion
        still covers them.  Worst-first, so the report leads with the
        nodes that drive the global answer.
        """
        reaches: Dict[str, int] = {}
        for c in cells:
            if c.error is not None or not c.node_headroom:
                continue
            for node_id, hr in c.node_headroom.items():
                if hr.clean:
                    continue
                reach = hr.window_us + hr.deficit_at(self.target_quantile)
                if reach > reaches.get(node_id, 0):
                    reaches[node_id] = reach
        suggestions = {
            node_id: _round_window(int(reach * (1.0 + self.margin)))
            for node_id, reach in reaches.items()
        }
        return tuple(sorted(
            suggestions.items(), key=lambda item: (-item[1], item[0])
        ))

    def run(
        self,
        suggest: bool = True,
        progress: Optional[Callable[[CellResult], None]] = None,
    ) -> EnvelopeReport:
        """Map the envelope and (optionally) produce a verified
        suggestion, escalating from the verification's own measurements
        when the first recommendation comes up short."""
        start = time.perf_counter()
        report = EnvelopeReport(
            scenarios=self.scenarios,
            jitters_us=self.jitters_us,
            windows_us=self.windows_us,
            seeds=self.seeds,
        )
        report.cells = self.map(progress=progress)
        if suggest and not report.errors():
            window = self.suggest_window(report.cells)
            rounds: List[Tuple[int, int, int]] = []
            verified = False
            invariant_clean: Optional[bool] = None
            for _ in range(MAX_VERIFY_ROUNDS):
                vcells = self.verify(window, progress=progress)
                deficits = sum(
                    c.headroom.late_count for c in vcells
                    if c.headroom is not None
                )
                errors = sum(1 for c in vcells if c.error is not None)
                rounds.append((window, deficits, errors))
                report.verification_cells = vcells
                if deficits == 0 and errors == 0:
                    invariant_clean = all(
                        c.invariant_ok is not False for c in vcells
                    )
                    # a replay divergence at zero deficits is a
                    # determinism bug, not a window-sizing problem --
                    # escalating the window cannot fix it, so stop here
                    # with the suggestion unverified
                    verified = invariant_clean
                    break
                # escalate from what the verification itself measured:
                # the worst reach it saw, margin-inflated, and never less
                # than a doubling (deficits are lower bounds; a timid
                # escalation can loop)
                seen = [
                    c.headroom.window_us + c.headroom.max_deficit_us
                    for c in vcells
                    if c.headroom is not None and not c.headroom.clean
                ]
                floor = 2 * window
                if seen:
                    floor = max(floor, int(max(seen) * (1.0 + self.margin)))
                window = _round_window(floor)
            report.suggestion = WindowSuggestion(
                window_us=rounds[-1][0],
                target_quantile=self.target_quantile,
                margin=self.margin,
                verified=verified,
                invariant_clean=invariant_clean,
                rounds=tuple(rounds),
                node_windows_us=self.suggest_node_windows(report.cells),
            )
        report.wall_seconds = time.perf_counter() - start
        return report


def _round_window(window_us: int) -> int:
    """Round a window up to :data:`WINDOW_GRANULARITY_US`."""
    grains = (window_us + WINDOW_GRANULARITY_US - 1) // WINDOW_GRANULARITY_US
    return max(WINDOW_GRANULARITY_US, grains * WINDOW_GRANULARITY_US)
