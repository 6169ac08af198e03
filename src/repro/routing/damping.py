"""BGP route-flap damping (RFC 2439 style) in virtual time.

Section 3 of the paper uses flap damping as the canary for its timer
design: damping "holds down" unstable routes for a period of *time*, so a
deterministic timer scheme must not make the network more or less stable
-- virtual time has to progress at a rate similar to the wall clock.
DEFINED achieves that by advancing one virtual-time unit per 250 ms
beacon; this module provides the damping machinery and the tests/bench
verify that hold-down durations under DEFINED match the uninstrumented
wall-clock behaviour.

The arithmetic is deliberately integer-only and evaluated lazily (penalty
decay is computed from elapsed units at observation time, never from a
background clock), so it is bit-deterministic under replay.

Per-prefix rows are immutable tuples in a plain dict.  No daemon embeds
a dampener, so nothing here is checkpointed: it is a reference model,
driven by the sweep's damping expectation and by
:class:`DampedRouteMonitor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: RFC 2439-flavoured defaults, expressed in virtual-time units (one unit
#: = one beacon interval = 250 ms by default, so 60 units = 15 s half
#: life at example scale).
DEFAULT_PENALTY_PER_FLAP = 1_000
DEFAULT_SUPPRESS_THRESHOLD = 2_500
DEFAULT_REUSE_THRESHOLD = 1_000
DEFAULT_HALF_LIFE_UNITS = 16
#: Penalties are capped so a long flap burst cannot suppress forever.
DEFAULT_MAX_PENALTY = 12_000

#: Per-prefix row layout (all immutable):
#: (penalty_milli, last_update_vt, suppressed, flaps).
DampingRow = Tuple[int, int, bool, int]


@dataclass
class FlapDampener:
    """Deterministic flap-damping engine.

    Drive it with :meth:`flap` (a route changed) and :meth:`poll` (query
    suppression state); both take the current virtual time.  Decay uses
    integer halving per elapsed half life plus linear interpolation
    within one, which is exactly reproducible across runs.
    """

    penalty_per_flap: int = DEFAULT_PENALTY_PER_FLAP
    suppress_threshold: int = DEFAULT_SUPPRESS_THRESHOLD
    reuse_threshold: int = DEFAULT_REUSE_THRESHOLD
    half_life_units: int = DEFAULT_HALF_LIFE_UNITS
    max_penalty: int = DEFAULT_MAX_PENALTY
    _routes: Dict[str, DampingRow] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.reuse_threshold >= self.suppress_threshold:
            raise ValueError("reuse threshold must be below suppress threshold")
        if self.half_life_units <= 0:
            raise ValueError("half life must be positive")

    # ------------------------------------------------------------------
    # decay arithmetic (integer, lazy)
    # ------------------------------------------------------------------
    def _decayed(self, penalty_milli: int, last_update_vt: int, vt: int) -> int:
        elapsed = max(0, vt - last_update_vt)
        halvings, rest = divmod(elapsed, self.half_life_units)
        penalty = penalty_milli >> min(halvings, 60)
        # linear interpolation within the current half life: lose
        # penalty/2 * rest/half_life
        penalty -= (penalty * rest) // (2 * self.half_life_units)
        return penalty

    def _settle(self, prefix: str, vt: int) -> DampingRow:
        row = self._routes.get(prefix)
        if row is None:
            row = (0, vt, False, 0)
        penalty, last, suppressed, flaps = row
        penalty = self._decayed(penalty, last, vt)
        if suppressed and penalty <= self.reuse_threshold * 1000:
            suppressed = False
        settled: DampingRow = (penalty, vt, suppressed, flaps)
        if settled != row:
            self._routes[prefix] = settled
        return settled

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def flap(self, prefix: str, vt: int) -> bool:
        """Record one flap; returns the post-flap suppression state."""
        penalty, _vt, suppressed, flaps = self._settle(prefix, vt)
        penalty = min(
            penalty + self.penalty_per_flap * 1000, self.max_penalty * 1000
        )
        if penalty > self.suppress_threshold * 1000:
            suppressed = True
        self._routes[prefix] = (penalty, vt, suppressed, flaps + 1)
        return suppressed

    def poll(self, prefix: str, vt: int) -> bool:
        """True when the prefix is currently suppressed."""
        if prefix not in self._routes:
            return False
        return self._settle(prefix, vt)[2]

    def penalty(self, prefix: str, vt: int) -> int:
        """Current (decayed) penalty, in flap units."""
        if prefix not in self._routes:
            return 0
        return self._settle(prefix, vt)[0] // 1000

    def reuse_eta_units(self, prefix: str, vt: int) -> Optional[int]:
        """Units until the prefix becomes reusable (None if not
        suppressed)."""
        if not self.poll(prefix, vt):
            return None
        penalty = self._routes[prefix][0]
        target = self.reuse_threshold * 1000
        units = 0
        while penalty > target and units < 10_000:
            penalty -= penalty // (2 * self.half_life_units)
            units += 1
        return units


class DampedRouteMonitor:
    """A small daemon-side helper: watches a prefix's announcements and
    applies damping, recording (virtual-time, suppression) transitions so
    tests can compare hold-down *durations* across stacks."""

    def __init__(self, dampener: Optional[FlapDampener] = None) -> None:
        self.dampener = dampener if dampener is not None else FlapDampener()
        self.transitions: List[Tuple[int, str, bool]] = []

    def on_flap(self, prefix: str, vt: int) -> None:
        before = self.dampener.poll(prefix, vt)
        after = self.dampener.flap(prefix, vt)
        if after != before:
            self.transitions.append((vt, prefix, after))

    def check(self, prefix: str, vt: int) -> bool:
        now = self.dampener.poll(prefix, vt)
        history = [s for _t, p, s in self.transitions if p == prefix]
        last = history[-1] if history else False
        if last != now:
            self.transitions.append((vt, prefix, now))
        return now

    def suppression_spans(self, prefix: str) -> List[Tuple[int, int]]:
        """(start_vt, end_vt) hold-down intervals for the prefix."""
        spans = []
        start = None
        for vt, p, suppressed in self.transitions:
            if p != prefix:
                continue
            if suppressed and start is None:
                start = vt
            elif not suppressed and start is not None:
                spans.append((start, vt))
                start = None
        return spans
