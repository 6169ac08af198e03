"""Delivered-event history: the sliding window of Section 2.2.

Each DEFINED-RB node keeps the events it has delivered to its daemon since
(roughly) the last couple of group intervals, *in delivered order* -- which
the rollback machinery keeps equal to ordering-function order at all
times.  Every entry carries the checkpoint taken just before it was
delivered and the messages its processing emitted, which is exactly what
a rollback needs: restore the checkpoint, replay the inputs, unsend the
outputs the replay did not reproduce.

Entries become prunable once no message that could sort before them can
still arrive; the paper bounds this by twice the maximum propagation time
across the network (plus slack for jitter; see footnote 3).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.checkpoint import Checkpoint
from repro.core.ordering import OrderKey
from repro.simnet.events import ExternalEvent
from repro.simnet.messages import Message


def _quantile_us(ordered: Sequence[int], q: float) -> int:
    """Nearest-rank quantile over a pre-sorted sample list.

    Local on purpose: :mod:`repro.core` stays free of
    :mod:`repro.analysis` imports, and nearest-rank (no interpolation)
    keeps the stats integers -- they ride a fixed-width shared-memory
    record (:mod:`repro.sweep_stream`)."""
    if not ordered:
        return 0
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return int(ordered[rank])


@dataclass(frozen=True)
class WindowHeadroomStats:
    """The measured slack-deficit distribution of one DEFINED-RB run.

    Every arrival that sorts below the pruned history window carries a
    *slack deficit*: a lower bound on how much more ``window_us`` would
    have been needed to keep it ordered (see
    :class:`~repro.core.shim.HistoryWindowWarning`).  Warnings surface
    the first such delivery and escalations; this object captures the
    *full* distribution -- count, max, quantiles -- so the window-envelope
    mapper (:mod:`repro.envelope`) can recommend a window from data
    instead of from the worst warning alone.

    ``window_us`` is the effective window of the run (override or the
    default formula).  All deficit fields are 0 when ``late_count`` is 0.
    Late arrivals whose deficit could not be measured (the pruned
    predecessor predates measurement) are counted in ``late_count`` and
    ``unmeasured_count`` but contribute no sample -- counted, never
    invented.
    """

    window_us: int
    late_count: int = 0
    max_deficit_us: int = 0
    p50_deficit_us: int = 0
    p90_deficit_us: int = 0
    p99_deficit_us: int = 0
    #: Late arrivals whose pruned predecessor predates measurement: the
    #: window was definitely too small, but by an unknown amount.  They
    #: count toward ``late_count`` and are *excluded* from the deficit
    #: quantiles -- folding them in as zeros dragged p50/p90 toward 0 and
    #: made ``envelope --suggest`` optimistic.
    unmeasured_count: int = 0

    @classmethod
    def from_samples(
        cls,
        window_us: int,
        deficits_us: Sequence[int],
        unmeasured_count: int = 0,
    ) -> "WindowHeadroomStats":
        ordered = sorted(int(d) for d in deficits_us)
        return cls(
            window_us=int(window_us),
            late_count=len(ordered) + int(unmeasured_count),
            max_deficit_us=int(ordered[-1]) if ordered else 0,
            p50_deficit_us=_quantile_us(ordered, 0.50),
            p90_deficit_us=_quantile_us(ordered, 0.90),
            p99_deficit_us=_quantile_us(ordered, 0.99),
            unmeasured_count=int(unmeasured_count),
        )

    @property
    def clean(self) -> bool:
        """True when the window covered every arrival (zero deficits)."""
        return self.late_count == 0

    def deficit_at(self, quantile: float) -> int:
        """The recorded deficit closest to ``quantile`` (0..1].

        Only the fixed summary points travel through the result record,
        so this maps a requested quantile onto the nearest one at or
        above it -- conservative for window sizing."""
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile out of range: {quantile}")
        if quantile <= 0.50:
            return self.p50_deficit_us
        if quantile <= 0.90:
            return self.p90_deficit_us
        if quantile <= 0.99:
            return self.p99_deficit_us
        return self.max_deficit_us

    def to_dict(self) -> Dict[str, int]:
        return {
            "window_us": self.window_us,
            "late_count": self.late_count,
            "max_deficit_us": self.max_deficit_us,
            "p50_deficit_us": self.p50_deficit_us,
            "p90_deficit_us": self.p90_deficit_us,
            "p99_deficit_us": self.p99_deficit_us,
            "unmeasured_count": self.unmeasured_count,
        }


@dataclass
class HistoryEntry:
    """One event delivered (or to be delivered) to the daemon.

    ``kind`` is ``"msg"`` (a data message), ``"ext"`` (an external event
    observed locally) or ``"timer"`` (a virtual-time timer firing).
    """

    kind: str
    key: OrderKey
    msg: Optional[Message] = None
    event: Optional[ExternalEvent] = None
    group: int = 0
    seq: int = 0
    timer_key: Optional[str] = None
    #: For "ext" entries: how far into the group the event was observed.
    #: Originations triggered by the event start their d_i estimates from
    #: this offset, so that a mid-group event's flood is predicted to
    #: arrive *after* the group's beacon-aligned traffic (which it does).
    origin_offset_us: int = 0
    checkpoint: Optional[Checkpoint] = None
    #: The messages processing the entry put on the wire, in emission
    #: order, under both stacks: each carries the uid an unsend names.
    #: A re-execution that re-emits one byte for byte adopts the *old*
    #: message here instead of sending (lazy cancellation); its identity
    #: (:func:`repro.core.rollback.output_id`) is derived only then.
    outputs: List[Message] = field(default_factory=list)
    delivered_at_us: int = -1
    log_index: int = -1
    #: Cached identity tag.  The fields a tag encodes are fixed at
    #: creation (the payload by the store's freeze-at-origination
    #: contract), so the render happens at most once per entry --
    #: rollback re-executions and lockstep replay waves reuse it.
    cached_tag: Optional[str] = field(default=None, repr=False, compare=False)

    def tag(self) -> str:
        """Stable identity tag for the delivery log / fingerprint.

        Contains no timestamps, uids or other run-varying data -- only the
        deterministic identity of the event -- so DEFINED-RB runs under
        different seeds and DEFINED-LS replays produce comparable logs.
        Rendered once, with the interned payload repr, and cached.
        """
        tag = self.cached_tag
        if tag is None:
            tag = self.render_tag()
            self.cached_tag = tag
        return tag

    def render_tag(self) -> str:
        """Render the tag from the entry's fields (no cache)."""
        if self.kind == "msg":
            assert self.msg is not None and self.msg.annotation is not None
            a = self.msg.annotation
            return (
                f"m|{self.msg.protocol}|{self.msg.src}|{a.origin}|{a.seq}|"
                f"{a.sub}|{a.group}|{a.delay_us}|{self.msg.canonical_payload_repr()}"
            )
        if self.kind == "ext":
            assert self.event is not None
            e = self.event
            return f"e|{e.kind}|{e.target!r}|{self.group}|{self.seq}"
        return f"t|{self.timer_key}|{self.group}"

    def reset_for_replay(self) -> None:
        """Strip per-delivery state so the entry can be delivered again.

        The cached tag survives: replay re-delivers the *same* event, so
        its identity -- and therefore its tag -- is unchanged by design.
        """
        self.checkpoint = None
        self.outputs = []
        self.delivered_at_us = -1
        self.log_index = -1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HistoryEntry {self.kind} key={self.key}>"


class DeliveredHistory:
    """Sorted, prunable sequence of delivered :class:`HistoryEntry`.

    Invariant: ``entries`` is strictly increasing by ``key``.  Appends
    assert this; out-of-order admissions must go through rollback, which
    truncates and re-appends in sorted order.
    """

    def __init__(self) -> None:
        self.entries: List[HistoryEntry] = []
        self._keys: List[OrderKey] = []
        #: uid -> key of every delivered message in the window, so an
        #: unsend finds its target by bisection instead of scanning.
        self._uid_key: Dict[int, OrderKey] = {}
        #: Largest key ever pruned; a later arrival sorting below this is
        #: a "late message" the window could not protect (counted, not
        #: crashed on -- see shim docs).
        self.last_pruned_key: Optional[OrderKey] = None
        #: Delivery time of that entry: how long ago the window boundary
        #: passed, which is what sizes the slack deficit when an arrival
        #: turns out to be late.
        self.last_pruned_at_us: Optional[int] = None
        self.total_pruned = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> HistoryEntry:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def lower_bound(self, key: OrderKey) -> int:
        """Index of the first entry whose key is ``>= key`` (``len(self)``
        if there is none): everything before it is unaffected by an input
        with that key appearing, changing or disappearing."""
        return bisect.bisect_left(self._keys, key)

    def locate(self, key: OrderKey) -> Tuple[int, bool]:
        """:meth:`lower_bound` of ``key``, and whether the entry there
        has exactly ``key`` -- one bisection for callers that need both."""
        keys = self._keys
        i = bisect.bisect_left(keys, key)
        return i, i < len(keys) and keys[i] == key

    def insertion_index(self, key: OrderKey) -> int:
        """Where ``key`` would slot into the current window.

        ``len(self)`` means "after everything delivered" (in-order, safe
        to deliver speculatively); anything smaller means a rollback to
        that index is required.
        """
        i, exact = self.locate(key)
        if exact:
            raise ValueError(f"duplicate ordering key {key}")
        return i

    def index_of_uid(self, uid: int) -> Optional[int]:
        """Index of the delivered message with this uid, or None."""
        key = self._uid_key.get(uid)
        return None if key is None else self.lower_bound(key)

    def append(self, entry: HistoryEntry) -> None:
        if self._keys and entry.key <= self._keys[-1]:
            raise ValueError(
                f"history append out of order: {entry.key} after {self._keys[-1]}"
            )
        self.entries.append(entry)
        self._keys.append(entry.key)
        if entry.msg is not None:
            self._uid_key[entry.msg.uid] = entry.key

    def truncate_from(self, index: int) -> List[HistoryEntry]:
        """Remove and return ``entries[index:]`` (the rollback victims)."""
        rolled = self.entries[index:]
        del self.entries[index:]
        del self._keys[index:]
        self._forget_uids(rolled)
        return rolled

    def _forget_uids(self, removed: Sequence[HistoryEntry]) -> None:
        for entry in removed:
            if entry.msg is not None:
                self._uid_key.pop(entry.msg.uid, None)

    def prune_before_time(
        self,
        cutoff_us: int,
        keep_min: int = 1,
        collect: Optional[List[HistoryEntry]] = None,
    ) -> int:
        """Drop leading entries delivered before ``cutoff_us``.

        At least ``keep_min`` entries are retained so a freshly-quiet node
        still has a rollback anchor.  Returns the number pruned; when
        ``collect`` is given, the pruned entries are appended to it (the
        shim keeps a uid -> log-index map of pruned message deliveries so
        an unsend that outruns the window can still retract its target
        from the execution log).
        """
        limit = len(self.entries) - keep_min
        n = 0
        while n < limit and self.entries[n].delivered_at_us < cutoff_us:
            n += 1
        if n > 0:
            self.last_pruned_key = self._keys[n - 1]
            self.last_pruned_at_us = self.entries[n - 1].delivered_at_us
            pruned = self.entries[:n]
            if collect is not None:
                collect.extend(pruned)
            self._forget_uids(pruned)
            del self.entries[:n]
            del self._keys[:n]
            self.total_pruned += n
        return n

    def is_late(self, key: OrderKey) -> bool:
        """True when ``key`` sorts below something already pruned."""
        return self.last_pruned_key is not None and key < self.last_pruned_key

    def keys(self) -> Tuple[OrderKey, ...]:
        return tuple(self._keys)
