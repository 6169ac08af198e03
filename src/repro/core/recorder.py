"""Partial recordings: the only log DEFINED needs.

The motivation of the paper is that *comprehensive* recording (every
message at every node, as in Friday/OFRewind) does not scale, while
*partial* recording (external events only) normally cannot reproduce
nondeterministic bugs.  DEFINED-RB's determinism closes that gap: with
internal nondeterminism masked, replaying just the external events --
annotated with the group number and origin sequence each received in
production -- reproduces the entire execution (Theorem 1).

The recorder therefore captures, per observed external event: the
observing node, the event itself, the group number current at observation,
and the node-local origin sequence number.  It additionally captures
*send drops*: the deterministic identities of messages the daemon emitted
over a down link (or toward a dead node).  These are interface-with-the-
world facts (Section 2.5, "DEFINED records inputs at interfaces with
external systems") that the lockstep replay must honor, since its reliable
transport would otherwise deliver them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.simnet.events import ExternalEvent

#: Deterministic identity of one emitted message: (sender, origin, seq,
#: sub, group, dst, protocol).  Stable across runs because the sending
#: daemon executes deterministically under DEFINED.  The sender is part
#: of the identity because per-node sub counters can coincide across
#: senders.
SendIdentity = Tuple[str, str, int, int, int, str, str]

#: Synthetic "node id" under which network-level topology events are
#: recorded: they have no observing daemon, and the lockstep coordinator
#: applies them to the debugging network's logical topology at group
#: start.
NET_EVENTS_NODE = "__net__"


@dataclass(frozen=True)
class RecordedEvent:
    """One external event as logged at one node.

    ``offset_us`` is how far into its group the event was observed; the
    replay feeds it back into the d_i estimates of messages the event's
    processing originates (mid-group originations genuinely arrive later
    than the group's beacon-aligned traffic).
    """

    node: str
    time_us: int
    kind: str
    target: Any
    data: Any
    group: int
    seq: int
    offset_us: int = 0

    def to_external_event(self) -> ExternalEvent:
        return ExternalEvent(
            time_us=self.time_us, kind=self.kind, target=self.target, data=self.data
        )

    def estimated_bytes(self) -> int:
        """Approximate on-disk footprint (for the log-volume ablation)."""
        return 48 + len(self.node) + len(self.kind) + len(repr(self.target)) + len(
            repr(self.data)
        )


@dataclass
class Recording:
    """A complete partial recording of one production run."""

    events: List[RecordedEvent] = field(default_factory=list)
    drops: FrozenSet[SendIdentity] = frozenset()
    #: Highest group number the production run reached; the lockstep
    #: replay iterates groups 0..horizon_group inclusive so that purely
    #: timer-driven activity (periodic announcements) is reproduced too.
    horizon_group: int = 0
    #: Per-hop processing estimate the production shims folded into d_i;
    #: the replay must use the same value or its annotations (hence
    #: ordering keys) would differ from production's.
    hop_cost_us: int = 140
    #: The production network's measured average link delays, keyed
    #: ``"src>dst"``.  d_i estimates are *configuration* shared by both
    #: networks (Section 2.2 fixes them at launch); the debugging
    #: network's own links may have entirely different characteristics.
    delay_estimates: Dict[str, int] = field(default_factory=dict)
    #: The production beacon interval, used as the chain-delay spill
    #: bound: annotations whose accumulated d_i crosses it spill into the
    #: next group phase (see :meth:`Annotation.extended`).  The replay
    #: must use the production value, not its own network's, or its
    #: recomputed annotations (hence ordering keys and drop identities)
    #: would differ.  ``None`` disables spilling; a recording file must
    #: state the value either way (:meth:`from_json`).
    spill_bound_us: Optional[int] = None

    def by_group(self) -> Dict[int, List[RecordedEvent]]:
        """Events bucketed by group, each bucket in (node, seq) order."""
        out: Dict[int, List[RecordedEvent]] = {}
        for ev in self.events:
            out.setdefault(ev.group, []).append(ev)
        for bucket in out.values():
            bucket.sort(key=lambda ev: (ev.node, ev.seq))
        return out

    def size_bytes(self) -> int:
        return sum(ev.estimated_bytes() for ev in self.events) + 32 * len(self.drops)

    # ------------------------------------------------------------------
    # (de)serialization -- recordings are meant to move from a production
    # site to a debugging site, so they must round-trip through files.
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        doc = {
            "format": "defined-recording-v1",
            "horizon_group": self.horizon_group,
            "hop_cost_us": self.hop_cost_us,
            "spill_bound_us": self.spill_bound_us,
            "delay_estimates": dict(sorted(self.delay_estimates.items())),
            "events": [
                {
                    "node": ev.node,
                    "time_us": ev.time_us,
                    "kind": ev.kind,
                    "target": _encode(ev.target),
                    "data": _encode(ev.data),
                    "group": ev.group,
                    "seq": ev.seq,
                    "offset_us": ev.offset_us,
                }
                for ev in self.events
            ],
            "drops": [list(d) for d in sorted(self.drops)],
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Recording":
        """The recording :meth:`to_json` wrote.  The d_i inputs
        (``hop_cost_us``, ``spill_bound_us``, ``delay_estimates``, each
        event's ``offset_us``) have no defaults here: a replay on a
        default could diverge without a word."""
        doc = json.loads(text)
        if doc.get("format") != "defined-recording-v1":
            raise ValueError("not a DEFINED recording file")
        events = [
            RecordedEvent(
                node=e["node"],
                time_us=e["time_us"],
                kind=e["kind"],
                target=_decode(e["target"]),
                data=_decode(e["data"]),
                group=e["group"],
                seq=e["seq"],
                offset_us=_required(e, "offset_us", "recording event"),
            )
            for e in doc["events"]
        ]
        drops = frozenset(tuple(d) for d in doc["drops"])
        return cls(
            events=events,
            drops=drops,
            horizon_group=doc["horizon_group"],
            hop_cost_us=_required(doc, "hop_cost_us"),
            delay_estimates=_required(doc, "delay_estimates"),
            spill_bound_us=_required(doc, "spill_bound_us"),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "Recording":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def _required(doc: Dict[str, Any], key: str, what: str = "recording") -> Any:
    try:
        return doc[key]
    except KeyError:
        raise ValueError(f"{what} has no {key!r} field") from None


def _encode(value: Any) -> Any:
    """JSON-encode targets/payloads, preserving tuples."""
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(v) for v in value]}
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    return value


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "__tuple__" in value and len(value) == 1:
            return tuple(_decode(v) for v in value["__tuple__"])
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


class Recorder:
    """Accumulates a :class:`Recording` during a production run.

    One recorder is shared by all shims in a network (the paper logs at
    each node; shipping the logs to one place is an offline concern).
    """

    def __init__(self) -> None:
        self._events: List[RecordedEvent] = []
        self._drops: set = set()
        self._horizon_group = 0
        self._topology_seq = 0
        #: Set by the harness to the shims' per-hop estimate (must reach
        #: the replay).
        self.hop_cost_us = 140
        #: Set by the harness to the production network's measured
        #: average link delays ("src>dst" -> microseconds).
        self.delay_estimates: Dict[str, int] = {}
        #: Set by the harness to the production beacon interval (the
        #: shims' chain-delay spill bound; must reach the replay).
        self.spill_bound_us: Optional[int] = None
        #: Group provider for topology events (typically ``lambda:
        #: beacon_service.group``); set by the harness.
        self.group_provider = None

    def record_event(
        self,
        node: str,
        event: ExternalEvent,
        group: int,
        seq: int,
        time_us: int,
        offset_us: int = 0,
    ) -> None:
        self._events.append(
            RecordedEvent(
                node=node,
                time_us=time_us,
                kind=event.kind,
                target=event.target,
                data=event.data,
                group=group,
                seq=seq,
                offset_us=offset_us,
            )
        )

    def record_send(self, identity: SendIdentity, deliverable: bool) -> None:
        """Record the outcome of one deterministic send: last outcome wins.

        The drop set must reflect the *final* execution, not the union of
        every speculative one: under rollbacks that straddle a link flap,
        the same send identity is re-emitted across re-executions under
        different physical link states.  A sticky "ever dropped" set then
        makes the lockstep replay suppress messages the final production
        execution delivered (or vice versa) -- the replay diverges with
        zero slack deficits.  Recording the latest outcome matches the
        final execution, because the final (never rolled back) emission of
        an identity is by definition the last one recorded.
        """
        if deliverable:
            self._drops.discard(identity)
        else:
            self._drops.add(identity)

    def record_topology(self, event: ExternalEvent, group: Optional[int] = None) -> None:
        """Log a network-level topology fact (link/node up/down).

        These have no observing daemon (a dead router records nothing) but
        the debugging network must still replay their effect; they are
        stored under the synthetic observer :data:`NET_EVENTS_NODE` and
        applied by the lockstep coordinator at the start of their group.
        """
        if group is None:
            group = self.group_provider() if self.group_provider is not None else 0
        self._events.append(
            RecordedEvent(
                node=NET_EVENTS_NODE,
                time_us=event.time_us,
                kind=event.kind,
                target=event.target,
                data=event.data,
                group=group,
                seq=self._topology_seq,
            )
        )
        self._topology_seq += 1

    def retag_topology_event(self, kind: str, target: Any, group: int) -> None:
        """Rewrite the group of the most recent network-level event
        matching ``(kind, target)``.

        The crash protocol needs this: the network logs the raw
        ``node_down`` under the beacon service's current group, but the
        dying shim then computes the *effective* death group (the first
        group whose traffic was not yet closed at the crash instant, see
        :meth:`DefinedShim.on_crash <repro.core.shim.DefinedShim.on_crash>`)
        and retracts everything from there -- so the replay must
        deactivate the node at that same group.
        """
        for i in range(len(self._events) - 1, -1, -1):
            ev = self._events[i]
            if ev.node == NET_EVENTS_NODE and ev.kind == kind and ev.target == target:
                self._events[i] = replace(ev, group=group)
                return

    def note_group(self, group: int) -> None:
        if group > self._horizon_group:
            self._horizon_group = group

    def recording(self) -> Recording:
        return Recording(
            events=list(self._events),
            drops=frozenset(self._drops),
            horizon_group=self._horizon_group,
            hop_cost_us=self.hop_cost_us,
            delay_estimates=dict(self.delay_estimates),
            spill_bound_us=self.spill_bound_us,
        )

    @property
    def event_count(self) -> int:
        return len(self._events)
