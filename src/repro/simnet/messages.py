"""Wire messages and DEFINED causal annotations.

Every message travelling through the simulated network is a
:class:`Message`.  When a network is instrumented by DEFINED-RB, the shim
attaches an :class:`Annotation` carrying the fields from Section 2.2 of the
paper:

* ``origin`` (the paper's *n_i*) -- identifier of the node that generated
  the first message of the causal chain;
* ``seq`` (*s_i*) -- strictly increasing sequence number assigned by the
  originating node;
* ``delay_us`` (*d_i*) -- deterministic estimate of the accumulated link
  delay from the originating node to the receiver, built from pre-measured
  average link delays;
* ``group`` -- the beacon group number (Section 2.2, "timesteps");
* ``chain`` -- the causal chain length within the group, used to bound
  chains (messages over the bound are pushed to the next group);
* ``sub`` -- a deterministic per-sender disambiguator.  The paper's triple
  ``(d_i, n_i, s_i)`` is not a total order when one delivery emits several
  messages along the same path; ``sub`` breaks those ties and is itself
  deterministic because it is produced by (deterministic) daemon execution
  and is checkpointed with the shim state.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple, Optional, Tuple

#: Sentinel ``d_i`` used for timer pseudo-entries: timers of group *g* are
#: ordered after every real message of group *g* but before any message of
#: group *g+1*.
TIMER_DELAY_SENTINEL = 2**62


class Annotation(NamedTuple):
    """DEFINED-RB causal annotation (Section 2.2), an immutable named tuple.

    Immutable because ordering keys and output identities are built from
    it; a tuple because one is built for every message a daemon sends, so
    construction and field reads are on the hot path.  Equality and hash
    go by field values, as for any tuple.

    ``sender`` is the node that put this particular message on the wire.
    It is part of every ordering key because the paper's triple plus our
    ``sub`` tiebreaker is still not globally unique: ``sub`` counters are
    per-node, so two *different* relays of the same origination (e.g.
    acknowledgements from two neighbors) can coincide on
    ``(n_i, s_i, sub)`` -- and even on the accumulated delay estimate.
    Colliding keys would make two distinct messages indistinguishable
    from an anti-message replacement race.
    """

    origin: str
    seq: int
    delay_us: int
    group: int
    chain: int = 0
    sub: int = 0
    sender: str = ""

    def sort_key(self) -> Tuple[int, int, str, int, int, str]:
        """The paper's ordering key: group, then d_i, then n_i, then s_i,
        with the deterministic (sub, sender) tiebreakers appended."""
        return (self.group, self.delay_us, self.origin, self.seq, self.sub,
                self.sender)

    def extended(
        self,
        link_delay_us: int,
        sub: int,
        over_chain_bound: bool,
        sender: str = "",
        spill_bound_us: Optional[int] = None,
    ) -> "Annotation":
        """Annotation for a message *caused by* a message carrying ``self``.

        Per the paper: the child keeps the parent's origin and sequence
        number, accumulates the outgoing link's average delay into ``d_i``,
        and inherits the group number -- unless the causal chain exceeded
        the configured bound, in which case it is assigned to the next
        group (and the chain length restarts).

        ``spill_bound_us`` (normally the beacon interval) keeps the
        estimate *honest*: a group-``g`` message with ``d_i >= interval``
        is predicted to arrive during group ``g+1``'s phase or later, so
        tagging it ``g`` misplaces it -- its ordering key sorts below an
        entire phase of already-delivered traffic at every receiver,
        turning long floods under super-beacon jitter into rollback
        cascades deep enough to outrun the history window.  When the
        accumulated delay crosses the bound, the annotation spills into
        the next group phase (deterministically, so the production shim
        and the lockstep replay agree bit for bit) and ``d_i`` keeps the
        remainder: the estimated offset into the phase it now belongs to.
        Lexicographic ``(group, d_i)`` order is then exactly order by
        ``group * bound + d_i``, so spilling preserves the strict
        causal monotonicity of the key along chains.
        """
        group = self.group
        chain = self.chain + 1
        delay = self.delay_us + link_delay_us
        if over_chain_bound:
            group += 1
            chain = 0
        if spill_bound_us is not None and spill_bound_us > 0:
            while delay >= spill_bound_us:
                group += 1
                chain = 0
                delay -= spill_bound_us
        return Annotation(self.origin, self.seq, delay, group, chain, sub, sender)


def intern_payload_repr(payload: Any) -> str:
    """Canonical, interned repr of a message payload.

    The repr is the payload's *identity* in delivery-log tags and output
    ids, so it is computed exactly once per message -- at origination,
    where the store contract freezes the payload -- and interned:
    floods re-send the same few payloads thousands of times, and
    rollback re-executions re-tag the same deliveries, so sharing one
    string object per distinct payload keeps the hot loop allocation-free
    and makes tag comparisons pointer-fast.
    """
    return sys.intern(repr(payload))


#: Protocol names of DEFINED control traffic (beacons, unsends, ACKs).
#: Control messages are counted separately in the statistics because
#: Figure 6a/8a report control overhead.
CONTROL_PROTOCOLS = frozenset({"_beacon", "_unsend", "_ack"})


@dataclass
class Message:
    """A message on the wire.

    ``uid`` is globally unique and assigned by the :class:`~repro.simnet.network.Network`
    when the message is first transmitted.  Anti-messages ("unsends") refer
    to these uids.  ``payload`` is protocol-specific and must be treated as
    immutable by receivers.
    """

    src: str
    dst: str
    protocol: str
    payload: Any
    uid: int = -1
    annotation: Optional[Annotation] = None
    size_bytes: int = 64
    sent_at_us: int = -1
    #: Canonical payload repr, frozen at origination (see
    #: :func:`intern_payload_repr`).  ``None`` until first requested;
    #: :meth:`with_annotation` carries it across copies so re-annotated
    #: relays never re-render it.
    payload_repr: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def is_control(self) -> bool:
        """True for DEFINED's own control traffic (not application data)."""
        return self.protocol in CONTROL_PROTOCOLS

    def canonical_payload_repr(self) -> str:
        """The interned canonical payload repr, computed at most once.

        Callers on the identity path (tags, output ids) must use this
        instead of ``repr(self.payload)``: mutating a payload after
        origination is a store-contract violation (lint rule STO204), and
        the cache makes the freeze observable -- identity stays what it
        was when the message entered the network.
        """
        text = self.payload_repr
        if text is None:
            text = intern_payload_repr(self.payload)
            self.payload_repr = text
        return text

    def with_annotation(self, annotation: Annotation) -> "Message":
        """Return a copy carrying ``annotation`` (messages are value-like)."""
        return replace(self, annotation=annotation)

    def describe(self) -> str:
        """One-line human-readable summary used by the interactive debugger."""
        ann = ""
        if self.annotation is not None:
            a = self.annotation
            ann = f" [g={a.group} d={a.delay_us} n={a.origin} s={a.seq}.{a.sub}]"
        return f"{self.protocol} {self.src}->{self.dst} uid={self.uid}{ann}"


@dataclass
class Unsend:
    """Payload of an anti-message: roll back the listed message uids.

    Sent by a node performing a rollback to every neighbor it had sent
    now-invalidated messages to (Section 2.2, "Performing the rollback").

    ``uids`` must be **canonical** (sorted, duplicate-free): the rollback
    planners (:func:`repro.core.rollback.collect_unsends`, the lockstep
    unsend buffers) produce them that way at origination, so the
    constructor no longer re-canonicalizes on every construction -- this
    sits on the rollback hot path of flap storms.  Use :meth:`of` for
    uids of unknown provenance.
    """

    uids: Tuple[int, ...] = field(default_factory=tuple)

    @classmethod
    def of(cls, uids) -> "Unsend":
        """Canonicalize arbitrary uids (sorted, deduplicated) once."""
        return cls(uids=tuple(sorted(set(uids))))
