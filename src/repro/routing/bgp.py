"""A BGP-style path-vector daemon with the XORP 0.4 decision bug (Fig. 4).

The decision process implements the three rules the paper's case study
needs:

1. shortest AS-path length wins;
2. among the survivors, paths are grouped by neighboring AS and, within
   each group, only the lowest multi-exit discriminator (MED) survives --
   this per-group comparison is what makes BGP preference *non-
   transitive*;
3. among the remaining candidates, the lowest IGP distance wins.

Two decision implementations share the daemon:

* :class:`CorrectBgp` re-runs the full selection over *all* valid paths
  whenever anything changes -- order-independent;
* :class:`BuggyXorpBgp` reproduces XORP 0.4's defect: an incoming path is
  compared *pairwise against the current best only*.  Because MED makes
  preference non-transitive, the winner then depends on arrival order
  (p1,p2,p3 -> p3 but p1,p3,p2 -> p2), a textbook nondeterministic
  ordering bug.

Paths enter the system as external announcements (eBGP, recorded external
events) and propagate over iBGP sessions between the instrumented
routers.  iBGP propagation re-advertises the router's *best* path when it
changes, with the incoming update as causal parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.routing.base import Daemon
from repro.simnet.events import ANNOUNCE, ExternalEvent
from repro.simnet.messages import Message
from repro.simnet.node import Stack

PROTO_UPDATE = "bgp_update"


def _canonical(doc: Dict[str, Any]) -> Tuple:
    """Immutable canonical form of a wire doc for checkpoint-store rows."""
    return tuple(sorted(doc.items()))


@dataclass(frozen=True)
class BgpPath:
    """One candidate path for a prefix.

    ``igp_dist`` is the advertising router's IGP distance to the exit
    point; in the paper's Figure 4 scenario each path carries a fixed
    IGP distance, which we model directly.
    """

    prefix: str
    path_id: str
    as_path_len: int
    med: int
    neighbor_as: str
    igp_dist: int

    def to_wire(self) -> Dict[str, Any]:
        """JSON-able representation (announcements live in recordings)."""
        return {
            "prefix": self.prefix,
            "path_id": self.path_id,
            "as_path_len": self.as_path_len,
            "med": self.med,
            "neighbor_as": self.neighbor_as,
            "igp_dist": self.igp_dist,
        }

    @classmethod
    def from_wire(cls, doc: Dict[str, Any]) -> "BgpPath":
        return cls(
            prefix=doc["prefix"],
            path_id=doc["path_id"],
            as_path_len=doc["as_path_len"],
            med=doc["med"],
            neighbor_as=doc["neighbor_as"],
            igp_dist=doc["igp_dist"],
        )

    def sort_key(self) -> Tuple[str, str]:
        return (self.prefix, self.path_id)


def full_selection(paths: List[BgpPath]) -> Optional[BgpPath]:
    """The correct, order-independent decision process."""
    if not paths:
        return None
    shortest = min(p.as_path_len for p in paths)
    survivors = [p for p in paths if p.as_path_len == shortest]
    by_group: Dict[str, List[BgpPath]] = {}
    for p in survivors:
        by_group.setdefault(p.neighbor_as, []).append(p)
    med_survivors: List[BgpPath] = []
    for neighbor_as in sorted(by_group):
        group = by_group[neighbor_as]
        lowest = min(p.med for p in group)
        med_survivors.extend(p for p in group if p.med == lowest)
    best_igp = min(p.igp_dist for p in med_survivors)
    finalists = sorted(
        (p for p in med_survivors if p.igp_dist == best_igp),
        key=BgpPath.sort_key,
    )
    return finalists[0]


def pairwise_prefer(challenger: BgpPath, incumbent: BgpPath) -> bool:
    """True if ``challenger`` beats ``incumbent`` head-to-head.

    This is the comparison XORP 0.4 applies incrementally: AS-path length
    first; MED only when both paths come from the same neighboring AS
    (the rule that breaks transitivity); IGP distance last.
    """
    if challenger.as_path_len != incumbent.as_path_len:
        return challenger.as_path_len < incumbent.as_path_len
    if challenger.neighbor_as == incumbent.neighbor_as and challenger.med != incumbent.med:
        return challenger.med < incumbent.med
    if challenger.igp_dist != incumbent.igp_dist:
        return challenger.igp_dist < incumbent.igp_dist
    return challenger.sort_key() < incumbent.sort_key()


class BgpDaemon(Daemon):
    """Path-vector daemon; subclasses choose the decision process.

    State: ``adj_rib_in`` (keyed ``(prefix, path_id)``) and
    ``best`` (keyed ``prefix``) are checkpoint-store namespaces holding
    wire docs in canonical immutable form (``tuple(sorted(doc.items()))``)
    -- the write-barrier contract forbids storing the mutable dicts
    themselves.  Reads materialize dicts at the boundary.
    """

    #: Set by subclasses: "correct" or "buggy-xorp-0.4".
    decision_name = "abstract"

    def __init__(self, node_id: str, stack: Stack, peers: List[str]) -> None:
        super().__init__(node_id, stack)
        self.peers = sorted(peers)
        self.adj_rib_in = self.store.namespace("adj_rib_in")
        self.best = self.store.namespace("best")

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """The stored rows rendered as wire dicts."""
        return {
            "adj_rib_in": {k: dict(v) for k, v in self.adj_rib_in.items()},
            "best": {k: dict(v) for k, v in self.best.items()},
        }

    # ------------------------------------------------------------------
    # lifecycle and inputs
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self.adj_rib_in.clear()
        self.best.clear()

    def on_external(self, event: ExternalEvent) -> None:
        if event.kind != ANNOUNCE:
            return
        path = BgpPath.from_wire(event.data)
        # A border router relays every eBGP-learned path into iBGP (each
        # border router is a distinct exit point, so internal routers see
        # all candidate exits -- the Figure 4 setup where p1..p3 all reach
        # R3).  The relay is an origination: it is caused by the external
        # announcement, not by any internal message.
        payload = tuple(sorted(path.to_wire().items()))
        for peer in self.peers:
            self.send(peer, PROTO_UPDATE, payload, parent=None, size_bytes=80)
        self._learn(path, parent=None)

    def on_message(self, msg: Message) -> None:
        if msg.protocol != PROTO_UPDATE:
            raise ValueError(f"BGP daemon got unknown protocol {msg.protocol!r}")
        path = BgpPath.from_wire(dict(msg.payload))
        self._learn(path, parent=msg)

    def on_timer(self, key: str) -> None:  # pragma: no cover - no timers yet
        raise ValueError(f"BGP daemon got unknown timer {key!r}")

    # ------------------------------------------------------------------
    # learning + propagation
    # ------------------------------------------------------------------
    def _learn(self, path: BgpPath, parent: Optional[Message]) -> None:
        """Install a path and re-run the decision process.

        iBGP split horizon applies: paths learned from an iBGP peer are
        *not* re-advertised to other iBGP peers (the full mesh already
        delivered them), so learning only updates the local decision.
        """
        self.adj_rib_in[(path.prefix, path.path_id)] = _canonical(path.to_wire())
        new_best = self._decide(path)
        if new_best is not None:
            self.best[path.prefix] = _canonical(new_best.to_wire())

    def _paths_for(self, prefix: str) -> List[BgpPath]:
        return sorted(
            (
                BgpPath.from_wire(dict(doc))
                for (pfx, _pid), doc in self.adj_rib_in.items()
                if pfx == prefix
            ),
            key=BgpPath.sort_key,
        )

    def _decide(self, incoming: BgpPath) -> Optional[BgpPath]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # evaluation hooks
    # ------------------------------------------------------------------
    def best_path_id(self, prefix: str) -> Optional[str]:
        doc = self.best.get(prefix)
        return dict(doc)["path_id"] if doc else None


class CorrectBgp(BgpDaemon):
    """Re-runs the full decision process over all valid paths (the fix the
    case study validates in the debugging network)."""

    decision_name = "correct"

    def _decide(self, incoming: BgpPath) -> Optional[BgpPath]:
        return full_selection(self._paths_for(incoming.prefix))


class BuggyXorpBgp(BgpDaemon):
    """XORP 0.4's defect: compare the incoming path only against the
    current best.  Order-dependent under MED non-transitivity."""

    decision_name = "buggy-xorp-0.4"

    def _decide(self, incoming: BgpPath) -> Optional[BgpPath]:
        current_doc = self.best.get(incoming.prefix)
        if current_doc is None:
            return incoming
        current = BgpPath.from_wire(dict(current_doc))
        if incoming.path_id == current.path_id:
            return incoming  # refresh of the incumbent
        return incoming if pairwise_prefer(incoming, current) else current
