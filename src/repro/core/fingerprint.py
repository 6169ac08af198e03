"""Execution fingerprints: making "the same execution" checkable.

Netzer and Miller's lemma (Lemma 1 in the paper) says a replay that
delivers messages in the same order as the original execution reproduces
it.  We operationalize this: every stack logs the ordered sequence of
events it delivers to its daemon (message receipts, external events, timer
fires) as stable string tags.  The network-wide *fingerprint* hashes the
per-node sequences.

Two runs with equal fingerprints delivered identical event sequences at
every node, hence (for deterministic daemons) are the same execution.
The reproduction's determinism claims are all phrased, and tested, as
fingerprint equalities:

* DEFINED-RB seed-invariance: same topology + same external schedule but
  different jitter seeds => same fingerprint;
* Theorem 1: DEFINED-LS replay of the partial recording => the production
  fingerprint.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Sequence, Union

#: Separators keeping the fold injective: node id / entry / node
#: boundaries cannot be confused by concatenation.
_NODE_SEP = b"\x00"
_ENTRY_SEP = b"\x01"
_NODE_END = b"\x02"

#: Tags joined and encoded per ``update`` when a log folds its tail:
#: large enough to amortise the call, small enough that the transient
#: bytes stay far below the log itself.
_FOLD_CHUNK = 4096


class DeliveryLog:
    """One node's ordered delivery log with a rolling identity digest.

    Quacks like the ``List[str]`` it replaces (append / len / index /
    slice / ``del log[i:]``) and holds nothing but that list of tags: no
    per-entry bytes copy.  The entries are folded into a per-node rolling
    SHA-256 lazily, up to a watermark, encoding the unfolded tail in
    chunks of :data:`_FOLD_CHUNK` tags (one join and one encode per chunk,
    the same bytes a per-entry fold would feed).  A rollback that
    truncates *unfolded* tail entries costs nothing; one that cuts below
    the watermark rebases the digest, which the next fold rebuilds from
    the tags -- hash and encode work only, no repr rebuild.
    """

    __slots__ = ("_tags", "_digest", "_folded")

    def __init__(self, entries: Sequence[str] = ()) -> None:
        self._tags: List[str] = list(entries)
        self._digest = hashlib.sha256()
        self._folded = 0

    # -- list protocol (the mutations the shims actually perform) -------
    def append(self, tag: str) -> None:
        self._tags.append(tag)

    def __len__(self) -> int:
        return len(self._tags)

    def __bool__(self) -> bool:
        return bool(self._tags)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tags)

    def __getitem__(self, index: Union[int, slice]):
        return self._tags[index]

    def __delitem__(self, index: Union[int, slice]) -> None:
        if isinstance(index, slice):
            # O(1): first and last of the deleted range, not a walk of it
            deleted = range(*index.indices(len(self._tags)))
            if not deleted:
                return
            start = min(deleted[0], deleted[-1])
        else:
            start = index if index >= 0 else len(self._tags) + index
        del self._tags[index]
        if start < self._folded:
            # the digest covers entries that are gone: rebase lazily
            self._digest = hashlib.sha256()
            self._folded = 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DeliveryLog):
            return self._tags == other._tags
        if isinstance(other, (list, tuple)):
            return self._tags == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DeliveryLog {len(self._tags)} entries>"

    # -- digest ---------------------------------------------------------
    def node_digest(self) -> bytes:
        """Digest of the entry sequence, folding only what the last fold
        (or rebase) left unfolded."""
        update = self._digest.update
        tags = self._tags
        for lo in range(self._folded, len(tags), _FOLD_CHUNK):
            # "e1\x01e2\x01...en" + "\x01": each entry then _ENTRY_SEP
            update("\x01".join(tags[lo:lo + _FOLD_CHUNK]).encode())
            update(_ENTRY_SEP)
        self._folded = len(tags)
        return self._digest.digest()


def _node_digest(log: Sequence[str]) -> bytes:
    if isinstance(log, DeliveryLog):
        return log.node_digest()
    digest = hashlib.sha256()
    for entry in log:
        digest.update(entry.encode())
        digest.update(_ENTRY_SEP)
    return digest.digest()


def execution_fingerprint(logs: Dict[str, Sequence[str]]) -> str:
    """Hash per-node delivery logs into one hex digest.

    Nodes are folded in sorted order so the digest is independent of dict
    iteration order.  Each node contributes a fixed-width per-node digest
    (rolling when the log is a :class:`DeliveryLog`), so the combine step
    is O(nodes) at run end regardless of how many entries were delivered.
    """
    digest = hashlib.sha256()
    for node_id in sorted(logs):
        digest.update(node_id.encode())
        digest.update(_NODE_SEP)
        digest.update(_node_digest(logs[node_id]))
        digest.update(_NODE_END)
    return digest.hexdigest()
