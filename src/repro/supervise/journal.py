"""Durable, append-only cell journals: the resume substrate.

A journal is a directory of immutable ``segment-NNNNNNNN.jsonl``
files.  Each segment is written whole to a temp name and
``os.replace``\\ d into place, so a crash -- of the sweep or the host --
leaves either a complete segment or no segment, never a torn one.  One
record is one canonical-JSON line keyed by the cell's **content
fingerprint**: a sha256 over exactly the identity fields that determine
the cell's outcome (scenario, seed, mode, repeat, jitter seed, window
and jitter overrides, invariant-check flag).  The
artifact directory is deliberately excluded -- where divergence bundles
land does not change what the cell computes, and a resumed run may
archive elsewhere.

Cells are pure functions of that identity (the repo's founding
invariant), so a journaled ``completed`` record *is* the cell's result:
``repro sweep --resume <dir>`` replays it into the report instead of
re-executing, and the merged report is semantically identical to an
uninterrupted run (``SweepReport.semantic_digest`` pins this).  Records
for ``timed_out`` and ``quarantined`` cells are journaled too -- they
document coverage -- but are *not* skippable: a resume re-runs them,
because their absence of an answer is exactly what a retry under better
conditions might fix.

Later records win: a cell journaled as quarantined by one run and
completed by its resume resolves to completed.  Segment numbering
continues across resumes (the writer scans the directory once), so a
twice-interrupted grid keeps one linear history.
"""

from __future__ import annotations

import hashlib
import os
import re
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.artifact.bundle import canonical_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sweep import CellResult, SweepCell

#: Identity fields the fingerprint covers, in canonical order.  Adding a
#: semantically relevant field to :class:`~repro.sweep.SweepCell` must
#: extend this tuple, or resumed grids could alias distinct cells.
IDENTITY_FIELDS = (
    "scenario",
    "seed",
    "mode",
    "repeat",
    "jitter_seed",
    "window_us",
    "jitter_us",
    "check_invariant",
)

#: Journal outcomes a resume may skip: the cell produced its final
#: answer.  ``resumed`` is skippable so a resume-of-a-resume still
#: short-circuits.
SKIPPABLE_OUTCOMES = frozenset({"completed", "resumed"})

_SEGMENT_RE = re.compile(r"^segment-(\d{8})\.jsonl$")

def cell_identity(cell: "SweepCell") -> Dict:
    """The fingerprinted identity of one cell, as a plain dict."""
    return {field: getattr(cell, field) for field in IDENTITY_FIELDS}


def cell_fingerprint(cell: "SweepCell") -> str:
    """Content-address one grid cell: sha256 over its canonical identity."""
    return hashlib.sha256(
        canonical_json(cell_identity(cell)).encode("ascii")
    ).hexdigest()


class CellJournal:
    """The write side: one crash-safe segment per recorded cell.

    A segment per record sounds heavy but is the cheapest arrangement
    that is *unconditionally* crash-safe (rename is atomic; appends are
    not) -- and a cell takes orders of magnitude longer to execute than
    a rename takes to land.  Readers never see partial lines.
    """

    def __init__(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self._seq = self._next_seq()

    def _next_seq(self) -> int:
        highest = -1
        for entry in os.listdir(self.directory):
            match = _SEGMENT_RE.match(entry)
            if match:
                highest = max(highest, int(match.group(1)))
        return highest + 1

    def record(self, cell: "SweepCell", result: "CellResult") -> str:
        """Durably journal one cell outcome; returns the segment path.

        The record's ``result`` is the result row
        (:meth:`~repro.sweep.CellResult.to_row`) without the identity
        fields and ``outcome``, which the record carries as ``cell`` and
        ``outcome``."""
        doc = {
            "v": 1,
            "fingerprint": cell_fingerprint(cell),
            "cell": cell_identity(cell),
            "outcome": result.outcome,
            "result": {
                key: value
                for key, value in result.to_row().items()
                if key not in IDENTITY_FIELDS and key != "outcome"
            },
        }
        final = os.path.join(
            self.directory, f"segment-{self._seq:08d}.jsonl"
        )
        tmp = os.path.join(
            self.directory, f".segment-{self._seq:08d}.{os.getpid()}.tmp"
        )
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(canonical_json(doc) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
        self._seq += 1
        return final


def load_records(directory: str) -> Dict[str, Dict]:
    """Read a journal directory into ``fingerprint -> last record``.

    Segments are replayed in name order (= write order: numbering is
    monotonic across resumes), so the returned record per fingerprint is
    the most recent outcome.  Malformed lines are impossible by
    construction (rename-atomic segments) and therefore raise.
    """
    import json

    try:
        entries = sorted(
            entry for entry in os.listdir(directory) if _SEGMENT_RE.match(entry)
        )
    except FileNotFoundError:
        raise FileNotFoundError(
            f"resume journal directory does not exist: {directory!r}"
        ) from None
    records: Dict[str, Dict] = {}
    for entry in entries:
        with open(os.path.join(directory, entry), encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                doc = json.loads(line)
                records[doc["fingerprint"]] = doc
    return records


def load_completed(directory: str) -> Dict[str, Dict]:
    """The resumable subset of a journal: fingerprints whose *latest*
    outcome is final (see :data:`SKIPPABLE_OUTCOMES`)."""
    return {
        fingerprint: doc
        for fingerprint, doc in load_records(directory).items()
        if doc.get("outcome") in SKIPPABLE_OUTCOMES
    }


def journal_summary(directory: str) -> Dict[str, int]:
    """Outcome counts over a journal's latest records (triage helper)."""
    counts: Dict[str, int] = {}
    for doc in load_records(directory).values():
        outcome = str(doc.get("outcome"))
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


def quarantine_path(artifact_dir: str, fingerprint: str) -> str:
    """Where a quarantined cell's triage record lands."""
    return os.path.join(artifact_dir, f"quarantine-{fingerprint[:12]}.json")


def archive_quarantine(
    artifact_dir: Optional[str],
    cell: "SweepCell",
    errors: List[str],
) -> Optional[str]:
    """Write a quarantined cell's identity + failure history for triage.

    Like divergence bundles, quarantine records are a debugging
    convenience: I/O failure degrades to a warning, never sinks the
    sweep.  Returns the path written, or ``None``.
    """
    if not artifact_dir:
        return None
    fingerprint = cell_fingerprint(cell)
    doc = {
        "v": 1,
        "fingerprint": fingerprint,
        "cell": cell_identity(cell),
        "consecutive_transient_failures": len(errors),
        "failures": list(errors),
    }
    path = quarantine_path(artifact_dir, fingerprint)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(artifact_dir, exist_ok=True)
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(canonical_json(doc) + "\n")
        os.replace(tmp, path)
        return path
    except OSError as exc:  # pragma: no cover - disk-full/permission paths
        import warnings

        warnings.warn(
            f"could not archive quarantine record for "
            f"{cell.scenario}/seed={cell.seed}: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
