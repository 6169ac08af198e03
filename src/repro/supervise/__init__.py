"""Supervised sweep execution: deadlines, classified retries, journals.

The grid runner's crash-isolation story (one bad cell cannot sink a
sweep) stops short of three failure shapes this package covers:

* a *hung* worker -- an infinite loop or a wedged syscall -- stalls the
  whole grid forever, because nothing ever reaps it;
* a *transient* infrastructure failure (worker SIGKILLed by the OOM
  killer, a result-ring push timing out under a stalled consumer) is
  indistinguishable in the report from a real Theorem-1 divergence; and
* an *interrupted* sweep throws away every completed cell, even though
  cells are pure functions of their identity and therefore idempotent.

:mod:`repro.supervise` adds, respectively: a heartbeat-based watchdog
with per-cell wall-clock deadlines (:mod:`.heartbeat`,
:mod:`.executor`), a failure classifier + bounded-backoff retry loop
with crash-loop quarantine (:mod:`.classify`, :mod:`.executor`), and a
durable append-only cell journal keyed by content fingerprint that makes
``repro sweep --resume`` skip completed cells (:mod:`.journal`).

The package is the grid's one executor:
:class:`~repro.sweep.SweepRunner` runs every cell list through it under
a :class:`SupervisionPolicy`.  No deadline and the default retry budget
is the degenerate policy, not a separate code path -- a healthy pooled
grid pays a heartbeat stamp per cell and reports exactly what it
computed.
"""

from repro.supervise.classify import (
    DETERMINISTIC,
    TRANSIENT,
    classify_error,
)
from repro.supervise.executor import (
    SupervisionPolicy,
    backoff_delay,
    inline_supervised_iter,
    supervised_iter,
)
from repro.supervise.heartbeat import HeartbeatBoard
from repro.supervise.journal import (
    CellJournal,
    SKIPPABLE_OUTCOMES,
    cell_fingerprint,
    load_completed,
    load_records,
)

__all__ = [
    "DETERMINISTIC",
    "TRANSIENT",
    "classify_error",
    "SupervisionPolicy",
    "backoff_delay",
    "inline_supervised_iter",
    "supervised_iter",
    "HeartbeatBoard",
    "CellJournal",
    "SKIPPABLE_OUTCOMES",
    "cell_fingerprint",
    "load_completed",
    "load_records",
]
