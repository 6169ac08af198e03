"""Failure classification: deterministic result vs transient infrastructure.

The retry loop must never re-run a cell whose outcome is a property of
the *cell* -- a Theorem-1 divergence, an expectation failure, a scenario
bug -- because retrying it burns budget to reproduce the same answer
and, worse, makes the report's execution count lie.  It must retry a
cell whose failure is a property of the *infrastructure* -- the worker
was OOM-killed, the result ring stalled, the pool broke under it --
because the cell itself never got to answer.

Divergences and expectation failures are easy: they arrive as
*successful* results (``error is None``, ``invariant_ok``/``expected_ok``
carrying the verdict) and never enter the classifier at all.  What is
left is error text, from two sources: exceptions surfaced by the worker
future (pool breakage, ring push failures) and ``error`` strings on
reported results (``run_cell`` converts in-worker exceptions to text).
Classification is substring-based over that text -- deliberately so,
because both sources flatten exceptions to ``"TypeName: message"`` and
the fixed-width ring record truncates long messages.

The default is **deterministic**: an unrecognized failure is assumed to
be the cell's own, so it surfaces immediately instead of being retried
into the report three times slower.  Only failure shapes positively
known to be environmental are transient.
"""

from __future__ import annotations

from typing import Optional

#: Classifier verdicts.
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"

#: Substrings of error text that identify environmental failures.  Each
#: entry is a failure the cell did not cause and a re-run can outlive:
#:
#: * ``MemoryError`` -- in-worker allocation failure under memory
#:   pressure (the python-level cousin of an OOM kill);
#: * ``BrokenProcessPool`` / ``pool broken`` -- the worker was killed
#:   out from under the cell (OOM killer, operator SIGKILL, pool
#:   teardown);
#: * ``result ring full`` / ``result ring closed`` -- the shared-memory
#:   transport stalled or was abandoned; the cell may well have computed
#:   its answer (see :class:`repro.sweep_stream.ResultPushError`, which
#:   carries it).
TRANSIENT_MARKERS = (
    "MemoryError",
    "BrokenProcessPool",
    "pool broken",
    "result ring full",
    "result ring closed",
)


def classify_error(error: Optional[str]) -> str:
    """Classify one cell-failure text as transient or deterministic.

    ``None`` (no failure) classifies deterministic: a clean result is
    final by definition.
    """
    if error is None:
        return DETERMINISTIC
    for marker in TRANSIENT_MARKERS:
        if marker in error:
            return TRANSIENT
    return DETERMINISTIC
