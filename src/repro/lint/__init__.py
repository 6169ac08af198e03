"""repro lint: the static half of the determinism contract.

``run_lint(paths)`` walks the given files/directories, runs the D-rules
(:mod:`repro.lint.drules`) and S-rules (:mod:`repro.lint.srules`) over
each, applies inline ``# repro-lint: disable=...`` pragmas (the only
suppression), and returns a :class:`LintResult`.  The runtime half of
the same contract is the StateStore sanitizer (``REPRO_SANITIZE=1``;
see :mod:`repro.core.statestore`).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Tuple

from repro.lint import suppress as _suppress
from repro.lint.engine import (
    Finding,
    check_file,
    check_scenario_file,
    iter_python_files,
    iter_scenario_files,
)

#: Every rule id with its one-line contract (mirrored in the README's
#: "Determinism contract" section; the lint tests assert the mirror).
RULES: Dict[str, str] = {
    "DET101": "no unseeded RNG: module-level random.* or bare Random()",
    "DET102": "no wall-clock reads (time.time/datetime.now) in replayed "
              "logic; perf_counter is allowed for wall-duration reporting",
    "DET103": "no ambient entropy: uuid1/uuid4, os.urandom, secrets.*",
    "DET104": "no id() in replay-critical modules (per-run addresses)",
    "DET105": "no insertion-ordered dict iteration feeding an "
              "order-sensitive sink in core/, routing/, simnet/",
    "DET106": "no iterating sets without sorted() (hash order)",
    "STO201": "no storing mutable literals into StateStore namespaces",
    "STO202": "no in-place mutation of values read from a namespace",
    "STO203": "no restoring a snapshot token an earlier restore of an "
              "older token already discarded (LIFO stack discipline)",
    "STO204": "no mutating a message payload after origination (the "
              "fingerprint pipeline caches repr(payload) at send time)",
    "CHS301": "every in-tree chaos scenario file (YAML/JSON with a "
              "`schema: chaos/...` header) must validate and compile",
}


@dataclasses.dataclass
class LintResult:
    active: List[Finding]
    pragma_suppressed: List[Finding]
    checked_files: int


def run_lint(paths: List[str], root: Optional[str] = None) -> LintResult:
    root = os.path.abspath(root or os.getcwd())
    checked: List[Tuple[str, List[Finding]]] = []
    for path, relpath in iter_python_files(paths, root):
        checked.append((path, check_file(path, relpath)))
    for path, relpath in iter_scenario_files(paths, root):
        findings = check_scenario_file(path, relpath)
        if findings is not None:  # YAML/JSON without a chaos header is not ours
            checked.append((path, findings))
    active: List[Finding] = []
    pragma: List[Finding] = []
    for path, findings in checked:
        if not findings:
            continue
        with open(path, "r", encoding="utf-8") as fh:
            disabled = _suppress.pragma_lines(fh.read().splitlines())
        kept, suppressed = _suppress.apply_pragmas(findings, disabled)
        active.extend(kept)
        pragma.extend(suppressed)
    active.sort()
    return LintResult(
        active=active, pragma_suppressed=pragma, checked_files=len(checked)
    )


__all__ = [
    "Finding",
    "LintResult",
    "RULES",
    "run_lint",
]
