"""Suppression handling: inline pragmas, the only way to silence a finding.

Pragma syntax (trailing on the flagged line, or a standalone comment
line applying to the next code line)::

    x = d.items()  # repro-lint: disable=DET105(aggregated into a set)
    # repro-lint: disable=STO201,STO202(fixture exercises the hazard)
    bad = ns.get("k")

Each rule id may carry a parenthesised reason; reasons are encouraged
(they survive as in-tree documentation of *why* the hazard is benign)
but not required.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Set, Tuple

from repro.lint.engine import Finding

_PRAGMA = re.compile(r"#\s*repro-lint:\s*disable=(?P<rules>[^#]*)")
_RULE_TOKEN = re.compile(r"([A-Z]{3}\d{3})(?:\(([^)]*)\))?")


def pragma_lines(source_lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map 1-based line number -> set of rule ids disabled there."""
    disabled: Dict[int, Set[str]] = {}
    pending: Set[str] = set()
    for lineno, line in enumerate(source_lines, start=1):
        stripped = line.strip()
        match = _PRAGMA.search(line)
        rules: Set[str] = set()
        if match:
            rules = {m.group(1) for m in _RULE_TOKEN.finditer(match.group("rules"))}
        if stripped.startswith("#"):
            # standalone pragma comment: applies to the next code line
            if rules:
                pending |= rules
            continue
        here = set(rules)
        if pending and stripped:
            here |= pending
            pending = set()
        if here:
            disabled[lineno] = here
    return disabled


def apply_pragmas(
    findings: List[Finding], disabled: Dict[int, Set[str]]
) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into (active, pragma-suppressed)."""
    active: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in findings:
        if finding.rule in disabled.get(finding.line, ()):
            suppressed.append(finding)
        else:
            active.append(finding)
    return active, suppressed
