"""Reporters: human-readable text and machine-readable JSON."""

from __future__ import annotations

import json
from typing import List

from repro.lint.engine import Finding


def format_text(active: List[Finding], suppressed: int, checked_files: int) -> str:
    out: List[str] = []
    for f in active:
        line = f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}"
        if f.hint:
            line += f"  [fix: {f.hint}]"
        out.append(line)
    out.append(
        f"{len(active)} finding(s) in {checked_files} file(s)"
        f" ({suppressed} pragma-suppressed)"
    )
    return "\n".join(out)


def format_json(active: List[Finding], suppressed: int, checked_files: int) -> str:
    return json.dumps(
        {
            "findings": [
                {
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "rule": f.rule,
                    "message": f.message,
                    "hint": f.hint,
                }
                for f in active
            ],
            "suppressed": suppressed,
            "checked_files": checked_files,
        },
        indent=2,
        sort_keys=True,
    )
