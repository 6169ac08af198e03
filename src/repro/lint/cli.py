"""CLI glue for ``repro lint``.

Exit status: 0 clean; 1 active findings; 2 usage errors.  A finding is
silenced only by an inline pragma (:mod:`repro.lint.suppress`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List

from repro.lint import run_lint
from repro.lint.report import format_json, format_text


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable JSON report",
    )


def main(args: argparse.Namespace) -> int:
    paths: List[str] = args.paths or ["src/repro"]
    root = os.getcwd()
    for raw in paths:
        target = raw if os.path.isabs(raw) else os.path.join(root, raw)
        if not os.path.exists(target):
            print(f"repro lint: no such path: {raw}", file=sys.stderr)
            return 2

    result = run_lint(paths, root=root)
    formatter = format_json if args.as_json else format_text
    print(
        formatter(
            result.active, len(result.pragma_suppressed), result.checked_files
        )
    )
    return 1 if result.active else 0
