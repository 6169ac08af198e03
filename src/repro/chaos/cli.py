"""The ``repro chaos`` subcommand: validate scenario files, emit the schema.

``validate`` runs the full pipeline each file must survive to be a sweep
citizen -- parse, schema + semantic validation, compilation, and a
topology/schedule build at seed 1 -- so a green validate means the file
runs.  ``schema`` emits the schema as JSON or as the generated markdown
reference (the exact content of ``docs/scenario-schema.md``).
"""

from __future__ import annotations

import argparse
from typing import List, Tuple

from repro.chaos.compiler import compile_document
from repro.chaos.docgen import schema_json, schema_markdown
from repro.chaos.loader import parse_file, validate_file


def add_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="chaos_command", required=True)
    validate = sub.add_parser(
        "validate",
        help="validate scenario files (schema + compile + seed-1 build)",
    )
    validate.add_argument("paths", nargs="+", metavar="FILE", help="scenario files")
    schema = sub.add_parser(
        "schema", help="emit the chaos/v1 schema (JSON, or --markdown)"
    )
    schema.add_argument(
        "--markdown",
        action="store_true",
        help="emit the generated markdown reference instead of JSON",
    )


def _validate_one(path: str) -> Tuple[List[str], str]:
    """Error lines for one file (empty = valid) and, when it is valid,
    its summary line."""
    issues = validate_file(path)
    if issues:
        return [f"{path}:{i.line}:{i.col}: {i.message}" for i in issues], ""
    doc, _marks = parse_file(path)
    try:
        scenario = compile_document(doc)
        graph = scenario.topology(1)
        scenario.schedule(graph, 1)
        if scenario.tuning is not None:
            scenario.tuning(graph, 1)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return [f"{path}:1:1: compiles to an unbuildable scenario: {exc}"], ""
    return [], (
        f"{path}: OK name={scenario.name} "
        f"events={len(doc.get('events') or ())} "
        f"faults={len(doc.get('faults') or ())} "
        f"modes={','.join(scenario.modes)}"
    )


def cmd_chaos(args: argparse.Namespace) -> int:
    if args.chaos_command == "schema":
        print(schema_markdown() if args.markdown else schema_json(), end="")
        return 0
    failures = 0
    for path in args.paths:
        errors, summary = _validate_one(path)
        failures += bool(errors)
        print("\n".join(errors) or summary)
    if failures:
        print(f"{failures} of {len(args.paths)} file(s) failed validation")
    return 1 if failures else 0
