"""Chaos scenario DSL: declarative, schema-validated failure environments.

A chaos document (YAML or JSON, ``schema: chaos/v1``) declares a
topology, discrete event blocks (flap storms, partitions,
crash/restarts, zone blackouts, SRLG correlated link groups) and
continuous fault families (per-node clock skew, packet duplication and
reordering, gray failures), and compiles into an ordinary sweep
:class:`~repro.sweep.Scenario` -- so every scenario file is a
sweep/fuzz/envelope/bench citizen addressable by path anywhere a
scenario name is accepted (``repro sweep --scenarios f.yaml``,
``f.yaml~j1us``, ``f.yaml@40``, ``f.yaml+flap-storm``).

Layout: :mod:`~repro.chaos.schema` (the contract + validator),
:mod:`~repro.chaos.loader` (parsing and file:line diagnostics),
:mod:`~repro.chaos.compiler` (document -> Scenario),
:mod:`~repro.chaos.docgen` (the generated ``docs/scenario-schema.md``),
:mod:`~repro.chaos.cli` (``repro chaos validate`` / ``schema``).
"""

from repro.chaos.compiler import compile_document, load_scenario_file
from repro.chaos.docgen import schema_json, schema_markdown
from repro.chaos.loader import (
    FileIssue,
    ScenarioFileError,
    parse_file,
    sniff_scenario_file,
    validate_file,
)
from repro.chaos.schema import (
    SCENARIO_SCHEMA,
    SCHEMA_ID,
    SchemaIssue,
    validate_document,
)

__all__ = [
    "FileIssue",
    "SCENARIO_SCHEMA",
    "SCHEMA_ID",
    "ScenarioFileError",
    "SchemaIssue",
    "compile_document",
    "load_scenario_file",
    "parse_file",
    "schema_json",
    "schema_markdown",
    "sniff_scenario_file",
    "validate_document",
    "validate_file",
]
