"""The chaos scenario schema (``chaos/v1``) and its validator.

The schema is the DSL's contract *and* its documentation surface:
:mod:`repro.chaos.docgen` renders this exact structure into
``docs/scenario-schema.md``, and CI fails when the rendered document and
the committed one diverge.  The validator is a small in-house walker
over the JSON-Schema subset the contract uses (``type`` / ``enum`` /
``const`` / ``pattern`` / numeric bounds / ``required`` /
``properties`` / ``additionalProperties`` / ``items`` / ``oneOf``
discriminated on ``kind``), plus the cross-field semantic checks a
generic validator cannot express.  Issues carry JSON-pointer-style
paths; the loader maps them to file:line positions via YAML node marks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.simnet.faults import MAX_CLOCK_SKEW_US
from repro.sweep import MODES
from repro.topology.rocketfuel import POP_COUNTS

#: Every document must declare this exact schema id.
SCHEMA_ID = "chaos/v1"

TOPOLOGY_FAMILIES = ("waxman", "ba", "diamond", "rocketfuel")
EVENT_KINDS = ("flap_storm", "crash_restart", "partition", "zone_blackout", "srlg")
FAULT_KINDS = ("clock_skew", "duplicate", "reorder", "gray")

#: Instrumented modes that require lossless links (gray faults excluded).
LOSSLESS_MODES = ("defined", "ddos")

_US = "microseconds"

_LINK_ARRAY = {
    "type": "array",
    "items": {
        "type": "array",
        "items": {"type": "string"},
        "minItems": 2,
        "maxItems": 2,
    },
    "minItems": 1,
    "description": "Explicit links as [node-a, node-b] endpoint pairs.",
}

_WINDOW_PROPS = {
    "start_us": {
        "type": "integer",
        "minimum": 0,
        "description": f"Window start ({_US}); default 0 (whole run).",
    },
    "end_us": {
        "type": "integer",
        "exclusiveMinimum": 0,
        "description": f"Window end ({_US}, exclusive); default: end of run.",
    },
}

SCENARIO_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": f"Chaos scenario ({SCHEMA_ID})",
    "description": (
        "A declarative failure environment: topology + discrete event "
        "blocks + continuous fault families, compiled into a sweep "
        "Scenario.  Every random choice the document leaves open is "
        "drawn from RNG streams derived from the document name and the "
        "cell seed, so one file + one seed is one deterministic "
        "execution."
    ),
    "type": "object",
    "required": ["schema", "name", "topology"],
    "additionalProperties": False,
    "properties": {
        "schema": {
            "const": SCHEMA_ID,
            "description": f"Format tag; must be exactly '{SCHEMA_ID}'.",
        },
        "name": {
            "type": "string",
            "pattern": "^[a-z][a-z0-9-]{0,63}$",
            "description": (
                "Scenario name (lowercase, digits, hyphens).  Used to "
                "seed the document's RNG streams and as the scenario "
                "name in reports, so renaming the document changes its "
                "executions.  The grammar operators (+ @ ~) are "
                "excluded so compiled scenarios stay addressable."
            ),
        },
        "description": {
            "type": "string",
            "description": "Free-form description, shown in scenario listings.",
        },
        "topology": {
            "type": "object",
            "required": ["family"],
            "additionalProperties": False,
            "description": (
                "The network under test.  'waxman' and 'ba' are "
                "seed-varied synthetic families (require 'nodes', and "
                "make the scenario size-parameterizable via '@N'); "
                "'diamond' is the fixed 4-node determinism-test graph; "
                "'rocketfuel' requires 'map'."
            ),
            "properties": {
                "family": {
                    "enum": list(TOPOLOGY_FAMILIES),
                    "description": "Topology generator family.",
                },
                "nodes": {
                    "type": "integer",
                    "minimum": 2,
                    "maximum": 128,
                    "description": "Node count (waxman / ba only).",
                },
                "map": {
                    "enum": sorted(POP_COUNTS),
                    "description": "Rocketfuel PoP map (rocketfuel only).",
                },
            },
        },
        "modes": {
            "type": "array",
            "items": {"enum": list(MODES)},
            "minItems": 1,
            "description": (
                "Execution modes the scenario runs in.  Default: "
                "vanilla + defined; gray faults restrict the default to "
                "vanilla (instrumented modes require lossless links)."
            ),
        },
        "ordering": {
            "enum": ["OO", "RO"],
            "description": "DEFINED ordering function (default OO).",
        },
        "jitter_us": {
            "type": "integer",
            "minimum": 0,
            "maximum": 2_000_000,
            "description": f"Per-packet delivery jitter ({_US}; default 200).",
        },
        "settle_us": {
            "type": "integer",
            "minimum": 0,
            "description": f"Boot settling time before events ({_US}).",
        },
        "tail_us": {
            "type": "integer",
            "minimum": 0,
            "description": f"Run tail after the last event ({_US}).",
        },
        "events": {
            "type": "array",
            "description": (
                "Discrete external-event blocks, each compiled on its "
                "own seed-split RNG stream and merged into one "
                "EventSchedule."
            ),
            "items": {
                "oneOf": [
                    {
                        "title": "flap_storm",
                        "type": "object",
                        "required": ["kind"],
                        "additionalProperties": False,
                        "description": "Independent link down/up flaps.",
                        "properties": {
                            "kind": {"const": "flap_storm"},
                            "links": dict(
                                _LINK_ARRAY,
                                description=(
                                    "Restrict flapping to these links, as "
                                    "[node-a, node-b] endpoint pairs "
                                    "(default: every link is flappable)."
                                ),
                            ),
                            "flaps": {
                                "type": "integer",
                                "minimum": 1,
                                "maximum": 64,
                                "description": "Number of flaps (default 4).",
                            },
                            "start_us": {
                                "type": "integer",
                                "minimum": 0,
                                "description": f"First flap time ({_US}).",
                            },
                            "min_hold_us": {
                                "type": "integer",
                                "exclusiveMinimum": 0,
                                "description": f"Minimum down-time ({_US}).",
                            },
                            "max_hold_us": {
                                "type": "integer",
                                "exclusiveMinimum": 0,
                                "description": f"Maximum down-time ({_US}).",
                            },
                            "gap_us": {
                                "type": "integer",
                                "minimum": 0,
                                "description": f"Base gap between flaps ({_US}).",
                            },
                        },
                    },
                    {
                        "title": "crash_restart",
                        "type": "object",
                        "required": ["kind"],
                        "additionalProperties": False,
                        "description": "Router crash/restart cycles.",
                        "properties": {
                            "kind": {"const": "crash_restart"},
                            "nodes": {
                                "type": "array",
                                "minItems": 1,
                                "items": {"type": "string", "minLength": 1},
                                "description": (
                                    "Restrict crashes to these nodes "
                                    "(default: every node is crashable)."
                                ),
                            },
                            "crashes": {
                                "type": "integer",
                                "minimum": 1,
                                "maximum": 32,
                                "description": "Number of cycles (default 1).",
                            },
                            "start_us": {
                                "type": "integer",
                                "minimum": 0,
                                "description": f"First crash time ({_US}).",
                            },
                            "down_for_us": {
                                "type": "integer",
                                "exclusiveMinimum": 0,
                                "description": f"Outage length ({_US}).",
                            },
                            "gap_us": {
                                "type": "integer",
                                "minimum": 0,
                                "description": f"Base gap between cycles ({_US}).",
                            },
                        },
                    },
                    {
                        "title": "partition",
                        "type": "object",
                        "required": ["kind"],
                        "additionalProperties": False,
                        "description": (
                            "Seed-derived bipartition: every crossing "
                            "link cut, then healed."
                        ),
                        "properties": {
                            "kind": {"const": "partition"},
                            "start_us": {
                                "type": "integer",
                                "minimum": 0,
                                "description": f"Cut time ({_US}).",
                            },
                            "heal_after_us": {
                                "type": "integer",
                                "exclusiveMinimum": 0,
                                "description": f"Heal delay after the cut ({_US}).",
                            },
                        },
                    },
                    {
                        "title": "zone_blackout",
                        "type": "object",
                        "required": ["kind"],
                        "additionalProperties": False,
                        "description": (
                            "Correlated zone failure: several routers go "
                            "dark simultaneously (shared power domain) "
                            "and restart together.  Give 'nodes' or "
                            "'size', not both."
                        ),
                        "properties": {
                            "kind": {"const": "zone_blackout"},
                            "size": {
                                "type": "integer",
                                "minimum": 1,
                                "maximum": 64,
                                "description": (
                                    "Seed-drawn victim count (default 2)."
                                ),
                            },
                            "nodes": {
                                "type": "array",
                                "items": {"type": "string"},
                                "minItems": 1,
                                "description": "Explicit victim node ids.",
                            },
                            "start_us": {
                                "type": "integer",
                                "minimum": 0,
                                "description": f"Blackout time ({_US}).",
                            },
                            "duration_us": {
                                "type": "integer",
                                "exclusiveMinimum": 0,
                                "description": f"Outage length ({_US}).",
                            },
                        },
                    },
                    {
                        "title": "srlg",
                        "type": "object",
                        "required": ["kind"],
                        "additionalProperties": False,
                        "description": (
                            "Shared-risk link group: several links fail "
                            "as one (a conduit cut) and are repaired "
                            "together.  Give 'links' or 'size', not both."
                        ),
                        "properties": {
                            "kind": {"const": "srlg"},
                            "size": {
                                "type": "integer",
                                "minimum": 2,
                                "maximum": 64,
                                "description": (
                                    "Seed-drawn group size (default 2)."
                                ),
                            },
                            "links": _LINK_ARRAY,
                            "start_us": {
                                "type": "integer",
                                "minimum": 0,
                                "description": f"Cut time ({_US}).",
                            },
                            "duration_us": {
                                "type": "integer",
                                "exclusiveMinimum": 0,
                                "description": f"Outage length ({_US}).",
                            },
                        },
                    },
                ],
            },
        },
        "faults": {
            "type": "array",
            "description": (
                "Continuous fault families, compiled into a NetworkTuning "
                "installed on the production network before boot."
            ),
            "items": {
                "oneOf": [
                    {
                        "title": "clock_skew",
                        "type": "object",
                        "required": ["kind"],
                        "additionalProperties": False,
                        "description": (
                            "Per-node beacon-timing perturbation: skewed "
                            "nodes observe every beacon a constant offset "
                            "late (positive) or early (negative), "
                            "shifting their external-event group tagging. "
                            " Give 'nodes' or 'count', and 'skew_us' or "
                            "'max_skew_us' (seed-drawn magnitude with "
                            "random sign)."
                        ),
                        "properties": {
                            "kind": {"const": "clock_skew"},
                            "nodes": {
                                "type": "array",
                                "items": {"type": "string"},
                                "minItems": 1,
                                "description": "Explicit skewed node ids.",
                            },
                            "count": {
                                "type": "integer",
                                "minimum": 1,
                                "maximum": 64,
                                "description": (
                                    "Seed-drawn skewed-node count (default 1)."
                                ),
                            },
                            "skew_us": {
                                "type": "integer",
                                "minimum": -MAX_CLOCK_SKEW_US,
                                "maximum": MAX_CLOCK_SKEW_US,
                                "description": (
                                    f"Fixed skew ({_US}); bounded by half "
                                    "the 250 ms beacon interval."
                                ),
                            },
                            "max_skew_us": {
                                "type": "integer",
                                "exclusiveMinimum": 0,
                                "maximum": MAX_CLOCK_SKEW_US,
                                "description": (
                                    "Per-node skew drawn from "
                                    f"[1, max] {_US} with seed-derived sign."
                                ),
                            },
                        },
                    },
                    {
                        "title": "duplicate",
                        "type": "object",
                        "required": ["kind", "probability"],
                        "additionalProperties": False,
                        "description": (
                            "Link-layer packet duplication beneath a "
                            "deduplicating transport: the daemon sees "
                            "each packet once, at the earlier of two "
                            "independently delayed arrivals."
                        ),
                        "properties": {
                            "kind": {"const": "duplicate"},
                            "probability": {
                                "type": "number",
                                "exclusiveMinimum": 0,
                                "maximum": 1,
                                "description": "Per-packet duplication probability.",
                            },
                            "links": _LINK_ARRAY,
                            **_WINDOW_PROPS,
                        },
                    },
                    {
                        "title": "reorder",
                        "type": "object",
                        "required": ["kind", "probability"],
                        "additionalProperties": False,
                        "description": (
                            "Packet reordering: selected packets bypass "
                            "the per-direction FIFO clamp and pick up an "
                            "extra uniform delay, so they can overtake "
                            "or be overtaken."
                        ),
                        "properties": {
                            "kind": {"const": "reorder"},
                            "probability": {
                                "type": "number",
                                "exclusiveMinimum": 0,
                                "maximum": 1,
                                "description": "Per-packet reorder probability.",
                            },
                            "magnitude_us": {
                                "type": "integer",
                                "minimum": 0,
                                "maximum": 250_000,
                                "description": (
                                    f"Extra delay drawn from [0, magnitude] ({_US}; "
                                    "default 2000)."
                                ),
                            },
                            "links": _LINK_ARRAY,
                            **_WINDOW_PROPS,
                        },
                    },
                    {
                        "title": "gray",
                        "type": "object",
                        "required": ["kind", "loss"],
                        "additionalProperties": False,
                        "description": (
                            "Gray failure: a link stays up but silently "
                            "drops a fraction of packets.  Loss breaks "
                            "the recording contract (paper footnote 4), "
                            "so gray scenarios run in uninstrumented "
                            "modes only."
                        ),
                        "properties": {
                            "kind": {"const": "gray"},
                            "loss": {
                                "type": "number",
                                "exclusiveMinimum": 0,
                                "exclusiveMaximum": 1,
                                "description": "Per-packet drop probability.",
                            },
                            "links": _LINK_ARRAY,
                            **_WINDOW_PROPS,
                        },
                    },
                ],
            },
        },
        "expect": {
            "type": "object",
            "additionalProperties": False,
            "description": (
                "Post-run sanity predicates (outcome shape, not "
                "determinism -- the sweep runner checks determinism "
                "itself)."
            ),
            "properties": {
                "links_healed": {
                    "type": "boolean",
                    "description": "Every link is up at run end.",
                },
                "nodes_up": {
                    "type": "boolean",
                    "description": "Every node is up at run end.",
                },
                "damping": {
                    "type": "object",
                    "additionalProperties": False,
                    "description": (
                        "Route-flap damping behaviour, checked by feeding "
                        "the run's observed link-down transitions (one "
                        "virtual-time unit = one beacon interval) through "
                        "the reference FlapDampener at its defaults."
                    ),
                    "properties": {
                        "min_suppressed": {
                            "type": "integer",
                            "minimum": 1,
                            "description": (
                                "At least this many link-down transitions "
                                "arrive while their link is suppressed."
                            ),
                        },
                        "released_by_end": {
                            "type": "boolean",
                            "description": (
                                "Penalties decayed below reuse by run end: "
                                "no link is still suppressed."
                            ),
                        },
                    },
                },
            },
        },
    },
}


@dataclass(frozen=True)
class SchemaIssue:
    """One validation failure, anchored to a document path."""

    path: Tuple[Any, ...]
    message: str

    def pointer(self) -> str:
        return "/" + "/".join(str(p) for p in self.path) if self.path else "/"


def _type_ok(value: Any, expected: str) -> bool:
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    raise ValueError(f"schema uses unknown type {expected!r}")


def _validate_one_of(value: Any, branches: List[dict], path: Tuple, out: List[SchemaIssue]) -> None:
    """Dispatch a ``oneOf`` discriminated on the ``kind`` const."""
    if not isinstance(value, dict):
        out.append(SchemaIssue(path, "expected a mapping with a 'kind' key"))
        return
    kind = value.get("kind")
    by_kind = {b["properties"]["kind"]["const"]: b for b in branches}
    if kind not in by_kind:
        out.append(
            SchemaIssue(
                path + ("kind",) if "kind" in value else path,
                f"unknown kind {kind!r}; expected one of {sorted(by_kind)}",
            )
        )
        return
    _validate(value, by_kind[kind], path, out)


def _validate(value: Any, schema: dict, path: Tuple, out: List[SchemaIssue]) -> None:
    if "oneOf" in schema:
        _validate_one_of(value, schema["oneOf"], path, out)
        return
    if "const" in schema:
        if value != schema["const"]:
            out.append(
                SchemaIssue(path, f"must be {schema['const']!r}, got {value!r}")
            )
        return
    if "enum" in schema:
        if value not in schema["enum"]:
            out.append(
                SchemaIssue(
                    path, f"{value!r} is not one of {list(schema['enum'])}"
                )
            )
        return
    expected = schema.get("type")
    if expected is not None and not _type_ok(value, expected):
        out.append(
            SchemaIssue(
                path, f"expected {expected}, got {type(value).__name__}"
            )
        )
        return
    if isinstance(value, str) and "pattern" in schema:
        if not re.fullmatch(schema["pattern"], value):
            out.append(
                SchemaIssue(
                    path,
                    f"{value!r} does not match pattern {schema['pattern']!r}",
                )
            )
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            out.append(SchemaIssue(path, f"{value} is below minimum {schema['minimum']}"))
        if "maximum" in schema and value > schema["maximum"]:
            out.append(SchemaIssue(path, f"{value} is above maximum {schema['maximum']}"))
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            out.append(
                SchemaIssue(path, f"{value} must be > {schema['exclusiveMinimum']}")
            )
        if "exclusiveMaximum" in schema and value >= schema["exclusiveMaximum"]:
            out.append(
                SchemaIssue(path, f"{value} must be < {schema['exclusiveMaximum']}")
            )
    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            out.append(
                SchemaIssue(path, f"needs at least {schema['minItems']} item(s)")
            )
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            out.append(
                SchemaIssue(path, f"allows at most {schema['maxItems']} item(s)")
            )
        item_schema = schema.get("items")
        if item_schema is not None:
            for i, item in enumerate(value):
                _validate(item, item_schema, path + (i,), out)
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                out.append(SchemaIssue(path, f"missing required key {key!r}"))
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in props:
                    out.append(
                        SchemaIssue(
                            path + (key,),
                            f"unknown key {key!r}; allowed: {sorted(props)}",
                        )
                    )
        for key, sub in props.items():
            if key in value:
                _validate(value[key], sub, path + (key,), out)


def _semantic_issues(doc: dict) -> List[SchemaIssue]:
    """Cross-field rules the generic walker cannot express.

    Only fires on fields the structural pass accepted -- every check
    guards its own types so a malformed document reports its structural
    errors without a stack trace on top.
    """
    out: List[SchemaIssue] = []

    topo = doc.get("topology")
    if isinstance(topo, dict):
        family = topo.get("family")
        if family in ("waxman", "ba") and "nodes" not in topo:
            out.append(
                SchemaIssue(("topology",), f"family {family!r} requires 'nodes'")
            )
        if family in ("waxman", "ba") and "map" in topo:
            out.append(
                SchemaIssue(
                    ("topology", "map"), f"'map' is meaningless for family {family!r}"
                )
            )
        if family == "rocketfuel" and "map" not in topo:
            out.append(
                SchemaIssue(("topology",), "family 'rocketfuel' requires 'map'")
            )
        if family in ("rocketfuel", "diamond") and "nodes" in topo:
            out.append(
                SchemaIssue(
                    ("topology", "nodes"),
                    f"'nodes' is fixed by family {family!r}; remove it",
                )
            )

    events = doc.get("events")
    faults = doc.get("faults")
    if not events and not faults:
        out.append(
            SchemaIssue(
                (),
                "scenario declares no events and no faults; "
                "at least one block is required",
            )
        )

    if isinstance(events, list):
        for i, block in enumerate(events):
            if not isinstance(block, dict):
                continue
            kind = block.get("kind")
            if kind == "flap_storm":
                lo = block.get("min_hold_us")
                hi = block.get("max_hold_us")
                if isinstance(lo, int) and isinstance(hi, int) and lo >= hi:
                    out.append(
                        SchemaIssue(
                            ("events", i, "max_hold_us"),
                            f"max_hold_us ({hi}) must be > min_hold_us ({lo})",
                        )
                    )
            if kind == "zone_blackout" and "size" in block and "nodes" in block:
                out.append(
                    SchemaIssue(
                        ("events", i, "size"),
                        "give 'nodes' or 'size', not both",
                    )
                )
            if kind == "srlg" and "size" in block and "links" in block:
                out.append(
                    SchemaIssue(
                        ("events", i, "size"),
                        "give 'links' or 'size', not both",
                    )
                )

    has_gray = False
    if isinstance(faults, list):
        for i, block in enumerate(faults):
            if not isinstance(block, dict):
                continue
            kind = block.get("kind")
            if kind == "gray":
                has_gray = True
            if kind == "clock_skew":
                if "nodes" in block and "count" in block:
                    out.append(
                        SchemaIssue(
                            ("faults", i, "count"),
                            "give 'nodes' or 'count', not both",
                        )
                    )
                if "skew_us" in block and "max_skew_us" in block:
                    out.append(
                        SchemaIssue(
                            ("faults", i, "max_skew_us"),
                            "give 'skew_us' or 'max_skew_us', not both",
                        )
                    )
                if "skew_us" not in block and "max_skew_us" not in block:
                    out.append(
                        SchemaIssue(
                            ("faults", i),
                            "clock_skew needs 'skew_us' or 'max_skew_us'",
                        )
                    )
                if block.get("skew_us") == 0:
                    out.append(
                        SchemaIssue(
                            ("faults", i, "skew_us"),
                            "skew_us of 0 is a no-op; remove the block",
                        )
                    )
            start = block.get("start_us")
            end = block.get("end_us")
            if isinstance(start, int) and isinstance(end, int) and end <= start:
                out.append(
                    SchemaIssue(
                        ("faults", i, "end_us"),
                        f"end_us ({end}) must be > start_us ({start})",
                    )
                )

    modes = doc.get("modes")
    if has_gray and isinstance(modes, list):
        bad = [m for m in modes if m in LOSSLESS_MODES]
        if bad:
            out.append(
                SchemaIssue(
                    ("modes",),
                    f"gray faults drop packets, which modes {bad} forbid "
                    "(instrumented recording assumes lossless links); "
                    "restrict modes to vanilla/logging",
                )
            )
    return out


def validate_document(doc: Any) -> List[SchemaIssue]:
    """All schema + semantic issues for a parsed document, in document
    order (structural first).  An empty list means the document compiles."""
    issues: List[SchemaIssue] = []
    if not isinstance(doc, dict):
        return [
            SchemaIssue(
                (), f"top level must be a mapping, got {type(doc).__name__}"
            )
        ]
    _validate(doc, SCENARIO_SCHEMA, (), issues)
    issues.extend(_semantic_issues(doc))
    return issues
