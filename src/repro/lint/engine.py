"""Rule engine: file discovery, per-file AST context, shared analyses.

Each rule module exposes ``check(ctx) -> Iterator[Finding]`` over a
:class:`FileContext`.  The context carries the parsed tree plus the two
analyses several rules share:

* a child->parent node map (``ctx.parents``), so rules can ask how an
  expression's value is consumed (e.g. "is this comprehension's result
  fed straight into ``set()``?");
* the set of *namespace receivers* (``ctx.ns_receivers``): dotted names
  bound from ``<store>.namespace(...)`` or ``Namespace(...)`` anywhere
  in the module.  StateStore namespaces iterate in sorted key order by
  construction, so iterating one is ordered even though it quacks like
  a dict -- the D-rules must not flag it, and the S-rules key off it.

Criticality: modules under ``core/``, ``routing/`` or ``simnet/`` are
replay/fingerprint-critical -- the ordering rules (DET104/DET105) only
apply there.  The path test is segment-based so the fixture corpus
(``tests/lint_fixtures/core/...``) inherits criticality from its layout.
"""

from __future__ import annotations

import ast
import dataclasses
import os
from pathlib import PurePath
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Path segments that mark a module replay/fingerprint-critical.
CRITICAL_PARTS = frozenset({"core", "routing", "simnet"})


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One lint hit, sortable into deterministic report order."""

    path: str  # posix-style, relative to the lint invocation root
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""


class FileContext:
    """Everything a rule needs to know about one source file."""

    def __init__(self, path: str, relpath: str, source: str):
        self.path = path
        self.relpath = relpath.replace(os.sep, "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=self.relpath)
        self.critical = bool(CRITICAL_PARTS & set(PurePath(self.relpath).parts))
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        self._ns_receivers: Optional[Set[str]] = None

    # ------------------------------------------------------------------
    # shared analyses (lazy; several rules want them)
    # ------------------------------------------------------------------
    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    @property
    def ns_receivers(self) -> Set[str]:
        """Dotted names (``rib``, ``self._timers``) bound from
        ``*.namespace(...)`` or ``Namespace(...)`` in this module."""
        if self._ns_receivers is None:
            self._ns_receivers = _collect_ns_receivers(self.tree)
        return self._ns_receivers

    def finding(
        self, node: ast.AST, rule: str, message: str, hint: str = ""
    ) -> Finding:
        return Finding(
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
            hint=hint,
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def _ns_constructor(value: ast.AST) -> bool:
    """Does this expression build/fetch a StateStore namespace?"""
    if isinstance(value, ast.IfExp):
        return _ns_constructor(value.body) or _ns_constructor(value.orelse)
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("namespace", "Namespace")
    if isinstance(func, ast.Name):
        return func.id == "Namespace"
    return False


def _collect_ns_receivers(tree: ast.AST) -> Set[str]:
    receivers: Set[str] = set()
    for node in ast.walk(tree):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            value = node.value
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value = node.value
            targets = [node.target]
        else:
            continue
        if not _ns_constructor(value):
            continue
        for target in targets:
            name = dotted_name(target)
            if name is not None:
                receivers.add(name)
    return receivers


# ----------------------------------------------------------------------
# file discovery
# ----------------------------------------------------------------------
#: Extensions that may hold chaos scenario documents (CHS301).
SCENARIO_SUFFIXES = (".yaml", ".yml", ".json")


def _iter_files(
    paths: List[str], root: str, suffixes: Tuple[str, ...]
) -> Iterator[Tuple[str, str]]:
    """Yield ``(abspath, relpath)`` for every file under ``paths`` whose
    name ends with one of ``suffixes``, sorted for deterministic report
    order."""
    seen: Set[str] = set()
    collected: List[Tuple[str, str]] = []
    for raw in paths:
        target = raw if os.path.isabs(raw) else os.path.join(root, raw)
        if os.path.isfile(target):
            candidates = [target] if target.endswith(suffixes) else []
        else:
            candidates = []
            for dirpath, dirnames, filenames in os.walk(target):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for fn in sorted(filenames):
                    if fn.endswith(suffixes):
                        candidates.append(os.path.join(dirpath, fn))
        for path in candidates:
            path = os.path.abspath(path)
            if path in seen:
                continue
            seen.add(path)
            collected.append((path, os.path.relpath(path, root)))
    collected.sort(key=lambda pair: pair[1])
    yield from collected


def iter_python_files(paths: List[str], root: str) -> Iterator[Tuple[str, str]]:
    """Yield ``(abspath, relpath)`` for every .py under ``paths``,
    sorted for deterministic report order."""
    yield from _iter_files(paths, root, (".py",))


def iter_scenario_files(
    paths: List[str], root: str
) -> Iterator[Tuple[str, str]]:
    """Yield ``(abspath, relpath)`` for every YAML/JSON file under
    ``paths``, sorted.  Whether a given file actually *is* a chaos
    scenario is decided later by sniffing its ``schema:`` header."""
    yield from _iter_files(paths, root, SCENARIO_SUFFIXES)


def check_file(path: str, relpath: str) -> List[Finding]:
    """Parse one file and run every rule over it."""
    from repro.lint import drules, srules

    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    try:
        ctx = FileContext(path, relpath, source)
    except SyntaxError as exc:
        return [
            Finding(
                path=relpath.replace(os.sep, "/"),
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                rule="LNT000",
                message=f"file does not parse: {exc.msg}",
                hint="fix the syntax error; no other rules ran",
            )
        ]
    findings: List[Finding] = []
    findings.extend(drules.check(ctx))
    findings.extend(srules.check(ctx))
    findings.sort()
    return findings


def check_scenario_file(path: str, relpath: str) -> Optional[List[Finding]]:
    """Validate one chaos scenario document (rule CHS301).

    Returns ``None`` when the file is not a chaos scenario at all (no
    ``schema: chaos/...`` header) so ambient YAML/JSON -- CI configs,
    reports -- is not dragged under the schema.  A scenario that fails
    to parse or validate yields one finding per issue, anchored at the
    offending line/column."""
    from repro import chaos

    if not chaos.sniff_scenario_file(path):
        return None
    findings = [
        Finding(
            path=relpath.replace(os.sep, "/"),
            line=issue.line,
            col=issue.col,
            rule="CHS301",
            message=issue.message,
            hint="fix the document against docs/scenario-schema.md; "
            "`repro chaos validate <file>` reproduces this locally",
        )
        for issue in chaos.validate_file(path)
    ]
    findings.sort()
    return findings
