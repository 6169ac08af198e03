"""StateStore contract rules (STO2xx): write-barrier discipline.

Snapshots share stored values structurally, so the store's contract is:
values are immutable, every mutation is a *replacement* through the
namespace API, and restores follow the rollback engine's LIFO stack
discipline.  These rules catch the syntactic violations:

* STO201 -- storing a mutable literal (``list``/``dict``/``set``/
  ``bytearray``) into a namespace: the caller still holds the reference
  and any later in-place mutation corrupts every snapshot sharing it.
* STO202 -- mutating a name bound from ``ns.get(...)`` / ``ns[...]`` /
  ``ns.pop(...)``, or by ``for row in ns.values()`` / ``for key, row in
  ns.items()``: same aliasing hazard from the read side.
* STO203 -- restoring a snapshot token that an earlier restore already
  invalidated: ``restore(v)`` discards every token younger than ``v``
  (stack discipline), so straight-line code that restores an old token
  and then a younger one is dead wrong, not just stale.
* STO204 -- mutating a message payload after origination (replay-critical
  modules only): the fingerprint pipeline canonicalizes and caches
  ``repr(payload)`` once when the message is originated
  (``Message.canonical_payload_repr``), so any later in-place mutation
  -- ``msg.payload.append(...)``, ``msg.payload[k] = v``, rebinding
  ``msg.payload``, or mutating a name bound from ``.payload`` --
  silently desynchronizes the cached identity tag from the live value.
  ``self.payload = ...`` is exempt (origination code owns ``self``).

Namespace receivers are identified per module (names bound from
``*.namespace(...)`` / ``Namespace(...)``); the runtime sanitizer
(``REPRO_SANITIZE=1``) catches dynamically what these rules cannot
prove statically.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.engine import FileContext, Finding, dotted_name

#: Expression nodes that build a mutable container literal.
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp)

#: Method calls that mutate a container in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse",
    "__setitem__",
})

#: Namespace read accessors that hand back a stored value.
_READ_METHODS = frozenset({"get", "pop"})


def check(ctx: FileContext) -> Iterator[Finding]:
    yield from _check_sto201(ctx)
    for scope in _function_scopes(ctx.tree):
        yield from _check_sto202(ctx, scope)
        yield from _check_sto203(ctx, scope)
        if ctx.critical:
            yield from _check_sto204(ctx, scope)


def _function_scopes(tree: ast.AST) -> Iterator[ast.AST]:
    yield tree  # module level counts as a scope too
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _scope_statements(scope: ast.AST) -> List[ast.stmt]:
    """Every statement in the scope, excluding nested function bodies
    (they get their own pass), in lexical order."""
    out: List[ast.stmt] = []

    def visit(body: List[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            out.append(stmt)
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, []) or [])
            for handler in getattr(stmt, "handlers", []) or []:
                visit(handler.body)

    visit(getattr(scope, "body", []))
    return out


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "bytearray")
    return False


# ----------------------------------------------------------------------
# STO201: mutable literal stored into a namespace
# ----------------------------------------------------------------------
def _check_sto201(ctx: FileContext) -> Iterator[Finding]:
    receivers = ctx.ns_receivers
    if not receivers:
        return
    for node in ast.walk(ctx.tree):
        value: Optional[ast.AST] = None
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "set"
            and len(node.args) == 2
            and dotted_name(node.func.value) in receivers
        ):
            value = node.args[1]
        elif (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Subscript)
            and dotted_name(node.targets[0].value) in receivers
        ):
            value = node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("update", "replace")
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Dict)
            and dotted_name(node.func.value) in receivers
        ):
            # the mapping itself is consumed key-by-key; its *values*
            # are what end up stored
            for v in node.args[0].values:
                if v is not None and _is_mutable_literal(v):
                    value = v
                    break
        if value is not None and _is_mutable_literal(value):
            yield ctx.finding(
                value, "STO201",
                "mutable value stored into a StateStore namespace: "
                "snapshots share stored values structurally",
                hint="store an immutable form (tuple / frozenset / "
                     "frozen dataclass) instead",
            )


# ----------------------------------------------------------------------
# STO202: mutating a value read out of a namespace
# ----------------------------------------------------------------------
def _ns_read_binding(ctx: FileContext, stmt: ast.stmt) -> Optional[str]:
    """If ``stmt`` binds a simple name from ``ns.get(...)`` /
    ``ns.pop(...)`` / ``ns[...]``, or is a loop binding one to each
    stored value (``for row in ns.values()`` / ``for key, row in
    ns.items()``), return the name."""
    receivers = ctx.ns_receivers
    if (
        isinstance(stmt, (ast.For, ast.AsyncFor))
        and isinstance(stmt.iter, ast.Call)
        and isinstance(stmt.iter.func, ast.Attribute)
        and dotted_name(stmt.iter.func.value) in receivers
    ):
        method, target = stmt.iter.func.attr, stmt.target
        if method == "items" and isinstance(target, ast.Tuple) and len(target.elts) == 2:
            target = target.elts[1]
        elif method != "values":
            return None
        return target.id if isinstance(target, ast.Name) else None
    if not (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
    ):
        return None
    value = stmt.value
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr in _READ_METHODS
        and dotted_name(value.func.value) in receivers
    ):
        return stmt.targets[0].id
    if (
        isinstance(value, ast.Subscript)
        and dotted_name(value.value) in receivers
    ):
        return stmt.targets[0].id
    return None


def _check_sto202(ctx: FileContext, scope: ast.AST) -> Iterator[Finding]:
    if not ctx.ns_receivers:
        return
    statements = _scope_statements(scope)
    #: name -> line of its latest binding *from a namespace read*; a
    #: later re-binding from anything else evicts it.
    tainted: Dict[str, int] = {}
    #: a loop body is walked with its loop and again statement by
    #: statement: report each mutation once
    flagged: set = set()
    for stmt in statements:
        bound = _ns_read_binding(ctx, stmt)
        if bound is not None:
            tainted[bound] = stmt.lineno
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    tainted.pop(target.id, None)
        if not tainted:
            continue
        for finding in _mutations_of(ctx, stmt, tainted):
            if (finding.line, finding.col) not in flagged:
                flagged.add((finding.line, finding.col))
                yield finding


def _mutations_of(
    ctx: FileContext, stmt: ast.stmt, tainted: Dict[str, int]
) -> Iterator[Finding]:
    def hit(name_node: ast.AST) -> Optional[str]:
        if isinstance(name_node, ast.Name) and name_node.id in tainted:
            return name_node.id
        return None

    message = (
        "in-place mutation of a value read from a StateStore "
        "namespace: the store (and every snapshot) still references it"
    )
    hint = "build a replacement and store it back through the namespace"

    if isinstance(stmt, ast.AugAssign):
        target = stmt.target
        base = target.value if isinstance(
            target, (ast.Subscript, ast.Attribute)
        ) else target
        if hit(base):
            yield ctx.finding(stmt, "STO202", message, hint)
        return
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)) and hit(
                target.value
            ):
                yield ctx.finding(stmt, "STO202", message, hint)
                return
    for node in ast.walk(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
            and hit(node.func.value)
        ):
            yield ctx.finding(node, "STO202", message, hint)


# ----------------------------------------------------------------------
# STO203: LIFO restore discipline
# ----------------------------------------------------------------------
def _check_sto203(ctx: FileContext, scope: ast.AST) -> Iterator[Finding]:
    statements = _scope_statements(scope)
    #: receiver -> stack of live token names (oldest first)
    stacks: Dict[str, List[str]] = {}
    invalidated: Dict[Tuple[str, str], int] = {}
    for stmt in statements:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "snapshot"
            and not stmt.value.args
        ):
            receiver = dotted_name(stmt.value.func.value)
            if receiver is None:
                continue
            token = stmt.targets[0].id
            stack = stacks.setdefault(receiver, [])
            if token in stack:
                stack.remove(token)
            stack.append(token)
            invalidated.pop((receiver, token), None)
            continue
        for node in ast.walk(stmt):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "restore"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Name)
            ):
                continue
            receiver = dotted_name(node.func.value)
            if receiver is None or receiver not in stacks:
                continue
            token = node.args[0].id
            stack = stacks[receiver]
            key = (receiver, token)
            if key in invalidated:
                yield ctx.finding(
                    node, "STO203",
                    f"restore of {token!r} after an earlier restore of an "
                    f"older snapshot already discarded it (line "
                    f"{invalidated[key]}): restores follow LIFO stack "
                    "discipline",
                    hint="restore tokens newest-first, or re-snapshot "
                         "after rolling back",
                )
                continue
            if token not in stack:
                continue  # token from a branch/loop we did not model
            while stack and stack[-1] != token:
                younger = stack.pop()
                invalidated[(receiver, younger)] = node.lineno
            # the restored token itself stays live (pristine record)
    return


# ----------------------------------------------------------------------
# STO204: payload mutation after origination
# ----------------------------------------------------------------------
_PAYLOAD_ATTR = "payload"

_STO204_MESSAGE = (
    "payload mutated after origination: the fingerprint pipeline "
    "canonicalizes repr(payload) once at send time and caches the "
    "identity tag, so in-place changes desynchronize the cached tag "
    "from the live value"
)
_STO204_HINT = (
    "build the final (immutable) payload before originating the "
    "message; derive changed messages with dataclasses.replace"
)


def _is_payload_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == _PAYLOAD_ATTR


def _payload_binding_names(stmt: ast.stmt) -> List[str]:
    """Names bound from ``<expr>.payload`` (plain, annotated, or
    tuple-unpacked -- unpacking aliases the payload's elements)."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        target, value = stmt.target, stmt.value
    else:
        return []
    if not _is_payload_attr(value):
        return []
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [e.id for e in target.elts if isinstance(e, ast.Name)]
    return []


def _check_sto204(ctx: FileContext, scope: ast.AST) -> Iterator[Finding]:
    #: name -> binding line for names aliasing a payload (or an element
    #: of one); re-binding from anything else evicts, like STO202.
    tainted: Dict[str, int] = {}
    #: compound statements nest in _scope_statements, so every node
    #: flags at most once
    seen: set = set()

    def aliases_payload(node: ast.AST) -> bool:
        if _is_payload_attr(node):
            return True
        return isinstance(node, ast.Name) and node.id in tainted

    def flag(node: ast.AST) -> Iterator[Finding]:
        if id(node) not in seen:
            seen.add(id(node))
            yield ctx.finding(node, "STO204", _STO204_MESSAGE, _STO204_HINT)

    for stmt in _scope_statements(scope):
        bound = _payload_binding_names(stmt)
        if bound:
            for name in bound:
                tainted[name] = stmt.lineno
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    tainted.pop(target.id, None)
        if isinstance(stmt, ast.AugAssign):
            target = stmt.target
            base = target.value if isinstance(
                target, (ast.Subscript, ast.Attribute)
            ) else target
            if aliases_payload(base) or _is_payload_attr(target):
                yield from flag(stmt)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript) and aliases_payload(
                    target.value
                ):
                    yield from flag(stmt)
                elif (
                    _is_payload_attr(target)
                    # origination code owns self: __init__-style
                    # "self.payload = ..." is the origination itself
                    and not (
                        isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    )
                ):
                    yield from flag(stmt)
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
                and aliases_payload(node.func.value)
            ):
                yield from flag(node)
