"""Intraprocedural dataflow over the AST: definitions, chains, witnesses.

This is the shared substrate under the proof-carrying rule families
(P probe purity, the K yield/spawn upgrade).  It stays deliberately
small and deterministic:

* **Reaching definitions, flow-insensitively merged per name.**
  :func:`collect_defs` walks one function body (never descending into
  nested ``def``/``lambda``) and records every statement that binds a
  local name — plain and annotated assignments, augmented assignments,
  ``for`` targets, ``with ... as`` aliases and walrus expressions.  A
  domain (Event-ness, probe handles) evaluates the recorded value
  expressions and merges over all defs of a name, so loops and
  branches are handled conservatively without a CFG.

* **Name chains.**  :func:`attr_chain` flattens ``self.env.probe``
  into ``("self", "env", "probe")`` — the currency of receiver
  classification — and :func:`rooted_call_chain` extends that through
  call results (``mx.counter("x").inc()`` roots at ``mx``).

* **Witness paths.**  A :class:`Hop` is one step of a def → flow → sink
  explanation; rules thread tuples of hops through their domain values
  so every finding can print exactly how the bad value travelled.
  Hops order by source location, making rendered witnesses stable.

Everything here is pure syntax — no imports are executed, no module
objects touched — so the engine stays safe to run on arbitrary trees.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

__all__ = [
    "Def",
    "Hop",
    "attr_chain",
    "collect_defs",
    "hop",
    "rooted_call_chain",
    "walk_own",
]

#: Cap on rendered witness length: enough for def → flow → sink chains,
#: short enough that a pathological cycle cannot bloat the report.
MAX_HOPS = 8


@dataclass(frozen=True, order=True)
class Hop:
    """One step of a witness path (a source location plus what happened)."""

    line: int
    col: int
    note: str

    def as_dict(self) -> dict:
        return {"line": self.line, "col": self.col, "note": self.note}


def hop(node: ast.AST, note: str) -> Hop:
    """A :class:`Hop` anchored at ``node``'s location."""
    return Hop(line=getattr(node, "lineno", 1),
               col=getattr(node, "col_offset", 0) + 1,
               note=note)


def cap_hops(hops: tuple[Hop, ...]) -> tuple[Hop, ...]:
    """Bound a witness chain, keeping the origin and the latest steps."""
    if len(hops) <= MAX_HOPS:
        return hops
    return hops[:1] + hops[-(MAX_HOPS - 1):]


@dataclass(frozen=True)
class Def:
    """One binding of a local name.

    ``expr`` is the bound value expression when one exists syntactically
    (``None`` for ``for`` targets, ``with ... as`` without a chain, and
    tuple-unpack elements — domains treat those as unknown).  ``aug`` is
    True for augmented assignments, whose effective value is
    ``<old> <op> expr``.
    """

    name: str
    node: ast.AST
    expr: Optional[ast.expr]
    aug: bool = False


def walk_own(root: ast.AST | Iterable[ast.stmt]) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested function/class defs.

    Accepts either a single node or a statement list (a function body).
    The root itself is not yielded when it is a function definition —
    only the nodes that belong to *its* body.
    """
    stack: list[ast.AST] = (
        list(root) if isinstance(root, list) else [root]
    )
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def collect_defs(body: list[ast.stmt]) -> dict[str, list[Def]]:
    """Every local-name binding in ``body``, in deterministic order.

    Nested ``def``/``class``/``lambda`` scopes are skipped — their
    bindings are not this scope's locals.  Comprehension variables are
    likewise invisible (they live in their own scope on Python 3).
    """
    out: dict[str, list[Def]] = {}

    def record(name: str, node: ast.AST, expr: Optional[ast.expr],
               aug: bool = False) -> None:
        out.setdefault(name, []).append(Def(name, node, expr, aug))

    def record_target(target: ast.expr, node: ast.AST,
                      expr: Optional[ast.expr]) -> None:
        if isinstance(target, ast.Name):
            record(target.id, node, expr)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                # Unpacked elements: the per-element value is unknown.
                record_target(elt, node, None)
        elif isinstance(target, ast.Starred):
            record_target(target.value, node, None)
        # Attribute/Subscript targets are stores to objects, not local
        # bindings — the probe-purity rules inspect those separately.

    for node in walk_own(body):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record_target(target, node, node.value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                record_target(node.target, node, node.value)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                record(node.target.id, node, node.value, aug=True)
        elif isinstance(node, ast.For):
            record_target(node.target, node, None)
        elif isinstance(node, ast.withitem):
            if node.optional_vars is not None:
                record_target(node.optional_vars, node.context_expr,
                              node.context_expr)
        elif isinstance(node, ast.NamedExpr):
            if isinstance(node.target, ast.Name):
                record(node.target.id, node, node.value)
    for defs in out.values():
        defs.sort(key=lambda d: (getattr(d.node, "lineno", 0),
                                 getattr(d.node, "col_offset", 0)))
    return out


def attr_chain(node: ast.expr) -> Optional[tuple[str, ...]]:
    """``self.env.probe`` → ``("self", "env", "probe")``; None otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


def rooted_call_chain(node: ast.expr) -> Optional[tuple[str, ...]]:
    """Like :func:`attr_chain`, but sees through intermediate calls.

    ``mx.counter("x").inc`` resolves to ``("mx", "counter", "inc")`` so a
    receiver classification can follow fluent APIs back to their root.
    Subscripts are skipped the same way (``self.vms[i].fabric`` roots at
    ``self``).
    """
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return tuple(reversed(parts))
        else:
            return None
