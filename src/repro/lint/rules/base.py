"""Shared per-file context and AST helpers for the rule families."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.pragmas import FilePragmas


@dataclass
class FileContext:
    """Everything a rule needs to know about one parsed source file."""

    path: str                      # as reported in findings (posix, relative)
    module: str                    # dotted module identity (pragma may override)
    tree: ast.AST
    pragmas: FilePragmas
    #: local alias -> imported dotted name ("np" -> "numpy",
    #: "default_rng" -> "numpy.random.default_rng").
    imports: dict[str, str] = field(default_factory=dict)
    #: 1-based line numbers inside ``if TYPE_CHECKING:`` bodies.
    type_checking_lines: set[int] = field(default_factory=set)

    def finding(self, node: ast.AST, rule: str, message: str,
                hint: str = "") -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
            hint=hint,
        )


def build_context(path: str, module: str, tree: ast.AST,
                  pragmas: FilePragmas) -> FileContext:
    ctx = FileContext(path=path, module=module, tree=tree, pragmas=pragmas)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                ctx.imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                ctx.imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        elif isinstance(node, ast.If) and _is_type_checking_test(node.test):
            for sub in node.body:
                for inner in ast.walk(sub):
                    lineno = getattr(inner, "lineno", None)
                    if lineno is not None:
                        ctx.type_checking_lines.add(lineno)
    return ctx


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolved_name(ctx: FileContext, node: ast.expr) -> Optional[str]:
    """Dotted name with the leading alias resolved through the imports.

    ``np.random.rand`` -> ``numpy.random.rand`` after ``import numpy as
    np``.  Returns None for non-name expressions and names that do not
    start at an imported alias (locals, attributes of self, ...).
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    target = ctx.imports.get(head)
    if target is None:
        return None
    return f"{target}.{rest}" if rest else target


def keyword_names(call: ast.Call) -> set[Optional[str]]:
    """Keyword argument names of ``call`` (None marks ``**kwargs``)."""
    return {kw.arg for kw in call.keywords}


def iter_function_defs(
        tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def own_yields(fn: ast.FunctionDef) -> list[ast.expr]:
    """Yield/YieldFrom nodes belonging to ``fn`` itself (not nested defs)."""
    out: list[ast.expr] = []
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


def decorator_names(fn: ast.FunctionDef) -> set[str]:
    names: set[str] = set()
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = dotted_name(target)
        if dotted is not None:
            names.add(dotted.split(".")[-1])
    return names
