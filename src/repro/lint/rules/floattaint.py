"""F — float-free exact scope, checked by syntax.

A module carrying ``# simlint: exact`` does its conservation arithmetic
on :class:`fractions.Fraction`, where equality is exact by
construction, and computes no floats at all.  A float may enter only as
a value the module reads (an artifact field, a recorder timestamp) and
may leave only through ``float(...)`` or :func:`repro.obs.render.ratio`.
Under that discipline every float is flagged where it originates, so
nothing has to be tracked:

``F601``
    A ``Fraction(...)`` argument is computed.  Allowed arguments are an
    int or str literal, a read (a name, attribute, subscript or
    ``.get(...)`` call) or ``float(<read>)``; do arithmetic on the
    Fractions, not before building them.
``F602``
    A float origin anywhere in the file: a non-integral float literal
    (``0.1``'s binary value already differs from its spelling) or a
    true division (``/`` or ``/=``), which rounds even two ints.
``F603``
    The module imports ``math`` or ``time`` at runtime.  Both exist to
    produce floats (or wall-clock readings); an exact-scope module has
    no business importing either outside ``TYPE_CHECKING``.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.rules.base import FileContext, resolved_name

_HINT_CTOR = ("build Fractions from int or str literals or from values "
              "read as they are (a name, attribute, subscript, .get(...) "
              "or float(<read>)), then do the arithmetic on the Fractions")
_HINT_DIV = ("exact modules compute no floats: write a Fraction quotient "
             "as Fraction(n, d), and render a share or ratio with "
             "repro.obs.render.ratio(a, b)")
_HINT_LITERAL = ("exact modules compute no floats: spell the constant as "
                 "Fraction(n, d) or an integral literal")
_HINT_IMPORT = ("math/time produce floats and wall-clock readings; exact "
                "modules must not import them (move the float math to a "
                "non-exact rendering module)")

_FLOAT_IMPORTS = {"math", "time"}


def check(ctx: FileContext) -> list[Finding]:
    if not ctx.pragmas.exact:
        return []
    out: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and _is_fraction_ctor(ctx, node.func):
            out.extend(
                ctx.finding(arg, "F601", "computed argument to Fraction(...)",
                            _HINT_CTOR)
                for arg in [*node.args, *(kw.value for kw in node.keywords)]
                if not _exact_argument(arg)
            )
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Div)):
            out.append(ctx.finding(node, "F602", "true division in exact scope",
                                   _HINT_DIV))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, float)
              and not _integral(node.value)):
            out.append(ctx.finding(
                node, "F602",
                f"non-integral float literal {node.value!r} in exact scope",
                _HINT_LITERAL))
        elif (isinstance(node, (ast.Import, ast.ImportFrom))
              and node.lineno not in ctx.type_checking_lines):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                names = [node.module or ""] if node.level == 0 else []
            out.extend(
                ctx.finding(node, "F603",
                            f"exact-scope module imports '{name}'", _HINT_IMPORT)
                for name in names if name.split(".")[0] in _FLOAT_IMPORTS
            )
    return out


def _is_fraction_ctor(ctx: FileContext, func: ast.expr) -> bool:
    if isinstance(func, ast.Name) and func.id == "Fraction":
        return True
    return resolved_name(ctx, func) == "fractions.Fraction"


def _is_read(node: ast.expr) -> bool:
    """A name, or an attribute, subscript or ``.get(...)`` of a read."""
    if isinstance(node, ast.Name):
        return True
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        return _is_read(node.value)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and _is_read(node.func.value))


def _exact_argument(arg: ast.expr) -> bool:
    """An int or str literal, a read, or ``float(<read>)``."""
    if isinstance(arg, ast.Constant):
        return type(arg.value) in (int, str)
    if (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
            and arg.func.id == "float" and len(arg.args) == 1
            and not arg.keywords):
        return _is_read(arg.args[0])
    return _is_read(arg)


def _integral(value: float) -> bool:
    """True when a float literal denotes exactly an integer (``0.0``, ``1e6``).

    Such literals are exact by construction; an overflowing spelling
    (``1e999`` is ``inf``) is non-integral.
    """
    try:
        return value == int(value)
    except (OverflowError, ValueError):
        return False
