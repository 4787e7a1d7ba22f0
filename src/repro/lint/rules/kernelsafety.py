"""K — kernel-safety rules.

Generator functions inside the simulation packages may run as kernel
processes: their ``yield`` targets must be kernel :class:`Event` objects
and their bodies must not block on real-world I/O — a ``print`` or
``open`` inside a process body runs once per simulated event, couples
simulated behaviour to the host filesystem/tty, and (for writes) breaks
run-to-run determinism of any artifact diffing.

K401 (blocking I/O) and K402 (literal yields) are syntactic.  The
dataflow upgrade adds two proof-backed rules:

``K403``
    ``yield name`` where *every* reaching definition of ``name`` is
    provably not an Event — a number, a string, a container, arithmetic,
    a comparison, a clean-builtin call.  One Event-producing or unknown
    definition acquits the yield; the rule only fires on a guaranteed
    scheduler crash, and the finding's witness lists the offending
    definitions.
``K404``
    A spawned process whose handle is discarded: a bare expression
    statement ``env.process(gen(...))``.  Unawaited processes outlive
    scopes silently and their failures vanish; bind the handle
    (``done = env.process(...)``, later ``yield done``), also for a
    deliberate daemon.

Decorated generators (``@contextmanager``, ``@pytest.fixture``,
``@property``) are not kernel processes and are exempt.
"""

from __future__ import annotations

import ast

from repro.lint.config import SIM_MODULES, in_scope
from repro.lint.dataflow import (
    attr_chain,
    cap_hops,
    collect_defs,
    hop,
    walk_own,
)
from repro.lint.findings import Finding
from repro.lint.rules.base import (
    FileContext,
    decorator_names,
    iter_function_defs,
    own_yields,
    resolved_name,
)

_HINT_IO = ("simulation processes must not touch real I/O; report via "
            "env.probe or return data to the caller")
_HINT_YIELD = ("kernel processes may only yield Event objects (timeouts, "
               "transfers, conditions); a literal here would crash the "
               "scheduler at runtime")
_HINT_FLOW = ("every definition reaching this yield is a plain value, not "
              "an Event; yield the result of env.timeout/env.process/"
              "fabric.transfer or another Event factory")
_HINT_SPAWN = ("bind the returned Process (and later yield it) so failures "
               "propagate")

_EXEMPT_DECORATORS = {"contextmanager", "asynccontextmanager", "fixture",
                      "property", "cached_property"}

#: Builtins that block or leak outside the simulation.
_BLOCKING_BUILTINS = {"open", "print", "input", "breakpoint", "exec", "eval"}

#: Resolved dotted prefixes that block (any attribute below them).
_BLOCKING_PREFIXES = ("subprocess.", "socket.", "shutil.")
_BLOCKING_EXACT = {"os.system", "os.popen", "os.remove", "os.unlink",
                   "time.sleep", "sys.stdout.write", "sys.stderr.write"}


def check(ctx: FileContext) -> list[Finding]:
    if not in_scope(ctx.module, SIM_MODULES):
        return []
    out: list[Finding] = []
    for fn in iter_function_defs(ctx.tree):
        out.extend(_check_discarded_spawns(ctx, fn))
        yields = own_yields(fn)
        if not yields:
            continue
        if decorator_names(fn) & _EXEMPT_DECORATORS:
            continue
        unreachable = _unreachable_yields(fn)
        defs = collect_defs(fn.body)
        out.extend(_check_blocking(ctx, fn))
        for y in yields:
            if y in unreachable:
                continue
            out.extend(_check_yield(ctx, y))
            out.extend(_check_yield_flow(ctx, y, defs))
    return out


#: Call targets (final attribute or bare name) that produce Events.
_EVENT_FACTORIES = {"event", "timeout", "process", "any_of", "all_of",
                    "transfer", "message", "fetch", "store", "wait",
                    "acquire", "request", "causal_tag", "arm"}
_EVENT_CTORS = {"Event", "Timeout", "Process", "Condition", "AnyOf",
                "AllOf", "Interrupt"}
_NONEVENT_CALLS = {"int", "float", "str", "bool", "len", "abs", "round",
                   "min", "max", "sum", "sorted", "list", "dict", "set",
                   "tuple", "frozenset", "repr", "format", "range",
                   "Fraction"}

_EVENT, _NON_EVENT, _MAYBE = "event", "non-event", "maybe"


def _classify(expr: ast.expr) -> str:
    """Is this expression an Event, definitely not one, or unknown?"""
    if isinstance(expr, ast.Constant):
        return _NON_EVENT
    if isinstance(expr, (ast.List, ast.Tuple, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp,
                         ast.GeneratorExp, ast.JoinedStr,
                         ast.Compare, ast.BoolOp)):
        return _NON_EVENT
    if isinstance(expr, ast.UnaryOp):
        return _classify(expr.operand)
    if isinstance(expr, ast.BinOp):
        if isinstance(expr.op, (ast.BitOr, ast.BitAnd)):
            # Event composition (a | b, a & b) — event iff a side is.
            sides = (_classify(expr.left), _classify(expr.right))
            if _EVENT in sides:
                return _EVENT
            return _MAYBE  # could be int bit-ops or set algebra
        return _NON_EVENT  # arithmetic never yields an Event
    if isinstance(expr, ast.IfExp):
        branches = {_classify(expr.body), _classify(expr.orelse)}
        if branches == {_NON_EVENT}:
            return _NON_EVENT
        if _EVENT in branches:
            return _EVENT
        return _MAYBE
    if isinstance(expr, ast.Call):
        target = expr.func
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        else:
            chain = attr_chain(target)
            if chain is not None:
                name = chain[-1]
        if name is None:
            return _MAYBE
        if name in _EVENT_CTORS or name.lower() in _EVENT_FACTORIES:
            return _EVENT
        if name in _NONEVENT_CALLS:
            return _NON_EVENT
        return _MAYBE
    return _MAYBE  # names, attribute loads, subscripts: no proof either way


def _check_yield_flow(ctx: FileContext, node: ast.expr,
                      defs: dict) -> list[Finding]:
    """K403: flag ``yield name`` whose every reaching def is non-Event."""
    if not isinstance(node, ast.Yield) or not isinstance(node.value, ast.Name):
        return []
    name = node.value.id
    dlist = defs.get(name)
    if not dlist:
        return []  # parameter or closure: unknown, acquit
    verdicts = []
    for d in dlist:
        if d.expr is None or d.aug:
            return []  # loop target / unpack / augmented: unknown
        verdicts.append((d, _classify(d.expr)))
    if not all(v == _NON_EVENT for _, v in verdicts):
        return []
    witness = tuple(
        hop(d.node, f"{name!r} assigned a non-Event value")
        for d, _ in verdicts
    ) + (hop(node, f"yielded {name!r} here"),)
    return [ctx.finding(
        node, "K403",
        f"process generator yields '{name}', which is never an Event "
        f"on any path", _HINT_FLOW).with_witness(cap_hops(witness))]


def _check_discarded_spawns(ctx: FileContext,
                            fn: ast.FunctionDef) -> list[Finding]:
    """K404: a bare ``env.process(...)`` statement discards the handle."""
    out: list[Finding] = []
    for node in walk_own(fn.body):
        if not (isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)):
            continue
        chain = attr_chain(node.value.func)
        if chain is None or chain[-1] != "process":
            continue
        if "env" not in chain[:-1] and chain[0] != "env":
            continue
        dotted = ".".join(chain)
        witness = (hop(node, f"spawned via {dotted}(...), handle dropped"),)
        out.append(ctx.finding(
            node, "K404",
            f"spawned process '{dotted}(...)' is neither bound nor "
            f"awaited", _HINT_SPAWN).with_witness(witness))
    return out


def _unreachable_yields(fn: ast.FunctionDef) -> set[ast.expr]:
    """Yields in the ``return``-then-``yield`` empty-generator idiom.

    A bare ``yield`` directly after a ``return`` in the same statement
    block never runs — it only turns the function into a generator (the
    standard way to write a do-nothing lifecycle hook) and is exempt
    from K402.
    """
    out: set[ast.expr] = set()
    for node in ast.walk(fn):
        for block in ("body", "orelse", "finalbody"):
            stmts = getattr(node, block, None)
            if not isinstance(stmts, list):
                continue
            for prev, cur in zip(stmts, stmts[1:]):
                if (isinstance(prev, ast.Return)
                        and isinstance(cur, ast.Expr)
                        and isinstance(cur.value, ast.Yield)
                        and cur.value.value is None):
                    out.add(cur.value)
    return out


def _check_blocking(ctx: FileContext, fn: ast.FunctionDef) -> list[Finding]:
    out: list[Finding] = []
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # nested defs are linted on their own merits
        stack.extend(ast.iter_child_nodes(node))
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            if node.func.id in _BLOCKING_BUILTINS:
                out.append(ctx.finding(
                    node, "K401",
                    f"blocking call '{node.func.id}(...)' inside the "
                    f"process generator '{fn.name}'", _HINT_IO))
            continue
        name = resolved_name(ctx, node.func)
        if name is None:
            continue
        if name in _BLOCKING_EXACT or name.startswith(_BLOCKING_PREFIXES):
            out.append(ctx.finding(
                node, "K401",
                f"blocking call '{name}(...)' inside the process "
                f"generator '{fn.name}'", _HINT_IO))
    return out


def _check_yield(ctx: FileContext, node: ast.expr) -> list[Finding]:
    if isinstance(node, ast.YieldFrom):
        return []  # delegation: the inner generator is checked itself
    assert isinstance(node, ast.Yield)
    value = node.value
    if value is None:
        return [ctx.finding(node, "K402",
                            "bare 'yield' in a process generator",
                            _HINT_YIELD)]
    if isinstance(value, ast.Constant) or isinstance(
            value, (ast.List, ast.Tuple, ast.Dict, ast.Set,
                    ast.ListComp, ast.DictComp, ast.SetComp,
                    ast.GeneratorExp, ast.JoinedStr)):
        return [ctx.finding(node, "K402",
                            "process generator yields a literal, not an "
                            "Event", _HINT_YIELD)]
    return []
