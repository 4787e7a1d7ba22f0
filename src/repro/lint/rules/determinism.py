"""D — determinism rules.

Simulation code must be a pure function of its inputs and the seeds
threaded from ``repro.experiments.config``: no wall clocks, no calendar
time, no unseeded or process-global randomness, no hash-order-dependent
iteration.  Any of these makes two runs of the same scenario diverge,
breaking bit-identical reruns and every golden fixture downstream.
"""

from __future__ import annotations

import ast

from repro.lint.config import DETERMINISM_MODULES, HOST_TIME_MODULES, in_scope
from repro.lint.findings import Finding
from repro.lint.rules.base import FileContext, resolved_name

#: Seeded-RNG constructors allowed under numpy.random.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "PCG64",
                 "Philox", "SFC64", "MT19937", "BitGenerator"}

_HINT_CLOCK = ("simulation time is env.now/env.timeout; wall-clock reads "
               "differ across runs and hosts")
_HINT_RNG = ("thread a seeded numpy.random.default_rng(seed) down from "
             "experiments.config instead of global/unseeded randomness")
_HINT_SET = ("bare set iteration order depends on PYTHONHASHSEED; wrap "
             "the set in sorted(...)")


def check(ctx: FileContext) -> list[Finding]:
    if not in_scope(ctx.module, DETERMINISM_MODULES):
        return []
    out: list[Finding] = []
    for node in ast.walk(ctx.tree):
        out.extend(_check_import(ctx, node))
        out.extend(_check_use(ctx, node))
        out.extend(_check_set_iteration(ctx, node))
    if in_scope(ctx.module, HOST_TIME_MODULES):
        # The self-profiler reads the host clock by design, so D101/D102
        # are waived.  D103/D104 still apply — a profiler has no business
        # drawing randomness or leaking hash order.
        out = [f for f in out if f.rule not in ("D101", "D102")]
    return out


def _check_import(ctx: FileContext, node: ast.AST) -> list[Finding]:
    modules: list[tuple[ast.AST, str]] = []
    if isinstance(node, ast.Import):
        modules = [(node, alias.name) for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        modules = [(node, node.module)]
    out: list[Finding] = []
    for where, name in modules:
        top = name.split(".")[0]
        if top == "time":
            out.append(ctx.finding(where, "D101",
                                   "wall-clock module 'time' imported "
                                   "in simulation code", _HINT_CLOCK))
        elif top == "datetime":
            out.append(ctx.finding(where, "D102",
                                   "calendar-time module 'datetime' imported "
                                   "in simulation code", _HINT_CLOCK))
        elif top in ("random", "secrets"):
            out.append(ctx.finding(where, "D103",
                                   f"module '{top}' is process-global "
                                   "randomness", _HINT_RNG))
    return out


def _check_use(ctx: FileContext, node: ast.AST) -> list[Finding]:
    if not isinstance(node, (ast.Attribute, ast.Name)):
        return []
    # Only flag the outermost attribute of a chain once: the parent walk
    # visits sub-attributes too, so restrict to full resolved names we
    # recognise exactly.
    name = resolved_name(ctx, node)
    if name is None:
        return []
    top = name.split(".")[0]
    if top == "time" and name != "time":
        return [ctx.finding(node, "D101", f"wall-clock read '{name}'",
                            _HINT_CLOCK)]
    if top == "datetime" and name != "datetime":
        return [ctx.finding(node, "D102", f"calendar-time use '{name}'",
                            _HINT_CLOCK)]
    if top in ("random", "secrets") and name != top:
        return [ctx.finding(node, "D103",
                            f"'{name}' draws from process-global randomness",
                            _HINT_RNG)]
    if name in ("os.urandom", "uuid.uuid1", "uuid.uuid4"):
        return [ctx.finding(node, "D103", f"'{name}' is entropy-seeded",
                            _HINT_RNG)]
    if name.startswith("numpy.random."):
        leaf = name.split(".")[-1]
        if leaf not in _NP_RANDOM_OK:
            return [ctx.finding(node, "D103",
                                f"'{name}' uses numpy's process-global RNG",
                                _HINT_RNG)]
    return []


def _check_set_iteration(ctx: FileContext, node: ast.AST) -> list[Finding]:
    out: list[Finding] = []
    iters: list[ast.expr] = []
    if isinstance(node, ast.For):
        iters.append(node.iter)
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)):
        iters.extend(gen.iter for gen in node.generators)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        # list(set(..)) / tuple(set(..)) / enumerate(set(..)): the
        # wrapper preserves the set's hash order.
        if node.func.id in ("list", "tuple", "enumerate", "iter") and node.args:
            iters.append(node.args[0])
    out.extend(
        ctx.finding(it, "D104", "iteration over a bare set leaks "
                                "PYTHONHASHSEED order", _HINT_SET)
        for it in iters if _is_bare_set(ctx, it)
    )
    # Unseeded default_rng() is caught here rather than in _check_use
    # because it needs the Call arguments.
    if isinstance(node, ast.Call):
        name = resolved_name(ctx, node.func)
        if (name == "numpy.random.default_rng"
                and not node.args and not node.keywords):
            out.append(ctx.finding(node, "D103",
                                   "numpy.random.default_rng() without a seed",
                                   _HINT_RNG))
    return out


def _is_bare_set(ctx: FileContext, node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "set"
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr,
                                                            ast.BitAnd,
                                                            ast.Sub)):
        # set algebra (a | b, a & b, a - b) over set displays.
        return _is_bare_set(ctx, node.left) or _is_bare_set(ctx, node.right)
    return False
