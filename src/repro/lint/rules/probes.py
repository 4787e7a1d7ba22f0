"""P — probe-purity rules: telemetry blocks must be observe-only.

Every instrumented site reports its simulation event through the one
probe handle, guarded on the probe's flag::

    p = self.env.probe
    if p.enabled:
        p.push_batch(self.vm.name, t0, int(batch.size), wire, self.remaining)

The whole design rests on those blocks being *pure observers*: with
telemetry off they are skipped entirely, so anything they do beyond
reading state and calling the recorder makes enabled and disabled runs
diverge — the exact bug class the differential suites exist to catch,
except baked into the instrumentation itself.  These rules prove the
property statically, per guarded block, inside the simulation packages
(``SIM_MODULES``):

``P701``
    A store inside a probe block: assignment/deletion through an
    attribute or subscript not rooted at a probe handle, or a mutating
    method call (``append``, ``update``, ``pop``, ...) on sim-rooted
    state.  Local names are fair game — computing a value to report is
    what probes do.
``P702``
    Event scheduling inside a probe block: ``env.timeout(...)``,
    ``env.process(...)``, ``event.succeed()``, ``timer.arm(...)`` and
    friends.  A probe that schedules work changes the event sequence.
``P703``
    A byte-moving surface called inside a probe block: ``meter.add``,
    ``fabric.transfer/message``, ``repo.fetch/store`` (the same
    receiver heuristics the C family uses).  Telemetry must never move
    or account bytes itself — it reads the meters others wrote.

A *probe handle* is any local bound from an attribute chain whose final
segment is one of ``PROBE_ATTRS`` (``probe``), or such a chain used
directly; a *probe block* is an ``if`` whose test reads ``.enabled`` off
a handle.  Calls that root at a handle — ``p.push_batch(...)``, or a
sub-recorder like ``p.causal.record_wait(...)`` — are always allowed.

Witness paths record where the handle was bound, which guard opened the
block, and the offending operation.
"""

from __future__ import annotations

import ast
from typing import Callable, Optional

from repro.lint.config import (
    FABRIC_RECEIVERS,
    METER_RECEIVERS,
    PROBE_ATTRS,
    REPO_RECEIVERS,
    SIM_MODULES,
    in_scope,
)
from repro.lint.dataflow import (
    Hop,
    attr_chain,
    cap_hops,
    collect_defs,
    hop,
    rooted_call_chain,
    walk_own,
)
from repro.lint.findings import Finding
from repro.lint.rules.base import FileContext, iter_function_defs

_HINT_STORE = ("probe blocks run only when telemetry is on; a store here "
               "makes instrumented and plain runs diverge — move the "
               "mutation outside the enabled-guard")
_HINT_SCHED = ("scheduling from a probe changes the event sequence of "
               "instrumented runs; probes may only read state and call "
               "the recorder")
_HINT_BYTES = ("byte accounting belongs to the simulation proper; the "
               "probe should read meter totals, never write them")

#: Method names that mutate their receiver in-place.
_MUTATORS = {"append", "appendleft", "extend", "insert", "remove", "pop",
             "popleft", "clear", "add", "discard", "update", "setdefault",
             "sort", "reverse", "fill", "write", "writelines"}

#: Final attributes that schedule or fire kernel events.
_SCHEDULERS = {"process", "timeout", "event", "any_of", "all_of", "run",
               "step", "schedule", "_schedule", "succeed", "fail",
               "trigger", "interrupt", "arm", "cancel"}

#: env-factory subset of the schedulers: only flagged when the chain
#: actually roots in the environment (``env.run`` vs an unrelated
#: ``report.run``).
_ENV_ONLY = {"process", "timeout", "event", "any_of", "all_of", "run",
             "step", "schedule", "_schedule"}

#: emit(node, rule, message, hint, witness-note)
_Emit = Callable[[ast.AST, str, str, str, str], None]


def check(ctx: FileContext) -> list[Finding]:
    if not in_scope(ctx.module, SIM_MODULES):
        return []
    out: list[Finding] = []
    for fn in iter_function_defs(ctx.tree):
        out.extend(_check_function(ctx, fn))
    return out


def _probe_rooted(chain: tuple[str, ...], handles: dict[str, Hop]) -> bool:
    """True when ``chain`` reads through telemetry, not sim state."""
    if chain[0] in handles:
        return True
    return any(seg in PROBE_ATTRS for seg in chain)


def _sim_rooted(chain: tuple[str, ...], sim_names: set[str]) -> bool:
    return chain[0] in ("self", "cls", "env") or chain[0] in sim_names


def _check_function(ctx: FileContext, fn: ast.FunctionDef) -> list[Finding]:
    defs = collect_defs(fn.body)
    handles: dict[str, Hop] = {}
    sim_names: set[str] = set()
    for name, dlist in defs.items():
        for d in dlist:
            if d.expr is None:
                continue
            chain = attr_chain(d.expr)
            if chain is None or len(chain) < 2:
                continue
            if any(seg in PROBE_ATTRS for seg in chain):
                handles[name] = hop(
                    d.node, f"probe handle {name!r} bound from "
                            f"{'.'.join(chain)}")
            elif chain[0] in ("self", "env"):
                # An alias of sim state (vm = self.vm): mutating through
                # it inside a probe block is still a sim mutation.
                sim_names.add(name)
    # A local holding a handle's flag (``on = p.enabled``) guards too.
    flags: dict[str, tuple[str, Hop]] = {}
    for name, dlist in defs.items():
        for d in dlist:
            guard = (_enabled_guard(d.expr, handles)
                     if isinstance(d.expr, ast.Attribute) else None)
            if guard is not None:
                flags[name] = guard

    out: list[Finding] = []
    for node in walk_own(fn.body):
        if not isinstance(node, ast.If):
            continue
        guard = _enabled_guard(node.test, handles, flags)
        if guard is None:
            continue
        handle_name, guard_hop = guard
        prefix: tuple[Hop, ...] = ()
        if handle_name in handles:
            prefix += (handles[handle_name],)
        prefix += (guard_hop,)
        out.extend(_check_block(ctx, node.body, handles, sim_names, prefix))
    return out


def _enabled_guard(test: ast.expr, handles: dict[str, Hop],
                   flags: Optional[dict[str, tuple[str, Hop]]] = None,
                   ) -> Optional[tuple[str, Hop]]:
    """(handle root, guard hop) when ``test`` reads ``.enabled`` off one,
    directly or through a local in ``flags``."""
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and flags and node.id in flags:
            return flags[node.id]
        if isinstance(node, ast.Attribute) and node.attr == "enabled":
            chain = attr_chain(node.value)
            if chain is not None and _probe_rooted(chain, handles):
                return chain[0], hop(
                    node, f"probe block guarded by "
                          f"{'.'.join(chain)}.enabled")
    return None


def _check_block(ctx: FileContext, body: list[ast.stmt],
                 handles: dict[str, Hop], sim_names: set[str],
                 prefix: tuple[Hop, ...]) -> list[Finding]:
    out: list[Finding] = []

    def emit(node: ast.AST, rule: str, message: str, hint: str,
             note: str) -> None:
        witness = cap_hops(prefix + (hop(node, note),))
        out.append(ctx.finding(node, rule, message, hint)
                   .with_witness(witness))

    for node in walk_own(body):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                out.extend(_check_store(node, target, handles, emit))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                out.extend(_check_store(node, target, handles, emit))
        elif isinstance(node, ast.Call):
            _check_call(node, handles, sim_names, emit)
    return out


def _check_store(node: ast.AST, target: ast.expr, handles: dict[str, Hop],
                 emit: _Emit) -> list[Finding]:
    # Local name (re)bindings are allowed; object stores are not.
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _check_store(node, elt, handles, emit)
        return []
    if not isinstance(target, (ast.Attribute, ast.Subscript)):
        return []
    chain = rooted_call_chain(target)
    if chain is not None and _probe_rooted(chain, handles):
        return []
    label = ".".join(chain) if chain is not None else "<expression>"
    emit(node, "P701",
         f"store to '{label}' inside a probe block", _HINT_STORE,
         f"writes {label} while telemetry-guarded")
    return []


def _check_call(node: ast.Call, handles: dict[str, Hop],
                sim_names: set[str], emit: _Emit) -> None:
    chain = rooted_call_chain(node.func)
    if chain is None or len(chain) < 2:
        return
    if _probe_rooted(chain, handles):
        return
    method = chain[-1]
    dotted = ".".join(chain)
    if method in _SCHEDULERS:
        if method in _ENV_ONLY and "env" not in chain[:-1]:
            pass  # report.run(...), config.step(...): not the kernel
        else:
            emit(node, "P702",
                 f"event scheduling '{dotted}(...)' inside a probe block",
                 _HINT_SCHED, f"schedules via {dotted}")
            return
    receiver = chain[-2].lstrip("_")

    def matches(suffixes: tuple[str, ...]) -> bool:
        return any(receiver == s or receiver.endswith("_" + s)
                   for s in suffixes)

    if (matches(METER_RECEIVERS) and method == "add") \
            or (matches(FABRIC_RECEIVERS)
                and method in ("transfer", "message")) \
            or (matches(REPO_RECEIVERS)
                and method in ("fetch", "store")):
        emit(node, "P703",
             f"byte-moving call '{dotted}(...)' inside a probe block",
             _HINT_BYTES, f"moves/accounts bytes via {dotted}")
        return
    if method in _MUTATORS and _sim_rooted(chain, sim_names):
        emit(node, "P701",
             f"mutating call '{dotted}(...)' inside a probe block",
             _HINT_STORE, f"mutates sim state via {dotted}")
