"""S — structure rules.

The simulation stack is layered: ``simkernel`` at the bottom, then
``netsim``, then the storage/hypervisor/repository/workload models, then
``core`` (migration strategies), ``cluster`` and finally
``experiments``/``cli``.  An import that points *up* this DAG couples a
mechanism to its policy — the classic inversion that makes the kernel
untestable in isolation and turns refactors into dependency knots.

Cross-cutting packages (``obs``, ``metrics``, ``faults``, ``lint``) are
deliberately unranked in the global DAG and may be imported from
anywhere — but ``obs`` carries its own sub-DAG (S502): the diff engine
(``repro.obs.diff``) consumes the analysis artifacts and may import
``obs.analyze``/``obs.causal``/``obs.prof``, while nothing else in
``obs.*`` may import ``obs.diff`` back.  Imports inside
``if TYPE_CHECKING:`` blocks are annotations-only and exempt.
"""

from __future__ import annotations

import ast

from repro.lint.config import LAYERS, OBS_LAYERS, layer_of
from repro.lint.findings import Finding
from repro.lint.rules.base import FileContext

_HINT = ("the layer DAG is simkernel <- netsim <- storage/hypervisor/"
         "repository/workloads <- core <- cluster <- experiments; move "
         "the shared piece down a layer or invert the dependency "
         "(callback, event, protocol)")

_OBS_HINT = ("repro.obs.diff consumes the analysis artifacts "
             "(summaries, critical paths, profiler trees); producers "
             "must stay importable without it — move the shared piece "
             "into obs.analyze/obs.causal/obs.prof or pass the data in")


def check(ctx: FileContext) -> list[Finding]:
    my_layer = layer_of(ctx.module, LAYERS)
    my_obs_layer = layer_of(ctx.module, OBS_LAYERS)
    if my_layer is None and my_obs_layer is None:
        return []
    out: list[Finding] = []
    for node in ast.walk(ctx.tree):
        targets: list[str] = []
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            targets = [node.module] if node.module else []
        elif isinstance(node, ast.ImportFrom) and node.level > 0:
            # Relative import: resolve against this module's package.
            parts = ctx.module.split(".")
            base = parts[: len(parts) - node.level]
            if base:
                targets = [".".join(base + ([node.module] if node.module
                                            else []))]
        if not targets:
            continue
        if node.lineno in ctx.type_checking_lines:
            continue
        for target in targets:
            if my_layer is not None:
                their_layer = layer_of(target, LAYERS)
                if their_layer is not None and their_layer > my_layer:
                    out.append(ctx.finding(
                        node, "S501",
                        f"'{ctx.module}' (layer {my_layer}) imports "
                        f"'{target}' (layer {their_layer}) — upward "
                        "dependency inverts the layer DAG", _HINT))
            if my_obs_layer is not None:
                their_obs = layer_of(target, OBS_LAYERS)
                if their_obs is not None and their_obs > my_obs_layer:
                    out.append(ctx.finding(
                        node, "S502",
                        f"'{ctx.module}' (obs rank {my_obs_layer}) "
                        f"imports '{target}' (obs rank {their_obs}) — "
                        "an analysis producer importing the diff engine "
                        "inverts the obs sub-DAG", _OBS_HINT))
    return out
