"""C — cause-tag completeness rules.

Every byte that moves through the simulation is attributed twice: by
*tag* (the channel it crossed) and by *cause* (why it crossed).  The
flight recorder's conservation check (``repro.obs.analyze.attribution``)
can only stay exact if no call site falls back to implicit defaults — a
new ``fabric.transfer(...)`` without an explicit ``cause=`` would bucket
its bytes under the tag name and silently dilute the causal story.

Byte-moving surfaces are identified by the receiver's final attribute
segment (``self.fabric``, ``mgr.repo``, ``self.meter``, ...) combined
with the method name; ``**kwargs`` forwarding is treated as satisfying
the requirement (the keywords may be inside).
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.rules.base import FileContext, dotted_name, keyword_names

_HINT = ("pass the keyword explicitly so byte attribution stays "
         "conservative (see docs/static-analysis.md); defaults hide new "
         "call sites from the conservation check")

#: method name -> (receiver kind, required keyword arguments)
_SURFACES = {
    "transfer": ("fabric", ("tag", "cause")),
    "message": ("fabric", ("tag", "cause")),
    "fetch": ("repo", ("tag", "cause")),
    "store": ("repo", ("tag", "cause")),
    "add": ("meter", ("cause",)),
}

_RULE_BY_KIND = {"fabric": "C301", "repo": "C302", "meter": "C303"}


def check(ctx: FileContext) -> list[Finding]:
    receivers = {
        "fabric": ctx.config.fabric_receivers,
        "repo": ctx.config.repo_receivers,
        "meter": ctx.config.meter_receivers,
    }
    out: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func,
                                                            ast.Attribute):
            continue
        spec = _SURFACES.get(node.func.attr)
        if spec is None:
            continue
        kind, required = spec
        if not _receiver_matches(node.func.value, receivers[kind]):
            continue
        present = keyword_names(node)
        if None in present:
            continue  # **kwargs forwarding: assume the keywords ride along
        missing = [kw for kw in required if kw not in present]
        if missing:
            recv = dotted_name(node.func.value) or "<expr>"
            out.append(ctx.finding(
                node, _RULE_BY_KIND[kind],
                f"{recv}.{node.func.attr}(...) misses explicit "
                f"{', '.join(f'{kw}=' for kw in missing)}",
                _HINT,
            ))
    return out


def _receiver_matches(node: ast.expr, names: tuple[str, ...]) -> bool:
    """True when the receiver's final segment names a known surface.

    Matches ``fabric``, ``self.fabric``, ``self._fabric`` and
    ``traffic_meter``-style compounds, but not substrings inside other
    words (``parameters`` does not match ``meter``).
    """
    if isinstance(node, ast.Attribute):
        seg = node.attr
    elif isinstance(node, ast.Name):
        seg = node.id
    else:
        return False
    seg = seg.lstrip("_")
    return any(seg == n or seg.endswith("_" + n) for n in names)
