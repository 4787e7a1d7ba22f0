"""Finding: one rule violation at one source location."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.lint.dataflow import Hop


@dataclass(frozen=True, order=True)
class Finding:
    """One simlint diagnostic.

    Orders by location first so rendered output is stable regardless of
    the order rules ran in.  Dataflow-backed findings (the P family and
    the K upgrade) carry a ``witness`` — the def → flow → sink hop
    chain that proves the finding — which renders as indented steps in
    text and a list of ``{line, col, note}`` objects in JSON.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""
    witness: tuple[Hop, ...] = field(default=(), compare=False)

    def with_witness(self, witness: tuple[Hop, ...]) -> "Finding":
        return replace(self, witness=witness)

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }
        if self.witness:
            out["witness"] = [h.as_dict() for h in self.witness]
        return out

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        for i, h in enumerate(self.witness):
            arrow = "└─" if i == len(self.witness) - 1 else "├─"
            text += f"\n    {arrow} {self.path}:{h.line}:{h.col}: {h.note}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text
