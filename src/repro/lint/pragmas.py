"""simlint pragma parsing.

Five comment pragmas are recognised::

    # simlint: exact                      (module-level: the one way to
                                           declare F-rule exact scope)
    # simlint: host-time                  (module-level: waive D101/D102 —
                                           sanctioned host-clock reads)
    # simlint: module=repro.core.thing    (module-level: override identity)
    env.process(reaper())  # simlint: daemon -- reaper outlives the scope
    x = wall / 1e6  # simlint: ignore[D101] -- trace timestamps are floats

``ignore[...]`` takes a comma-separated list of rule ids or family
letters and applies to the line it sits on; ``daemon`` is sugar for
``ignore[K404]`` (a deliberate fire-and-forget process).  Text after
``--`` is the suppression's *reason* — it is carried into the budget
report and the committed baseline, so every standing suppression
documents itself.  Suppressions never vanish: each one is reported in
the suppression budget, flagged as unused when no finding matched it.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterator

_PRAGMA = re.compile(r"#\s*simlint:\s*(?P<body>[^#]*)")
_IGNORE = re.compile(r"ignore\[(?P<rules>[A-Za-z0-9_,\s]+)\]")
_MODULE = re.compile(r"module\s*=\s*(?P<name>[A-Za-z_][\w.]*)")


@dataclass
class Suppression:
    """One ``ignore[...]`` (or ``daemon``) pragma on one line."""

    line: int
    rules: tuple[str, ...]
    used: bool = False
    reason: str = ""

    def matches(self, rule: str) -> bool:
        # A bare family letter ("F") suppresses the whole family.
        return any(rule == r or rule.startswith(r) for r in self.rules)

    def as_dict(self) -> dict:
        return {"line": self.line, "rules": list(self.rules),
                "used": self.used, "reason": self.reason}


@dataclass
class FilePragmas:
    """All pragmas found in one source file."""

    exact: bool = False
    host_time: bool = False
    module_override: str | None = None
    suppressions: dict[int, Suppression] = field(default_factory=dict)

    def suppression_for(self, line: int, rule: str) -> Suppression | None:
        sup = self.suppressions.get(line)
        if sup is not None and sup.matches(rule):
            return sup
        return None


def _comment_tokens(source: str) -> Iterator[tuple[int, str]]:
    """(line, text) for every real COMMENT token.

    Tokenizing (rather than scanning lines) keeps pragma *mentions*
    inside strings and docstrings — like the ones in this module — from
    counting as live pragmas.
    """
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparsable tail (the AST parse will report it); keep whatever
        # comments tokenized before the error.
        return


def parse_pragmas(source: str) -> FilePragmas:
    out = FilePragmas()
    for lineno, text in _comment_tokens(source):
        m = _PRAGMA.search(text)
        if m is None:
            continue
        body = m.group("body").strip()
        head, _, tail = body.partition("--")
        reason = tail.strip()
        ig = _IGNORE.search(head)
        if ig is not None:
            rules = tuple(
                sorted({r.strip() for r in ig.group("rules").split(",") if r.strip()})
            )
            if rules:
                out.suppressions[lineno] = Suppression(
                    line=lineno, rules=rules, reason=reason)
            continue
        mod = _MODULE.search(head)
        if mod is not None:
            out.module_override = mod.group("name")
            continue
        word = head.strip()
        if word == "exact":
            out.exact = True
        elif word == "host-time":
            out.host_time = True
        elif word == "daemon":
            # A deliberate fire-and-forget process: suppresses K404 on
            # this line, reported in the budget like any ignore[...].
            out.suppressions[lineno] = Suppression(
                line=lineno, rules=("K404",), reason=reason or "daemon")
    return out
