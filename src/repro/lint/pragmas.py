"""simlint pragma parsing.

Two comment pragmas are recognised, both module-level::

    # simlint: exact -- why               (the one way to declare F-rule
                                           exact scope)
    # simlint: module=repro.core.thing    (override the module identity)

Text after ``--`` is a free-form reason.  No comment silences a
finding: an exception to a rule is a change to that rule's scope,
argued in review.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Iterator

_PRAGMA = re.compile(r"#\s*simlint:\s*(?P<body>[^#]*)")
_MODULE = re.compile(r"module\s*=\s*(?P<name>[A-Za-z_][\w.]*)")


@dataclass
class FilePragmas:
    """All pragmas found in one source file."""

    exact: bool = False
    module_override: str | None = None


def _comments(source: str) -> Iterator[str]:
    """The text of every real COMMENT token.

    Tokenizing (rather than scanning lines) keeps pragma *mentions*
    inside strings and docstrings — like the ones in this module — from
    counting as live pragmas.
    """
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparsable tail (the AST parse will report it); keep whatever
        # comments tokenized before the error.
        return


def parse_pragmas(source: str) -> FilePragmas:
    out = FilePragmas()
    for text in _comments(source):
        m = _PRAGMA.search(text)
        if m is None:
            continue
        head = m.group("body").partition("--")[0].strip()
        mod = _MODULE.search(head)
        if mod is not None:
            out.module_override = mod.group("name")
        elif head == "exact":
            out.exact = True
    return out
