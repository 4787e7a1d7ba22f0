"""simlint: an AST-based invariant linter for this reproduction.

The runtime guarantees of the simulation stack — bit-identical reruns,
Fraction-exact byte/time conservation, full causal coverage of every
byte-moving call site — are enforced dynamically by golden fixtures and
property tests.  simlint enforces the same invariants *statically*, at
lint time, so the classes of regression that would eventually trip those
tests (an unseeded RNG, a wall-clock read, float drift in exact
accounting, an untagged transfer, an upward layer import) are caught
before they ship.

Rule families (see ``docs/static-analysis.md``):

* **D — determinism**: no wall clocks, calendar time or unseeded
  randomness inside the simulation packages.
* **F — exact scope**: modules declaring ``# simlint: exact`` compute
  no floats — no true division, non-integral float literal, computed
  ``Fraction(...)`` argument or ``math``/``time`` import.
* **C — cause-tag completeness**: every byte-moving call site passes
  ``tag=`` and ``cause=`` explicitly, so conservation can attribute it.
* **K — kernel safety**: no blocking real I/O inside simulation process
  generators; ``yield`` targets must be kernel events.
* **S — structure**: imports may not invert the layer DAG
  ``simkernel <- netsim <- storage/hypervisor/... <- core <- cluster <-
  experiments``.

Per-line suppressions (``# simlint: ignore[RULE] -- reason``) are
honoured but reported in a suppression budget rather than vanishing.
"""

from __future__ import annotations

from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.engine import LintResult, lint_paths, render_json, render_text
from repro.lint.findings import Finding

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "LintResult",
    "lint_paths",
    "render_json",
    "render_text",
]
