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
  generators; ``yield`` targets must be kernel events; no spawned
  process is dropped unbound.
* **P — probe purity**: a block guarded on the probe's ``enabled`` flag
  only reads state and calls the recorder — no stores, no scheduling,
  no byte accounting.
* **S — structure**: imports may not invert the layer DAG
  ``simkernel <- netsim <- storage/hypervisor/... <- core <- cluster <-
  experiments``.

No comment silences a finding: an exception is a change to a rule's
scope in ``repro.lint.config``.
"""

from __future__ import annotations

from repro.lint.engine import (
    LintResult,
    LintUsageError,
    lint_paths,
    render_json,
    render_text,
)
from repro.lint.findings import Finding

__all__ = [
    "Finding",
    "LintResult",
    "LintUsageError",
    "lint_paths",
    "render_json",
    "render_text",
]
