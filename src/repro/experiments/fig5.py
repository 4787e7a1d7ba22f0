"""Figure 5: CM1 under 1..7 successive live migrations.

Three panels, x = number of successive migrations (one per minute):

* (a) cumulated migration time,
* (b) network traffic excluding CM1's own communication,
* (c) increase in application execution time over a migration-free run.

The paper deploys 64 ranks (8x8 subdomains); the default grid here is 4x4
for simulation speed — the BSP structure, the halo synchronization and the
per-rank dump pattern (the behaviours Figure 5 exercises) are preserved,
and ``grid=(8, 8)`` runs the full-scale shape.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from repro.core.registry import APPROACHES
from repro.experiments.runner import render_sweep
from repro.experiments.scenarios import (
    ScenarioOutcome,
    run_cm1_successive,
    shared_baseline,
)

__all__ = ["run_fig5", "render_fig5", "MIGRATION_COUNTS"]

MIGRATION_COUNTS = (1, 3, 5, 7)


def run_fig5(
    approaches: Optional[Iterable[str]] = None,
    counts: Iterable[int] = MIGRATION_COUNTS,
    seed: int = 0,
    obs=None,
    **scenario,
) -> dict[str, dict[int, tuple[ScenarioOutcome, ScenarioOutcome]]]:
    """Sweep successive migration counts per approach.

    Returns ``{approach: {n: (outcome, baseline)}}`` where the baseline is
    the same ensemble without migrations, run once per storage placement
    (:func:`shared_baseline`).  ``scenario`` holds further keywords of
    :func:`run_cm1_successive` (``grid``, ``workload_kwargs``, ...),
    passed to every run.

    ``seed`` is accepted so every figure sweep takes one, but CM1 draws
    nothing from it: the outcomes are the same at every seed, so
    repeating a Fig 5 measurement at another seed re-measures the same
    runs.
    """
    approaches = list(approaches) if approaches is not None else list(APPROACHES)
    counts = list(counts)
    run = partial(run_cm1_successive, obs=obs, **scenario)
    results: dict[str, dict[int, tuple[ScenarioOutcome, ScenarioOutcome]]] = {}
    baselines: dict = {}
    for approach in approaches:
        # Every baseline has no migration and one spare node.
        baseline = shared_baseline(baselines, approach, 0, partial(
            run, approach, 0, migrate=False))
        results[approach] = {n: (run(approach, n), baseline) for n in counts}
    return results


#: Fig 5's panels as ``(title, unit, metric(outcome, baseline))``.
FIG5_PANELS = (
    ("Fig 5(a): Cumulated migration time (lower is better)", "s",
     lambda o, b: o.cumulated_migration_time),
    ("Fig 5(b): Network traffic excl. CM1 communication (lower is better)",
     "GB", lambda o, b: o.migration_traffic / 2**30),
    ("Fig 5(c): Increase in app execution time (lower is better)", "s",
     lambda o, b: o.workload_elapsed - b.workload_elapsed),
)


def render_fig5(
    results: dict[str, dict[int, tuple[ScenarioOutcome, ScenarioOutcome]]],
) -> str:
    return render_sweep(results, "#migrations", FIG5_PANELS)
