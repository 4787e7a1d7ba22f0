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

from typing import Iterable, Optional

from repro.core.registry import APPROACHES
from repro.experiments.runner import render_sweep
from repro.experiments.scenarios import ScenarioOutcome, run_cm1_successive

__all__ = ["run_fig5", "render_fig5", "migration_counts", "MIGRATION_COUNTS"]

MIGRATION_COUNTS = (1, 3, 5, 7)


def migration_counts(counts: Iterable[int] = MIGRATION_COUNTS,
                     quick: bool = False) -> list[int]:
    """The migration counts a sweep runs: ``quick`` keeps those up to 3,
    and at least one."""
    counts = list(counts)
    if quick:
        counts = [n for n in counts if n <= 3] or [1]
    return counts


def run_fig5(
    approaches: Optional[Iterable[str]] = None,
    counts: Iterable[int] = MIGRATION_COUNTS,
    grid: Optional[tuple[int, int]] = None,
    quick: bool = False,
    seed: int = 0,
    obs=None,
) -> dict[str, dict[int, tuple[ScenarioOutcome, ScenarioOutcome]]]:
    """Sweep successive migration counts per approach.

    Returns ``{approach: {n: (outcome, baseline)}}`` where the baseline is
    the same ensemble without migrations.  ``grid`` defaults to 2x2 under
    ``quick`` and 4x4 otherwise; a grid the caller passes is always used.

    ``seed`` is accepted so every figure sweep takes one, but CM1 draws
    nothing from it: the outcomes are the same at every seed, so
    repeating a Fig 5 measurement at another seed re-measures the same
    runs.
    """
    approaches = list(approaches) if approaches is not None else list(APPROACHES)
    counts = migration_counts(counts, quick)
    workload_kwargs: dict = {}
    if grid is None:
        grid = (2, 2) if quick else (4, 4)
    if quick:
        workload_kwargs = dict(n_steps=40, dump_every=8)

    results: dict[str, dict[int, tuple[ScenarioOutcome, ScenarioOutcome]]] = {}
    for approach in approaches:
        baseline = run_cm1_successive(
            approach,
            0,
            grid=grid,
            migrate=False,
            workload_kwargs=workload_kwargs,
            obs=obs,
        )
        per_count: dict[int, tuple[ScenarioOutcome, ScenarioOutcome]] = {}
        for n in counts:
            outcome = run_cm1_successive(
                approach,
                n,
                grid=grid,
                workload_kwargs=workload_kwargs,
                obs=obs,
            )
            per_count[n] = (outcome, baseline)
        results[approach] = per_count
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
