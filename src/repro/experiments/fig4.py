"""Figure 4: AsyncWR under 1..30 simultaneous live migrations.

Three panels, x = number of concurrent migrations:

* (a) average migration time per instance,
* (b) total network traffic,
* (c) performance degradation (% of the migration-free computational
  potential — realized here as the mean relative increase in per-VM
  completion time against a size-matched migration-free run).

The paper fixes 30 sources and raises the destination count 1 -> 30 in
steps of 10; ``quick`` shrinks the fleet for smoke runs.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.registry import APPROACHES
from repro.experiments.runner import render_sweep
from repro.experiments.scenarios import (
    ScenarioOutcome,
    run_concurrent_migrations,
)

__all__ = ["run_fig4", "render_fig4", "CONCURRENCY_LEVELS"]

CONCURRENCY_LEVELS = (1, 10, 20, 30)


def run_fig4(
    approaches: Optional[Iterable[str]] = None,
    levels: Iterable[int] = CONCURRENCY_LEVELS,
    n_sources: int = 30,
    quick: bool = False,
    seed: int = 0,
    obs=None,
) -> dict[str, dict[int, tuple[ScenarioOutcome, ScenarioOutcome]]]:
    """Sweep concurrency per approach.

    Returns ``{approach: {n: (outcome, size-matched baseline)}}``.  The
    baseline shares the exact cluster geometry (node count depends on the
    destination count), so the degradation comparison is apples-to-apples.
    """
    approaches = list(approaches) if approaches is not None else list(APPROACHES)
    levels = list(levels)
    workload_kwargs: dict = {}
    warmup = 100.0
    if quick:
        # The fleet size must stay at 30 — the backplane-contention effect
        # panel (a) shows only exists at scale — so quick mode shortens
        # the workload and the warm-up instead.
        workload_kwargs = dict(iterations=90)
        warmup = 30.0

    results: dict[str, dict[int, tuple[ScenarioOutcome, ScenarioOutcome]]] = {}
    for approach in approaches:
        per_level: dict[int, tuple[ScenarioOutcome, ScenarioOutcome]] = {}
        for n in levels:
            baseline = run_concurrent_migrations(
                approach,
                n,
                n_sources=n_sources,
                warmup=warmup,
                migrate=False,
                seed=seed,
                workload_kwargs=workload_kwargs,
                obs=obs,
            )
            outcome = run_concurrent_migrations(
                approach,
                n,
                n_sources=n_sources,
                warmup=warmup,
                seed=seed,
                workload_kwargs=workload_kwargs,
                obs=obs,
            )
            per_level[n] = (outcome, baseline)
        results[approach] = per_level
    return results


#: Fig 4's panels as ``(title, unit, metric(outcome, baseline))``.
FIG4_PANELS = (
    ("Fig 4(a): Avg. migration time / instance (lower is better)", "s",
     lambda o, b: o.avg_migration_time),
    ("Fig 4(b): Total network traffic (lower is better)", "GB",
     lambda o, b: o.total_traffic() / 2**30),
    ("Fig 4(c): Performance degradation (lower is better)", "% of max",
     lambda o, b: 100 * o.degradation_vs(b)),
)


def render_fig4(
    results: dict[str, dict[int, tuple[ScenarioOutcome, ScenarioOutcome]]],
) -> str:
    return render_sweep(results, "#migrations", FIG4_PANELS)
