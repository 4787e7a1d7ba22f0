"""Figure 4: AsyncWR under 1..30 simultaneous live migrations.

Three panels, x = number of concurrent migrations:

* (a) average migration time per instance,
* (b) total network traffic,
* (c) performance degradation (% of the migration-free computational
  potential — realized here as the mean relative increase in per-VM
  completion time against a size-matched migration-free run).

The paper fixes 30 sources and raises the destination count 1 -> 30 in
steps of 10.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from repro.core.registry import APPROACHES
from repro.experiments.runner import render_sweep
from repro.experiments.scenarios import (
    ScenarioOutcome,
    run_concurrent_migrations,
    shared_baseline,
)

__all__ = ["run_fig4", "render_fig4", "CONCURRENCY_LEVELS"]

CONCURRENCY_LEVELS = (1, 10, 20, 30)


def run_fig4(
    approaches: Optional[Iterable[str]] = None,
    levels: Iterable[int] = CONCURRENCY_LEVELS,
    seed: int = 0,
    obs=None,
    **scenario,
) -> dict[str, dict[int, tuple[ScenarioOutcome, ScenarioOutcome]]]:
    """Sweep concurrency per approach.

    Returns ``{approach: {n: (outcome, size-matched baseline)}}``.  The
    baseline shares the exact cluster geometry (node count depends on the
    destination count), so the degradation comparison is apples-to-apples.
    It runs once per storage placement and level (:func:`shared_baseline`).
    ``scenario`` holds further keywords of
    :func:`run_concurrent_migrations` (``n_sources``, ``warmup``,
    ``workload_kwargs``, ...), passed to every run.
    """
    approaches = list(approaches) if approaches is not None else list(APPROACHES)
    levels = list(levels)
    run = partial(run_concurrent_migrations, seed=seed, obs=obs, **scenario)
    results: dict[str, dict[int, tuple[ScenarioOutcome, ScenarioOutcome]]] = {}
    baselines: dict = {}
    for approach in approaches:
        per_level: dict[int, tuple[ScenarioOutcome, ScenarioOutcome]] = {}
        for n in levels:
            baseline = shared_baseline(baselines, approach, n, partial(
                run, approach, n, migrate=False))
            per_level[n] = (run(approach, n), baseline)
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
