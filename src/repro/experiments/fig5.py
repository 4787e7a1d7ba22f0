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
from repro.experiments.runner import SeriesResult, render_series
from repro.experiments.scenarios import ScenarioOutcome, run_cm1_successive

__all__ = ["run_fig5", "render_fig5", "MIGRATION_COUNTS"]

MIGRATION_COUNTS = (1, 3, 5, 7)


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
    """
    approaches = list(approaches) if approaches is not None else list(APPROACHES)
    counts = list(counts)
    workload_kwargs: dict = {}
    if grid is None:
        grid = (2, 2) if quick else (4, 4)
    if quick:
        counts = [n for n in counts if n <= 3] or [1]
        workload_kwargs = dict(n_steps=40, dump_every=8)

    results: dict[str, dict[int, tuple[ScenarioOutcome, ScenarioOutcome]]] = {}
    for approach in approaches:
        baseline = run_cm1_successive(
            approach,
            0,
            grid=grid,
            migrate=False,
            seed=seed,
            workload_kwargs=workload_kwargs,
            obs=obs,
        )
        per_count: dict[int, tuple[ScenarioOutcome, ScenarioOutcome]] = {}
        for n in counts:
            outcome = run_cm1_successive(
                approach,
                n,
                grid=grid,
                seed=seed,
                workload_kwargs=workload_kwargs,
                obs=obs,
            )
            per_count[n] = (outcome, baseline)
        results[approach] = per_count
    return results


def render_fig5(
    results: dict[str, dict[int, tuple[ScenarioOutcome, ScenarioOutcome]]],
) -> str:
    series_a, series_b, series_c = [], [], []
    for approach, per_count in results.items():
        sa = SeriesResult(approach)
        sb = SeriesResult(approach)
        sc = SeriesResult(approach)
        for n, (outcome, baseline) in per_count.items():
            sa.add(n, outcome.cumulated_migration_time)
            sb.add(n, outcome.migration_traffic / 2**30)
            sc.add(n, outcome.workload_elapsed - baseline.workload_elapsed)
        series_a.append(sa)
        series_b.append(sb)
        series_c.append(sc)
    return "\n\n".join(
        [
            render_series(
                "Fig 5(a): Cumulated migration time (lower is better)",
                "#migrations",
                series_a,
                unit="s",
            ),
            render_series(
                "Fig 5(b): Network traffic excl. CM1 communication "
                "(lower is better)",
                "#migrations",
                series_b,
                unit="GB",
            ),
            render_series(
                "Fig 5(c): Increase in app execution time (lower is better)",
                "#migrations",
                series_c,
                unit="s",
            ),
        ]
    )


if __name__ == "__main__":
    import sys

    quick = "--quick" in sys.argv
    print(render_fig5(run_fig5(quick=quick)))
