"""Figure 3: live migration performance of I/O intensive benchmarks.

Three panels over the five approaches, for IOR and AsyncWR:

* (a) migration time,
* (b) total network traffic,
* (c) normalized throughput (% of the no-migration maxima: 1 GB/s
  IOR reads, 266 MB/s IOR writes, 6 MB/s AsyncWR pressure).

The paper warms up for 100 s before migrating.  Our calibrated IOR
completes its 10 iterations in under a minute (10 x (1 GB / 266 MB/s
writes + 1 GB / 1 GB/s reads)), so the IOR migration fires at 10 s to land
mid-benchmark — the paper's stated intent ("forcing the live migration to
withstand the full I/O pressure").  AsyncWR runs ~300 s, so its migration
keeps the paper's 100 s warm-up.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.core.registry import APPROACHES
from repro.experiments.config import (
    ASYNCWR_MAX_WRITE,
    IOR_MAX_READ,
    IOR_MAX_WRITE,
)
from repro.experiments.runner import render_table
from repro.experiments.scenarios import ScenarioOutcome, run_single_migration

__all__ = ["run_fig3", "render_fig3", "FIG3_RUNS"]

#: The figure's two runs: workload -> keywords of
#: :func:`~repro.experiments.scenarios.run_single_migration`.
FIG3_RUNS = {"ior": {"warmup": 10.0}, "asyncwr": {"warmup": 100.0}}


def run_fig3(
    approaches: Optional[Iterable[str]] = None,
    runs: Mapping[str, dict] = FIG3_RUNS,
    seed: int = 0,
    obs=None,
) -> dict[str, dict[str, ScenarioOutcome]]:
    """Run each of ``runs`` under every approach.

    Returns ``{workload: {approach: outcome}}``.
    """
    approaches = list(approaches) if approaches is not None else list(APPROACHES)
    results: dict[str, dict[str, ScenarioOutcome]] = {wl: {} for wl in runs}
    for approach in approaches:
        for workload, scenario in runs.items():
            results[workload][approach] = run_single_migration(
                approach, workload=workload, seed=seed, obs=obs, **scenario)
    return results


def render_fig3(results: dict[str, dict[str, ScenarioOutcome]]) -> str:
    """The paper's three panels as text tables."""
    approaches = list(results["ior"])
    panel_a = {
        a: [
            results["ior"][a].migration_time,
            results["asyncwr"][a].migration_time,
        ]
        for a in approaches
    }
    panel_b = {
        a: [
            results["ior"][a].total_traffic() / 2**20,
            results["asyncwr"][a].total_traffic() / 2**20,
        ]
        for a in approaches
    }
    panel_c = {
        a: [
            100 * results["ior"][a].read_throughput / IOR_MAX_READ,
            100 * results["ior"][a].write_throughput / IOR_MAX_WRITE,
            100 * results["asyncwr"][a].window_write_rate / ASYNCWR_MAX_WRITE,
        ]
        for a in approaches
    }
    return "\n\n".join(
        [
            render_table(
                "Fig 3(a): Migration time (lower is better)",
                ["IOR", "AsyncWR"],
                panel_a,
                unit="s",
            ),
            render_table(
                "Fig 3(b): Total network traffic (lower is better)",
                ["IOR", "AsyncWR"],
                panel_b,
                unit="MB",
            ),
            render_table(
                "Fig 3(c): Normalized throughput vs no-migration max "
                "(higher is better)",
                ["IOR-Read", "IOR-Write", "AsyncWR"],
                panel_c,
                unit="%",
            ),
        ]
    )
