"""Regenerates Figure 5: CM1 under successive live migrations."""

import pytest

from benchmarks.conftest import write_csv_series
from repro.experiments.fig5 import render_fig5, run_fig5
from repro.experiments.runner import sweep_series


@pytest.fixture(scope="module")
def fig5_results():
    return run_fig5()


def test_fig5a_cumulated_migration_time(fig5_results, results_sink):
    """Panel (a): linear growth for everyone; precopy roughly 2x ours;
    postcopy close to ours; mirror between."""
    counts = sorted(fig5_results["our-approach"])
    hi = counts[-1]
    cum = {a: fig5_results[a][hi][0].cumulated_migration_time for a in fig5_results}
    assert cum["precopy"] > 1.4 * cum["our-approach"]
    assert cum["mirror"] > cum["our-approach"] * 0.9
    assert abs(cum["postcopy"] - cum["our-approach"]) < 0.5 * cum["our-approach"]
    # Linear growth: per-migration time roughly constant across the sweep.
    if len(counts) >= 2:
        lo = counts[0]
        ours_lo = fig5_results["our-approach"][lo][0].cumulated_migration_time / lo
        ours_hi = fig5_results["our-approach"][hi][0].cumulated_migration_time / hi
        assert ours_hi < 2.5 * ours_lo
    results_sink("fig5", render_fig5(fig5_results))
    for panel, metric in (
        ("fig5a", lambda o, b: o.cumulated_migration_time),
        ("fig5b", lambda o, b: o.migration_traffic),
        ("fig5c", lambda o, b: o.workload_elapsed - b.workload_elapsed),
    ):
        write_csv_series(panel, "n_migrations", sweep_series(fig5_results, metric))


def test_fig5b_migration_traffic(fig5_results):
    """Panel (b): pvfs-shared's (remote I/O) traffic dwarfs everyone;
    postcopy slightly below ours; precopy above ours."""
    counts = sorted(fig5_results["our-approach"])
    hi = counts[-1]
    traf = {a: fig5_results[a][hi][0].migration_traffic for a in fig5_results}
    # 2.8x at the 4x4 grid.
    assert traf["pvfs-shared"] > 2.5 * traf["our-approach"]
    assert traf["postcopy"] <= traf["our-approach"]
    assert traf["precopy"] > traf["our-approach"]


def test_fig5c_execution_time_increase(fig5_results):
    """Panel (c): ours adds the least execution time among the
    storage-transferring approaches; precopy adds the most."""
    counts = sorted(fig5_results["our-approach"])
    hi = counts[-1]
    inc = {
        a: fig5_results[a][hi][0].workload_elapsed
        - fig5_results[a][hi][1].workload_elapsed
        for a in fig5_results
    }
    assert inc["precopy"] > 1.5 * inc["our-approach"]
    assert inc["our-approach"] <= inc["mirror"]
    # One slow rank drags all: the BSP amplifies migration cost into
    # app-visible time of the same order as the migrations themselves.
    assert inc["our-approach"] > 0
