"""Regenerates Figure 4: 1..30 simultaneous AsyncWR migrations."""

import pytest

from benchmarks.conftest import write_csv_series
from repro.experiments.fig4 import render_fig4, run_fig4
from repro.experiments.runner import sweep_series


@pytest.fixture(scope="module")
def fig4_results():
    return run_fig4()


def _series(results, approach, metric):
    per_level = results[approach]
    return {n: metric(outcome, baseline) for n, (outcome, baseline) in per_level.items()}


def test_fig4a_avg_migration_time(fig4_results, results_sink):
    """Panel (a): precopy's average migration time rises sharply with the
    number of concurrent migrations; the others stay comparatively flat
    (small absolute growth)."""
    pre = _series(fig4_results, "precopy", lambda o, b: o.avg_migration_time)
    ours = _series(fig4_results, "our-approach", lambda o, b: o.avg_migration_time)
    levels = sorted(pre)
    lo, hi = levels[0], levels[-1]
    pre_rise = pre[hi] - pre[lo]
    ours_rise = ours[hi] - ours[lo]
    assert pre_rise > 3 * max(ours_rise, 0.1)
    assert pre[hi] > 1.3 * pre[lo]
    results_sink("fig4", render_fig4(fig4_results))
    for panel, metric in (
        ("fig4a", lambda o, b: o.avg_migration_time),
        ("fig4b", lambda o, b: o.total_traffic()),
        ("fig4c", lambda o, b: o.degradation_vs(b)),
    ):
        write_csv_series(panel, "n_migrations", sweep_series(fig4_results, metric))


def test_fig4b_network_traffic(fig4_results):
    """Panel (b): precopy's traffic explodes with concurrency; ours and
    postcopy stay lowest among migration-generated traffic."""
    levels = sorted(fig4_results["precopy"])
    hi = levels[-1]
    traffic = {
        a: fig4_results[a][hi][0].total_traffic() for a in fig4_results
    }
    assert traffic["precopy"] > 3 * traffic["our-approach"]
    assert traffic["postcopy"] <= traffic["our-approach"] * 1.1
    assert traffic["our-approach"] < traffic["mirror"] * 1.1


def test_fig4c_performance_degradation(fig4_results):
    """Panel (c): ours degrades computation the least among the
    storage-transferring approaches; precopy the most."""
    levels = sorted(fig4_results["precopy"])
    hi = levels[-1]
    deg = {
        a: fig4_results[a][hi][0].degradation_vs(fig4_results[a][hi][1])
        for a in fig4_results
    }
    assert deg["precopy"] > 3 * max(deg["our-approach"], 1e-4)
    assert deg["our-approach"] <= deg["mirror"] + 0.005
    assert deg["our-approach"] <= deg["postcopy"] + 0.005
