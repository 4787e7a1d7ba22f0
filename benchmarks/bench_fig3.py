"""Regenerates Figure 3: single live migration of IOR and AsyncWR.

Shape assertions encode the paper's qualitative claims (who wins, rough
factors); absolute values are simulation-scale, recorded in
``benchmarks/results/fig3.txt`` and compared against the paper in
EXPERIMENTS.md.
"""

import pytest

from benchmarks.conftest import write_csv_table
from repro.experiments.config import IOR_MAX_READ, IOR_MAX_WRITE
from repro.experiments.fig3 import render_fig3, run_fig3


@pytest.fixture(scope="module")
def fig3_results():
    return run_fig3()


def test_fig3a_migration_time(fig3_results, results_sink):
    """Panel (a): ours beats every storage-transferring baseline for IOR;
    pvfs-shared (memory only) is fastest; precopy is the clear loser."""
    ior = {a: o.migration_time for a, o in fig3_results["ior"].items()}
    assert ior["pvfs-shared"] < ior["our-approach"]
    assert ior["our-approach"] < ior["postcopy"]
    assert ior["our-approach"] < ior["mirror"]
    # The paper reports >10x; this geometry measures 8.3x.
    assert ior["precopy"] > 5 * ior["our-approach"]
    asyncwr = {a: o.migration_time for a, o in fig3_results["asyncwr"].items()}
    assert asyncwr["precopy"] > max(
        v for a, v in asyncwr.items() if a != "precopy"
    )
    results_sink("fig3", render_fig3(fig3_results))
    write_csv_table(
        "fig3a", ["ior_s", "asyncwr_s"],
        {a: [ior[a], asyncwr[a]] for a in ior},
    )
    write_csv_table(
        "fig3b", ["ior_bytes", "asyncwr_bytes"],
        {
            a: [
                fig3_results["ior"][a].total_traffic(),
                fig3_results["asyncwr"][a].total_traffic(),
            ]
            for a in ior
        },
    )


def test_fig3b_network_traffic(fig3_results):
    """Panel (b): ours/postcopy lowest; pvfs-shared an order of magnitude
    above ours for IOR; precopy re-sends inflate it well past mirror."""
    traffic = {a: o.total_traffic() for a, o in fig3_results["ior"].items()}
    # The paper reports >10x; this geometry measures 10.3x.
    assert traffic["pvfs-shared"] > 5 * traffic["our-approach"]
    assert traffic["precopy"] > traffic["mirror"]
    assert traffic["mirror"] > traffic["our-approach"]
    assert traffic["postcopy"] < 1.3 * traffic["our-approach"]


def test_fig3c_normalized_throughput(fig3_results):
    """Panel (c): pvfs-shared reads <15 % / writes <10 % of max; ours keeps
    the best write throughput among storage-transferring approaches and
    reads far above pure postcopy."""
    ior = fig3_results["ior"]
    read_pct = {a: o.read_throughput / IOR_MAX_READ for a, o in ior.items()}
    write_pct = {a: o.write_throughput / IOR_MAX_WRITE for a, o in ior.items()}
    assert read_pct["pvfs-shared"] < 0.15
    assert write_pct["pvfs-shared"] < 0.10
    assert read_pct["our-approach"] > read_pct["postcopy"]
    assert read_pct["our-approach"] > read_pct["precopy"]
    assert write_pct["our-approach"] > write_pct["mirror"]
    assert write_pct["our-approach"] > write_pct["precopy"]
    assert write_pct["precopy"] < 0.5
