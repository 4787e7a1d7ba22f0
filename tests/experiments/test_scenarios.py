"""Tests for the scenario builders (scaled-down parameters)."""

import gc
import weakref

import pytest

from repro.experiments.fig5 import run_fig5
from repro.faults import FaultPlan, FaultSpec
from repro.experiments.scenarios import (
    ScenarioOutcome,
    _make_cloud,
    run_cm1_successive,
    run_concurrent_migrations,
    run_single_migration,
)
from tests.golden.generate import FIG5_COUNTS, FIG5_SCENARIO

MB = 2**20

QUICK_IOR = dict(iterations=3, file_size=128 * MB, op_size=8 * MB)
QUICK_ASYNC = dict(iterations=20, data_per_iter=4 * MB)
QUICK_CM1 = dict(n_steps=10, step_compute=1.0, halo_bytes=MB,
                 dump_every=5, dump_bytes=16 * MB)


class TestSingleMigration:
    def test_ior_outcome_complete(self):
        o = run_single_migration(
            "our-approach", workload="ior", warmup=1.0, workload_kwargs=QUICK_IOR
        )
        assert len(o.migration_times) == 1
        assert o.migration_time > 0
        assert o.read_throughput > 0
        assert o.write_throughput > 0
        assert o.total_traffic() > 0
        assert "memory" in o.traffic_by_tag

    def test_asyncwr_counters(self):
        o = run_single_migration(
            "postcopy", workload="asyncwr", warmup=5.0, workload_kwargs=QUICK_ASYNC
        )
        assert o.counters == 20
        assert o.window_write_rate > 0

    def test_baseline_has_no_migration(self):
        o = run_single_migration(
            "our-approach", workload="ior", migrate=False, workload_kwargs=QUICK_IOR
        )
        assert o.migration_times == []
        with pytest.raises(ValueError):
            _ = o.migration_time

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_single_migration("our-approach", workload="spark")

    def test_migration_traffic_excludes_app(self):
        o = run_single_migration(
            "our-approach", workload="ior", warmup=1.0, workload_kwargs=QUICK_IOR
        )
        assert o.migration_traffic == o.total_traffic(exclude=("app",))


class TestConcurrent:
    def test_too_many_migrations(self):
        with pytest.raises(ValueError, match="more VMs"):
            run_concurrent_migrations("our-approach", 5, n_sources=3)

    def test_all_migrations_complete(self):
        o = run_concurrent_migrations(
            "our-approach", 3, n_sources=3, warmup=5.0,
            workload_kwargs=QUICK_ASYNC,
        )
        assert len(o.migration_times) == 3
        assert len(o.elapsed_each) == 3

    def test_degradation_vs_baseline_nonnegative(self):
        base = run_concurrent_migrations(
            "our-approach", 2, n_sources=2, migrate=False,
            workload_kwargs=QUICK_ASYNC,
        )
        o = run_concurrent_migrations(
            "our-approach", 2, n_sources=2, warmup=5.0,
            workload_kwargs=QUICK_ASYNC,
        )
        assert o.degradation_vs(base) >= -1e-9


class TestCM1:
    def test_too_many_migrations(self):
        with pytest.raises(ValueError, match="more ranks"):
            run_cm1_successive("our-approach", 9, grid=(2, 2))

    def test_successive_migrations_complete(self):
        o = run_cm1_successive(
            "our-approach", 2, grid=(2, 2), first_at=3.0, interval=4.0,
            workload_kwargs=QUICK_CM1,
        )
        assert len(o.migration_times) == 2
        assert o.cumulated_migration_time == pytest.approx(sum(o.migration_times))
        assert o.traffic_by_tag.get("app", 0) > 0
        assert o.migration_traffic < o.total_traffic()

    def test_fig5_is_the_same_at_every_seed(self):
        """CM1 draws nothing at random, so Fig 5's outcomes do not depend
        on the sweep's seed."""
        at_0, at_7 = (run_fig5(approaches=["our-approach"], counts=FIG5_COUNTS,
                               seed=seed, **FIG5_SCENARIO) for seed in (0, 7))
        assert at_0 == at_7

    def test_avg_requires_migrations(self):
        o = ScenarioOutcome(approach="x", workload="y")
        with pytest.raises(ValueError):
            _ = o.avg_migration_time


#: name -> (run(faults), migration destination, horizon): scenarios whose
#: one migration targets the node the plan below crashes.
ABORTING_RUNS = {
    "concurrent": (
        lambda faults: run_concurrent_migrations(
            "our-approach", 1, n_sources=2, warmup=5.0,
            workload_kwargs={"iterations": 10}, faults=faults,
        ),
        "node2", 200.0,
    ),
    "cm1": (
        lambda faults: run_cm1_successive(
            "our-approach", 1, grid=(2, 2), first_at=5.0,
            workload_kwargs=dict(n_steps=10, dump_every=5), faults=faults,
        ),
        "node4", 400.0,
    ),
}


@pytest.mark.parametrize("scenario", sorted(ABORTING_RUNS))
def test_every_scenario_counts_aborts(scenario):
    """A migration to a destination that crashed before it began aborts,
    and the outcome counts the aborted attempt in every scenario family,
    not only in the single-migration one."""
    run, destination, horizon = ABORTING_RUNS[scenario]
    o = run(FaultPlan(
        faults=[FaultSpec("node-crash", destination, at=1.0)],
        chunk_timeout=2.0, retry_max=1, retry_backoff=0.25,
        migration_timeout=5.0, horizon=horizon,
    ))
    assert o.migration_times == []
    assert o.aborts == 1


def test_building_a_scenario_frees_the_previous_one():
    """A finished scenario is a reference cycle that refcounting never
    frees; building the next one collects it, so a sweep holds one
    scenario's memory at a time."""
    was_enabled = gc.isenabled()
    gc.disable()  # only the explicit collection may free it
    try:
        env, cloud = _make_cloud(2, None)
        fabric = weakref.ref(cloud.cluster.fabric)
        del env, cloud
        assert fabric() is not None
        _make_cloud(2, None)
        assert fabric() is None
    finally:
        if was_enabled:
            gc.enable()
