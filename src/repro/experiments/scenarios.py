"""Scenario builders shared by the figure experiments.

Three scenario families, one per evaluation section:

* :func:`run_single_migration` — Section 5.3: one VM under IOR or AsyncWR,
  warm-up, then one live migration under full I/O pressure.
* :func:`run_concurrent_migrations` — Section 5.4: 30 AsyncWR sources,
  1..30 simultaneous migrations.
* :func:`run_cm1_successive` — Section 5.5: a CM1 ensemble with successive
  migrations at 60 s intervals.

Every builder also runs (or accepts) a migration-free baseline so the
degradation metrics have their reference, and returns a
:class:`ScenarioOutcome` with everything the figures need.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.cluster import CloudMiddleware, Cluster
from repro.core.config import MigrationConfig
from repro.experiments.config import (
    ASYNCWR_WORKING_SET,
    CM1_WORKING_SET,
    VM_MEMORY,
    VM_WORKING_SET,
    graphene_spec,
)
from repro.hypervisor.memory import PrecopyMemory
from repro.obs import Observability
from repro.simkernel import Environment
from repro.workloads.asyncwr import AsyncWRWorkload
from repro.workloads.cm1 import build_cm1_ensemble
from repro.workloads.ior import IORWorkload

__all__ = [
    "ScenarioOutcome",
    "run_single_migration",
    "run_concurrent_migrations",
    "run_cm1_successive",
]


@dataclass
class ScenarioOutcome:
    """Everything a figure needs from one simulated experiment."""

    approach: str
    workload: str
    migration_times: list[float] = field(default_factory=list)
    downtimes: list[float] = field(default_factory=list)
    traffic_by_tag: dict[str, float] = field(default_factory=dict)
    read_throughput: float = 0.0
    write_throughput: float = 0.0
    #: Write pressure sustained over the migration window (bytes/s) — the
    #: metric the AsyncWR bars of Figure 3(c) report.
    window_write_rate: float = 0.0
    workload_elapsed: float = 0.0
    #: Per-VM workload completion times (multi-VM scenarios).
    elapsed_each: list[float] = field(default_factory=list)
    counters: int = 0
    #: Migration attempts that aborted (fault injection); with restarts,
    #: each re-issued attempt gets its own record, so retries = aborts - 1
    #: when nothing ever completed.
    aborts: int = 0

    def degradation_vs(self, baseline: "ScenarioOutcome") -> float:
        """Mean relative increase in per-VM completion time (fraction) —
        the computation-lost metric of Figure 4(c) in elapsed-time form."""
        if self.elapsed_each and baseline.elapsed_each:
            pairs = zip(self.elapsed_each, baseline.elapsed_each)
            return sum((a - b) / b for a, b in pairs) / len(self.elapsed_each)
        return (
            (self.workload_elapsed - baseline.workload_elapsed)
            / baseline.workload_elapsed
        )

    @property
    def migration_time(self) -> float:
        """Single-migration scenarios: the one migration's duration."""
        if len(self.migration_times) != 1:
            raise ValueError("scenario has != 1 migration")
        return self.migration_times[0]

    @property
    def avg_migration_time(self) -> float:
        if not self.migration_times:
            raise ValueError("no migrations completed")
        return sum(self.migration_times) / len(self.migration_times)

    @property
    def cumulated_migration_time(self) -> float:
        return sum(self.migration_times)

    def total_traffic(self, exclude: Iterable[str] = ()) -> float:
        exclude = frozenset(exclude)
        return sum(v for k, v in self.traffic_by_tag.items() if k not in exclude)

    @property
    def migration_traffic(self) -> float:
        """Traffic attributable to migration: everything except the
        application's own communication (the Figure 5(b) subtraction)."""
        return self.total_traffic(exclude=("app",))


def _scope(obs: Optional[Observability], label: str):
    return obs.run_scope(label) if obs is not None else nullcontext()


def _make_cloud(
    n_nodes: int,
    config: Optional[MigrationConfig],
    obs: Optional[Observability] = None,
    **spec_overrides,
):
    # A finished scenario is one reference cycle (environment, processes,
    # events) that refcounting never frees, and it holds every array the
    # run allocated.  Collect it before building the next one: left to the
    # collector's own schedule, dead scenarios pile up and set a sweep's
    # peak memory.
    gc.collect()
    env = Environment()
    if obs is not None:
        obs.install(env)
    cluster = Cluster(env, graphene_spec(n_nodes, **spec_overrides))
    cloud = CloudMiddleware(cluster, config=config)
    return env, cloud


def _memory_strategy():
    return PrecopyMemory(downtime_target=0.05, max_rounds=30)


def _apply_faults(env, cloud, faults):
    """Start a FaultInjector for ``faults`` against the cloud's cluster."""
    if faults is None:
        return
    from repro.faults import FaultInjector

    FaultInjector(env, cloud.cluster, faults).start()


def _run_env(env, faults) -> None:
    """Drive the simulation, bounded by the plan's horizon when set."""
    if faults is not None and faults.horizon is not None:
        env.run(until=faults.horizon)
    else:
        env.run()


def _faulted_config(config, faults):
    """Fold a plan's failure-semantics overrides into the config."""
    if faults is None:
        return config
    return faults.apply_to(config if config is not None else MigrationConfig())


def _build_workload(kind: str, vm, seed: int, workload_kwargs: dict):
    if kind == "ior":
        return IORWorkload(vm, seed=seed, **workload_kwargs)
    if kind == "asyncwr":
        return AsyncWRWorkload(vm, seed=seed, **workload_kwargs)
    raise ValueError(f"unknown workload kind {kind!r}")


def run_single_migration(
    approach: str,
    workload: str = "ior",
    warmup: float = 100.0,
    n_nodes: int = 8,
    migrate: bool = True,
    seed: int = 0,
    config: Optional[MigrationConfig] = None,
    workload_kwargs: Optional[dict] = None,
    obs: Optional[Observability] = None,
    faults=None,
    restarts: int = 0,
) -> ScenarioOutcome:
    """Section 5.3: one VM, one migration after ``warmup`` seconds.

    ``migrate=False`` produces the migration-free baseline run used for
    normalization.  ``obs`` attaches a tracing/metrics bundle; the run's
    events land in a process lane named after the approach/workload.
    ``faults`` (a :class:`~repro.faults.FaultPlan`) schedules fault
    injection, folds the plan's timeout/retry knobs into the config and
    bounds the run by the plan's horizon; ``restarts`` re-issues an
    aborted migration that many extra times.
    """
    label = f"{approach}/{workload}" + ("" if migrate else "/baseline")
    config = _faulted_config(config, faults)
    with _scope(obs, label):
        env, cloud = _make_cloud(n_nodes, config, obs=obs)
        _apply_faults(env, cloud, faults)
        working_set = ASYNCWR_WORKING_SET if workload == "asyncwr" else VM_WORKING_SET
        vm = cloud.deploy(
            "vm0",
            cloud.cluster.node(0),
            approach=approach,
            memory_size=VM_MEMORY,
            working_set=working_set,
        )
        wl = _build_workload(workload, vm, seed, workload_kwargs or {})
        wl.start()

        if migrate:

            def migrator():
                yield env.timeout(warmup)
                yield cloud.migrate(
                    vm, cloud.cluster.node(1), memory=_memory_strategy(),
                    restarts=restarts,
                )

            env.process(migrator())

        _run_env(env, faults)

        outcome = ScenarioOutcome(approach=approach, workload=workload)
        outcome.migration_times = cloud.collector.migration_times()
        outcome.downtimes = [
            r.downtime for r in cloud.collector.completed() if r.downtime is not None
        ]
        outcome.traffic_by_tag = cloud.cluster.fabric.meter.by_tag()
        outcome.read_throughput = wl.read_throughput()
        outcome.write_throughput = wl.write_throughput()
        outcome.aborts = sum(1 for r in cloud.collector.records if r.aborted)
        records = cloud.collector.completed()
        if records:
            rec = records[0]
            outcome.window_write_rate = wl.written_timeline.mean_rate(
                rec.requested_at, rec.released_at
            )
        else:
            outcome.window_write_rate = wl.written_timeline.mean_rate()
        outcome.workload_elapsed = wl.elapsed or 0.0
        outcome.counters = getattr(wl, "counter", 0)
        if obs is not None:
            obs.note_traffic(cloud.cluster.fabric.meter)
    return outcome


def run_concurrent_migrations(
    approach: str,
    n_migrations: int,
    n_sources: int = 30,
    warmup: float = 100.0,
    migrate: bool = True,
    seed: int = 0,
    config: Optional[MigrationConfig] = None,
    workload_kwargs: Optional[dict] = None,
    obs: Optional[Observability] = None,
    faults=None,
) -> ScenarioOutcome:
    """Section 5.4: AsyncWR on every source; the first ``n_migrations`` VMs
    migrate simultaneously after the warm-up."""
    if n_migrations > n_sources:
        raise ValueError("cannot migrate more VMs than sources")
    n_nodes = n_sources + max(n_migrations, 1)
    label = f"{approach}/asyncwr-x{n_migrations}" + ("" if migrate else "/baseline")
    config = _faulted_config(config, faults)
    with _scope(obs, label):
        env, cloud = _make_cloud(n_nodes, config, obs=obs)
        _apply_faults(env, cloud, faults)
        vms = []
        workloads = []
        for i in range(n_sources):
            vm = cloud.deploy(
                f"vm{i}",
                cloud.cluster.node(i),
                approach=approach,
                memory_size=VM_MEMORY,
                working_set=ASYNCWR_WORKING_SET,
            )
            wl = AsyncWRWorkload(vm, seed=seed + i, **(workload_kwargs or {}))
            wl.start()
            vms.append(vm)
            workloads.append(wl)

        if migrate:

            def migrator(i):
                yield env.timeout(warmup)
                yield cloud.migrate(
                    vms[i], cloud.cluster.node(n_sources + i),
                    memory=_memory_strategy()
                )

            for i in range(n_migrations):
                env.process(migrator(i))

        _run_env(env, faults)

        outcome = ScenarioOutcome(approach=approach, workload="asyncwr")
        outcome.migration_times = cloud.collector.migration_times()
        outcome.downtimes = [
            r.downtime for r in cloud.collector.completed() if r.downtime is not None
        ]
        outcome.traffic_by_tag = cloud.cluster.fabric.meter.by_tag()
        elapsed = [wl.elapsed or 0.0 for wl in workloads]
        outcome.workload_elapsed = max(elapsed)
        outcome.elapsed_each = elapsed
        outcome.counters = sum(wl.counter for wl in workloads)
        outcome.write_throughput = (
            sum(wl.write_throughput() for wl in workloads) / n_sources
        )
        if obs is not None:
            obs.note_traffic(cloud.cluster.fabric.meter)
    return outcome


def run_cm1_successive(
    approach: str,
    n_migrations: int,
    grid: tuple[int, int] = (4, 4),
    interval: float = 60.0,
    first_at: float = 60.0,
    migrate: bool = True,
    config: Optional[MigrationConfig] = None,
    workload_kwargs: Optional[dict] = None,
    obs: Optional[Observability] = None,
    faults=None,
) -> ScenarioOutcome:
    """Section 5.5: a CM1 ensemble; rank *i* migrates at
    ``first_at + i * interval`` (i < n_migrations).

    The paper runs an 8x8 grid of ranks; the default here is 4x4 for
    simulation speed — pass ``grid=(8, 8)`` for the full-scale shape.
    CM1 is deterministic: its compute, halo and dump schedule draw
    nothing at random, so the scenario takes no seed.
    """
    n_ranks = grid[0] * grid[1]
    if n_migrations > n_ranks:
        raise ValueError("cannot migrate more ranks than exist")
    n_nodes = n_ranks + max(n_migrations, 1)
    label = f"{approach}/cm1-x{n_migrations}" + ("" if migrate else "/baseline")
    config = _faulted_config(config, faults)
    with _scope(obs, label):
        env, cloud = _make_cloud(n_nodes, config, obs=obs)
        _apply_faults(env, cloud, faults)
        vms = []
        for i in range(n_ranks):
            vm = cloud.deploy(
                f"rank{i}",
                cloud.cluster.node(i),
                approach=approach,
                memory_size=VM_MEMORY,
                working_set=CM1_WORKING_SET,
            )
            vms.append(vm)
        workloads = build_cm1_ensemble(
            env, vms, cloud.cluster.fabric, grid, **(workload_kwargs or {})
        )
        for wl in workloads:
            wl.start()

        if migrate:

            def migrator(i):
                yield env.timeout(first_at + i * interval)
                yield cloud.migrate(
                    vms[i], cloud.cluster.node(n_ranks + i),
                    memory=_memory_strategy()
                )

            for i in range(n_migrations):
                env.process(migrator(i))

        _run_env(env, faults)

        outcome = ScenarioOutcome(approach=approach, workload="cm1")
        outcome.migration_times = cloud.collector.migration_times()
        outcome.downtimes = [
            r.downtime for r in cloud.collector.completed() if r.downtime is not None
        ]
        outcome.traffic_by_tag = cloud.cluster.fabric.meter.by_tag()
        start = min(wl.started_at for wl in workloads)
        end = max(wl.finished_at for wl in workloads)
        outcome.workload_elapsed = end - start
        if obs is not None:
            obs.note_traffic(cloud.cluster.fabric.meter)
    return outcome
