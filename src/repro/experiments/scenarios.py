"""Scenario builders shared by the figure experiments.

Every experiment of Section 5 has one shape: VMs deployed from the base
image on graphene nodes, a workload in each, QEMU pre-copy migrations
started at chosen instants, then migration time, traffic and application
impact.  :func:`simulate` runs that shape; each builder supplies its
deploy step and reads its workload-specific fields:

* :func:`run_single_migration` — Section 5.3: one VM under IOR or AsyncWR,
  warm-up, then one live migration under full I/O pressure.
* :func:`run_concurrent_migrations` — Section 5.4: 30 AsyncWR sources,
  1..30 simultaneous migrations.
* :func:`run_cm1_successive` — Section 5.5: a CM1 ensemble with successive
  migrations at 60 s intervals.

With ``migrate=False`` a builder runs the migration-free baseline the
degradation metrics compare against; :func:`shared_baseline` runs it once
per storage placement within a sweep.  Every builder returns a
:class:`ScenarioOutcome` with everything the figures need.
"""

from __future__ import annotations

import copy
import gc
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.cluster import CloudMiddleware, Cluster
from repro.core.config import MigrationConfig
from repro.core.registry import manager_class
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
from repro.workloads.base import Workload
from repro.workloads.cm1 import CM1Workload, build_cm1_ensemble
from repro.workloads.ior import IORWorkload

__all__ = [
    "ScenarioOutcome",
    "shared_baseline",
    "simulate",
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


def shared_baseline(runs: dict, approach: str, geometry: Any,
                    run: Callable[[], ScenarioOutcome]) -> ScenarioOutcome:
    """The migration-free baseline of ``approach`` at ``geometry``, run
    once per storage placement.

    Without migrations an approach acts only through where its storage
    lives (Table 1), so the four local-storage approaches' baselines are
    equal field by field but for ``approach``
    (``tests/experiments/test_baselines.py``).  ``runs`` holds one
    sweep's runs, keyed by placement and ``geometry``: the first approach
    of a placement gets ``run()`` itself, every later one a deep copy
    labelled with its own approach.
    """
    key = (manager_class(approach).storage_placement, geometry)
    outcome = runs.get(key)
    if outcome is None:
        runs[key] = outcome = run()
        return outcome
    outcome = copy.deepcopy(outcome)
    outcome.approach = approach
    return outcome


def _make_cloud(n_nodes: int, config: Optional[MigrationConfig],
                obs: Optional[Observability] = None):
    # A finished scenario is one reference cycle (environment, processes,
    # events) that refcounting never frees, and it holds every array the
    # run allocated.  Collect it before building the next one: left to the
    # collector's own schedule, dead scenarios pile up and set a sweep's
    # peak memory.
    gc.collect()
    env = Environment()
    if obs is not None:
        obs.install(env)
    cluster = Cluster(env, graphene_spec(n_nodes))
    return env, CloudMiddleware(cluster, config=config)


def simulate(
    outcome: ScenarioOutcome,
    label: str,
    n_nodes: int,
    deploy: Callable[[CloudMiddleware], Sequence[tuple[float, Any, Any]]],
    config: Optional[MigrationConfig] = None,
    obs: Optional[Observability] = None,
    faults=None,
    restarts: int = 0,
) -> CloudMiddleware:
    """Run one scenario on a fresh graphene cloud of ``n_nodes`` nodes.

    ``deploy(cloud)`` places the VMs, starts their workloads and returns
    the migration schedule, a list of ``(at, vm, destination)`` triples.
    Each triple becomes one ``migrator`` process that waits ``at``
    seconds, then live-migrates ``vm`` with QEMU pre-copy memory and
    re-issues an aborted attempt up to ``restarts`` times.

    ``faults`` (a :class:`~repro.faults.FaultPlan`) folds the plan's
    timeout/retry knobs into ``config``, injects its faults and bounds
    the run by its horizon.  ``obs`` attaches a tracing/metrics bundle;
    the run's events land in a process lane named ``label``.

    Fills ``outcome``'s migration times, downtimes, aborts and traffic,
    and returns the cloud for the caller's workload-specific fields.
    """
    if faults is not None:
        config = faults.apply_to(config if config is not None else MigrationConfig())
    with obs.run_scope(label) if obs is not None else nullcontext():
        env, cloud = _make_cloud(n_nodes, config, obs=obs)
        if faults is not None:
            from repro.faults import FaultInjector

            FaultInjector(env, cloud.cluster, faults).start()

        def migrator(at, vm, dst):
            yield env.timeout(at)
            yield cloud.migrate(
                vm, dst, memory=PrecopyMemory(downtime_target=0.05, max_rounds=30),
                restarts=restarts,
            )

        for at, vm, dst in deploy(cloud):
            env.process(migrator(at, vm, dst))
        env.run(until=faults.horizon if faults is not None else None)

        collector, meter = cloud.collector, cloud.cluster.fabric.meter
        outcome.migration_times = collector.migration_times()
        outcome.downtimes = [
            r.downtime for r in collector.completed() if r.downtime is not None
        ]
        outcome.aborts = sum(r.aborted for r in collector.records)
        outcome.traffic_by_tag = meter.by_tag()
        if obs is not None:
            obs.note_traffic(meter)
    return cloud


#: Section 5.3's single-VM workloads and the working set each VM dirties.
_SINGLE_VM_WORKLOADS = {
    "ior": (IORWorkload, VM_WORKING_SET),
    "asyncwr": (AsyncWRWorkload, ASYNCWR_WORKING_SET),
}


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
    normalization.  ``obs``, ``faults`` and ``restarts`` are passed to
    :func:`simulate`.
    """
    if workload not in _SINGLE_VM_WORKLOADS:
        raise ValueError(f"unknown workload kind {workload!r}")
    cls, working_set = _SINGLE_VM_WORKLOADS[workload]
    workloads: list[Workload] = []

    def deploy(cloud):
        vm = cloud.deploy("vm0", cloud.cluster.node(0), approach=approach,
                          memory_size=VM_MEMORY, working_set=working_set)
        workloads.append(cls(vm, seed=seed, **(workload_kwargs or {})))
        workloads[0].start()
        return [(warmup, vm, cloud.cluster.node(1))] if migrate else []

    label = f"{approach}/{workload}" + ("" if migrate else "/baseline")
    outcome = ScenarioOutcome(approach=approach, workload=workload)
    cloud = simulate(outcome, label, n_nodes, deploy, config, obs, faults, restarts)
    (wl,) = workloads
    outcome.read_throughput = wl.read_throughput()
    outcome.write_throughput = wl.write_throughput()
    done = cloud.collector.completed()
    window = (done[0].requested_at, done[0].released_at) if done else (None, None)
    outcome.window_write_rate = wl.written_timeline.mean_rate(*window)
    outcome.workload_elapsed = wl.elapsed or 0.0
    outcome.counters = getattr(wl, "counter", 0)
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
    workloads: list[AsyncWRWorkload] = []

    def deploy(cloud):
        for i in range(n_sources):
            vm = cloud.deploy(f"vm{i}", cloud.cluster.node(i), approach=approach,
                              memory_size=VM_MEMORY, working_set=ASYNCWR_WORKING_SET)
            workloads.append(AsyncWRWorkload(vm, seed=seed + i, **(workload_kwargs or {})))
            workloads[-1].start()
        if not migrate:
            return []
        return [(warmup, workloads[i].vm, cloud.cluster.node(n_sources + i))
                for i in range(n_migrations)]

    label = f"{approach}/asyncwr-x{n_migrations}" + ("" if migrate else "/baseline")
    outcome = ScenarioOutcome(approach=approach, workload="asyncwr")
    simulate(outcome, label, n_sources + max(n_migrations, 1), deploy, config,
             obs, faults)
    elapsed = [wl.elapsed or 0.0 for wl in workloads]
    outcome.workload_elapsed = max(elapsed)
    outcome.elapsed_each = elapsed
    outcome.counters = sum(wl.counter for wl in workloads)
    outcome.write_throughput = sum(wl.write_throughput() for wl in workloads) / n_sources
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
    workloads: list[CM1Workload] = []

    def deploy(cloud):
        vms = [cloud.deploy(f"rank{i}", cloud.cluster.node(i), approach=approach,
                            memory_size=VM_MEMORY, working_set=CM1_WORKING_SET)
               for i in range(n_ranks)]
        workloads.extend(build_cm1_ensemble(
            cloud.env, vms, cloud.cluster.fabric, grid, **(workload_kwargs or {})
        ))
        for wl in workloads:
            wl.start()
        if not migrate:
            return []
        return [(first_at + i * interval, vms[i], cloud.cluster.node(n_ranks + i))
                for i in range(n_migrations)]

    label = f"{approach}/cm1-x{n_migrations}" + ("" if migrate else "/baseline")
    outcome = ScenarioOutcome(approach=approach, workload="cm1")
    simulate(outcome, label, n_ranks + max(n_migrations, 1), deploy, config,
             obs, faults)
    start = min(wl.started_at for wl in workloads)
    end = max(wl.finished_at for wl in workloads)
    outcome.workload_elapsed = end - start
    return outcome
