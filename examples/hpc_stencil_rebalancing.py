#!/usr/bin/env python
"""Load rebalancing under a running HPC stencil application.

The paper's Section 5.5 scenario: a CM1-style BSP atmospheric simulation
spread over a grid of VMs, each dumping output to local storage, while the
cloud middleware migrates ranks one per minute (proactive fault tolerance /
rebalancing).  Because the halo exchange synchronizes every rank, one
slowed rank drags the whole application — the script reports both the
migration costs and the BSP-amplified application slowdown.

Run:  python examples/hpc_stencil_rebalancing.py
"""

from repro import CloudMiddleware, Cluster, ClusterSpec, Environment
from repro.experiments.config import CM1_WORKING_SET
from repro.workloads.cm1 import build_cm1_ensemble

GRID = (3, 3)
N_MIGRATIONS = 3


def run(approach: str, migrate: bool) -> dict:
    n_ranks = GRID[0] * GRID[1]
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=n_ranks + N_MIGRATIONS))
    cloud = CloudMiddleware(cluster)

    vms = [
        cloud.deploy(f"rank{i}", cluster.node(i), approach=approach,
                     working_set=CM1_WORKING_SET)
        for i in range(n_ranks)
    ]
    ranks = build_cm1_ensemble(
        env, vms, cluster.fabric, GRID, n_steps=60, dump_every=10
    )
    for rank in ranks:
        rank.start()

    if migrate:

        def migrator(i):
            yield env.timeout(60.0 + i * 60.0)
            yield cloud.migrate(vms[i], cluster.node(n_ranks + i))

        for i in range(N_MIGRATIONS):
            env.process(migrator(i))

    env.run()
    end = max(r.finished_at for r in ranks)
    return {
        "app runtime (s)": end,
        "migrations done": len(cloud.collector.completed()),
        "cumulated migration time (s)": cloud.collector.total_migration_time(),
        "migration traffic (GB)": cluster.fabric.meter.total(exclude=("app",))
        / 2**30,
        "halo traffic (GB)": cluster.fabric.meter.bytes("app") / 2**30,
    }


def main() -> None:
    print(f"CM1 {GRID[0]}x{GRID[1]} ensemble, {N_MIGRATIONS} successive migrations\n")
    for approach in ("our-approach", "pvfs-shared"):
        base = run(approach, migrate=False)
        res = run(approach, migrate=True)
        slowdown = res["app runtime (s)"] - base["app runtime (s)"]
        print(f"--- {approach}")
        for key, value in res.items():
            print(f"  {key:30s} {value:10.2f}")
        print(f"  {'BSP-amplified slowdown (s)':30s} {slowdown:10.2f}")
        print()


if __name__ == "__main__":
    main()
