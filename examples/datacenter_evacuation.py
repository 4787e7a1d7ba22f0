#!/usr/bin/env python
"""Online maintenance: evacuate a rack of I/O-heavy VMs.

One of the paper's motivating management tasks (Section 1): a batch of
physical machines must be serviced, so every VM they host is live-migrated
away — while the VMs keep writing at full pressure.  The script compares
the paper's hybrid scheme against pre-copy block migration for the same
evacuation, reporting how long each node stays pinned (migration time =
time until the source can be powered off) and the bandwidth bill.

Run:  python examples/datacenter_evacuation.py
"""

from repro import CloudMiddleware, Cluster, ClusterSpec, Environment
from repro.workloads import HotspotWriter

MB = 2**20
N_EVACUATED = 6


def evacuate(approach: str) -> dict:
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=2 * N_EVACUATED + 2))
    cloud = CloudMiddleware(cluster)

    vms = []
    for i in range(N_EVACUATED):
        vm = cloud.deploy(f"vm{i}", cluster.node(i), approach=approach,
                          working_set=512 * MB)
        # An adversarial guest: Zipf-hot rewrites at 40 MB/s — the pattern
        # that defeats naive pre-copy.
        wl = HotspotWriter(
            vm,
            total_bytes=4096 * MB,
            rate=40e6,
            op_size=2 * MB,
            region_offset=1024 * MB,
            region_size=1024 * MB,
            seed=i,
        )
        wl.start()
        vms.append(vm)

    def evacuator(i):
        yield env.timeout(20.0)
        yield cloud.migrate(vms[i], cluster.node(N_EVACUATED + i))

    for i in range(N_EVACUATED):
        env.process(evacuator(i))
    env.run()

    times = cloud.collector.migration_times()
    return {
        "per-node pin time (avg)": sum(times) / len(times),
        "per-node pin time (max)": max(times),
        "max downtime (ms)": cloud.collector.max_downtime() * 1000,
        "network traffic (GB)": cluster.fabric.meter.total() / 2**30,
    }


def main() -> None:
    print(f"Evacuating {N_EVACUATED} nodes running Zipf-hot writers\n")
    for approach in ("our-approach", "precopy"):
        stats = evacuate(approach)
        print(f"--- {approach}")
        for key, value in stats.items():
            print(f"  {key:26s} {value:10.2f}")
        print()


if __name__ == "__main__":
    main()
