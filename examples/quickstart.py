#!/usr/bin/env python
"""Quickstart: deploy a VM on local storage, run an I/O workload, and
live-migrate it with the paper's hybrid push/prefetch scheme.

Walks the whole public API surface:

1. build a graphene-calibrated cluster,
2. deploy a VM whose disk is a copy-on-write view over the striped
   repository,
3. run an IOR-style benchmark inside it,
4. trigger a live migration mid-benchmark,
5. inspect migration time, downtime, and per-tag network traffic.

Run:  python examples/quickstart.py
"""

from repro import CloudMiddleware, Cluster, ClusterSpec, Environment
from repro.workloads import IORWorkload

MB = 2**20


def main() -> None:
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=8))
    cloud = CloudMiddleware(cluster)

    # A 4 GB-RAM VM on node0; its virtual disk lazily materializes from
    # the BlobSeer-style striped repository.
    vm = cloud.deploy("demo-vm", cluster.node(0), approach="our-approach")

    # IOR inside the guest: write-then-read a 1 GB file, 6 iterations.
    bench = IORWorkload(vm, iterations=6)
    bench.start()

    def migrate_later():
        yield env.timeout(10.0)
        print(f"[{env.now:7.2f}s] migration requested: node0 -> node1")
        record = yield cloud.migrate(vm, cluster.node(1))
        print(f"[{env.now:7.2f}s] source relinquished")
        print()
        print(f"  migration time : {record.migration_time:6.2f} s")
        print(f"  time to control: {record.time_to_control:6.2f} s")
        print(f"  downtime       : {record.downtime * 1000:6.1f} ms")
        print(f"  memory rounds  : {record.memory_rounds}")

    env.process(migrate_later())
    env.run()

    print()
    print(f"benchmark finished at {bench.finished_at:.2f} s")
    print(f"  sustained write throughput: {bench.write_throughput() / 1e6:7.1f} MB/s")
    print(f"  sustained read throughput : {bench.read_throughput() / 1e6:7.1f} MB/s")
    print()
    print("network traffic by tag:")
    for tag, nbytes in sorted(cluster.fabric.meter.by_tag().items()):
        print(f"  {tag:14s} {nbytes / MB:10.1f} MB")

    # The correctness invariant: after migration the destination holds
    # exactly what the guest wrote.
    clock = vm.content_clock
    written = clock > 0
    assert (vm.manager.chunks.version[written] == clock[written]).all()
    print("\nconsistency check passed: destination matches the guest's writes")


if __name__ == "__main__":
    main()
