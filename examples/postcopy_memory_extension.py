#!/usr/bin/env python
"""Future-work extension: hybrid storage transfer over post-copy memory.

The paper's conclusion: "we did not find acceptable implementations of
alternate memory transfer techniques in practice (e.g. post-copy), but
plan to experiment how our approach behaves in such a context."  The
storage scheme is memory-strategy independent by design (Section 4.1), so
this script runs the same migration with QEMU-style pre-copy memory and
with post-copy memory, under identical I/O pressure.

With post-copy memory, control transfers almost immediately — the storage
pull phase starts far earlier and overlaps the (now post-control) memory
stream, trading longer total background transfer for a much earlier source
handoff of execution.

Run:  python examples/postcopy_memory_extension.py
"""

from repro import (
    CloudMiddleware,
    Cluster,
    ClusterSpec,
    Environment,
    PostcopyMemory,
    PrecopyMemory,
)
from repro.workloads import IORWorkload

MB = 2**20


def run(memory_strategy, label: str) -> None:
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=8))
    cloud = CloudMiddleware(cluster)
    vm = cloud.deploy("vm0", cluster.node(0), approach="our-approach")
    bench = IORWorkload(vm, iterations=8)
    bench.start()
    records = []

    def migrator():
        yield env.timeout(10.0)
        record = yield cloud.migrate(vm, cluster.node(1), memory=memory_strategy)
        records.append(record)

    env.process(migrator())
    env.run()

    record = records[0]
    print(f"--- memory strategy: {label}")
    print(f"  time to control : {record.time_to_control:7.2f} s")
    print(f"  downtime        : {record.downtime * 1000:7.1f} ms")
    print(f"  migration time  : {record.migration_time:7.2f} s")
    print(f"  memory traffic  : {record.memory_bytes / MB:7.0f} MB")
    print(f"  IOR write tput  : {bench.write_throughput() / 1e6:7.1f} MB/s")
    print()


def main() -> None:
    run(PrecopyMemory(), "pre-copy (paper's setup)")
    run(PostcopyMemory(), "post-copy (future-work extension)")


if __name__ == "__main__":
    main()
