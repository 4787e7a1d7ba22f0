"""Paper-scale smoke: the simulator handles the evaluation's 100-node
cluster with a fleet of VMs and concurrent migrations."""

import numpy as np

from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
from repro.simkernel import Environment
from repro.workloads.synthetic import SequentialWriter

MB = 2**20


def test_hundred_node_cluster_concurrent_migrations():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=100))
    cloud = CloudMiddleware(cluster)
    n_vms = 40
    vms = []
    for i in range(n_vms):
        vm = cloud.deploy(f"vm{i}", cluster.node(i), working_set=64 * MB)
        SequentialWriter(
            vm, total_bytes=64 * MB, rate=16e6, op_size=4 * MB,
            region_offset=1024 * MB, region_size=256 * MB, seed=i,
        ).start()
        vms.append(vm)

    def migrator(i):
        yield env.timeout(1.0)
        yield cloud.migrate(vms[i], cluster.node(50 + i))

    for i in range(n_vms):
        env.process(migrator(i))
    env.run()

    assert len(cloud.collector.completed()) == n_vms
    for vm in vms:
        assert vm.node.name.startswith("node5") or int(vm.node.name[4:]) >= 50
        clock = vm.content_clock
        written = clock > 0
        np.testing.assert_array_equal(
            vm.manager.chunks.version[written], clock[written]
        )
    # The repository striped over 100 nodes; the backplane never broke
    # conservation.
    assert cluster.fabric.active_flows == 0
