"""Tests for ClusterSpec validation, Cluster wiring, CloudMiddleware."""

import pytest

from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
from repro.simkernel import Environment


class TestClusterSpec:
    def test_defaults_are_graphene_like(self):
        spec = ClusterSpec()
        assert spec.nic_bw == pytest.approx(117.5e6)
        # Calibrated to the paper's contention point, not the 8 GB/s quoted.
        assert spec.backplane_bw == pytest.approx(2.5e9)
        assert spec.disk_bw == pytest.approx(55e6)
        assert spec.chunk_size == 256 * 1024
        assert spec.image_size == 4 * 2**30

    def test_too_few_nodes(self):
        with pytest.raises(ValueError, match="at least 2"):
            ClusterSpec(n_nodes=1)

    def test_image_chunk_alignment(self):
        with pytest.raises(ValueError, match="multiple"):
            ClusterSpec(image_size=1000, chunk_size=333, base_allocated=0)

    def test_base_allocated_bounds(self):
        with pytest.raises(ValueError, match="base_allocated"):
            ClusterSpec(image_size=2**30, chunk_size=2**20,
                        base_allocated=2 * 2**30)


class TestCluster:
    def test_wiring(self):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=4, base_allocated=2**30))
        assert len(cluster.nodes) == 4
        assert len(cluster.topology) == 4
        assert len(cluster.repository.servers) == 4
        assert len(cluster.pvfs.servers) == 4
        assert cluster.node(2).name == "node2"
        assert cluster.node(2).host is cluster.topology["node2"]

    def test_default_spec(self):
        env = Environment()
        cluster = Cluster(env)
        assert len(cluster.nodes) == 8


class TestCloudMiddleware:
    def test_deploy_wires_everything(self):
        env = Environment()
        cloud = CloudMiddleware(Cluster(env, ClusterSpec(n_nodes=3)))
        vm = cloud.deploy("vm0", cloud.cluster.node(1))
        assert vm.node is cloud.cluster.node(1)
        assert vm.manager.vdisk.size == 4 * 2**30
        assert vm.manager.vdisk.base_allocated == cloud.cluster.spec.base_allocated
        assert vm.manager.repo is cloud.cluster.repository
        assert cloud.vms["vm0"] is vm

    def test_pvfs_vm_gets_pvfs_repo(self):
        env = Environment()
        cloud = CloudMiddleware(Cluster(env, ClusterSpec(n_nodes=3)))
        vm = cloud.deploy("vm0", cloud.cluster.node(0), approach="pvfs-shared")
        assert vm.manager.repo is cloud.cluster.pvfs
