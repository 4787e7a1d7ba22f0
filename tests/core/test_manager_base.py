"""Tests for the base MigrationManager guest I/O path (no migration)."""

import pytest

from tests.conftest import deploy_small_vm

MB = 2**20


def run_io(env, gen):
    return env.process(gen)


class TestCopyOnReference:
    def test_first_read_fetches_from_repo(self, small_cloud):
        env, cloud = small_cloud
        vm = deploy_small_vm(cloud, "our-approach")
        mgr = vm.manager

        def proc():
            yield from vm.read(0, 4 * MB)

        env.process(proc())
        env.run()
        meter = cloud.cluster.fabric.meter
        # Chunks 0-3 stripe over the 4 nodes; the stripe living on the
        # VM's own node (node0) is a free local read, so 3 of 4 chunks
        # generate network traffic.
        assert meter.bytes("repo-fetch") == pytest.approx(3 * MB)
        assert mgr.chunks.present[:4].all()
        assert not mgr.chunks.modified.any()

    def test_second_read_is_local(self, small_cloud):
        env, cloud = small_cloud
        vm = deploy_small_vm(cloud, "our-approach")

        def proc():
            yield from vm.read(0, 4 * MB)
            yield from vm.read(0, 4 * MB)

        env.process(proc())
        env.run()
        # Only one fetch despite two reads (3 of 4 stripes are remote).
        assert cloud.cluster.fabric.meter.bytes("repo-fetch") == pytest.approx(3 * MB)

    def test_aligned_write_needs_no_fetch(self, small_cloud):
        env, cloud = small_cloud
        vm = deploy_small_vm(cloud, "our-approach")

        def proc():
            yield from vm.write(8 * MB, 4 * MB)

        env.process(proc())
        env.run()
        assert cloud.cluster.fabric.meter.bytes("repo-fetch") == 0.0
        mgr = vm.manager
        assert mgr.chunks.modified[8:12].all()
        assert (mgr.chunks.version[8:12] == 1).all()

    def test_partial_write_fetches_boundary_chunks(self, small_cloud):
        env, cloud = small_cloud
        vm = deploy_small_vm(cloud, "our-approach")

        def proc():
            # Write 1 MB starting half-way into chunk 4: touches chunks 4,5
            # partially at both ends -> both need their base content.
            yield from vm.write(4 * MB + MB // 2, MB)

        env.process(proc())
        env.run()
        # Chunks 4 and 5 live on servers node0 (local, free) and node1.
        assert cloud.cluster.fabric.meter.bytes("repo-fetch") == pytest.approx(MB)

    def test_partial_write_to_present_chunk_needs_no_fetch(self, small_cloud):
        env, cloud = small_cloud
        vm = deploy_small_vm(cloud, "our-approach")

        def proc():
            yield from vm.write(4 * MB, MB)  # chunk 4 now present
            yield from vm.write(4 * MB + MB // 2, MB // 4)  # partial, present

        env.process(proc())
        env.run()
        assert cloud.cluster.fabric.meter.bytes("repo-fetch") == 0.0

    def test_write_rate_capped_by_guest_ceiling(self, small_cloud):
        env, cloud = small_cloud
        vm = deploy_small_vm(cloud, "our-approach")
        done = []

        def proc():
            yield from vm.write(0, 256 * MB)
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done[0] == pytest.approx(256 * MB / vm.write_bw, rel=1e-6)

    def test_read_rate_capped_by_guest_ceiling(self, small_cloud):
        env, cloud = small_cloud
        vm = deploy_small_vm(cloud, "our-approach")
        done = []

        def proc():
            yield from vm.write(0, 64 * MB)
            t0 = env.now
            yield from vm.read(0, 64 * MB)
            done.append(env.now - t0)

        env.process(proc())
        env.run()
        assert done[0] == pytest.approx(64 * MB / vm.read_bw, rel=1e-6)

    def test_content_clock_advances(self, small_cloud):
        env, cloud = small_cloud
        vm = deploy_small_vm(cloud, "our-approach")

        def proc():
            yield from vm.write(0, MB)
            yield from vm.write(0, MB)

        env.process(proc())
        env.run()
        assert vm.content_clock[0] == 2
        assert vm.manager.chunks.version[0] == 2


class TestRegistry:
    def test_all_five_approaches_deployable(self, small_cloud):
        env, cloud = small_cloud
        from repro.core import APPROACHES

        for i, name in enumerate(APPROACHES):
            vm = cloud.deploy(f"vm-{name}", cloud.cluster.node(i % 4), approach=name)
            assert vm.manager.name == name

    def test_unknown_approach_rejected(self, small_cloud):
        env, cloud = small_cloud
        with pytest.raises(ValueError, match="unknown approach"):
            cloud.deploy("vmX", cloud.cluster.node(0), approach="teleport")

    def test_duplicate_vm_name_rejected(self, small_cloud):
        env, cloud = small_cloud
        cloud.deploy("vm0", cloud.cluster.node(0))
        with pytest.raises(ValueError, match="already in use"):
            cloud.deploy("vm0", cloud.cluster.node(1))

    def test_table1_summary(self):
        from repro.core import approach_summary

        rows = approach_summary()
        assert len(rows) == 5
        assert rows[0] == (
            "our-approach",
            "Active push below Threshold, then prioritized prefetch",
        )
        assert dict(rows)["pvfs-shared"].startswith("Does not apply")


class TestSharedStorageIO:
    def test_reads_and_writes_are_remote(self, small_cloud):
        env, cloud = small_cloud
        vm = deploy_small_vm(cloud, "pvfs-shared")

        def proc():
            yield from vm.write(0, 4 * MB)
            yield from vm.read(0, 4 * MB)

        env.process(proc())
        env.run()
        # Each 4 MB I/O stripes over 4 servers incl. the VM's own node
        # (one free local stripe): 3 MB metered per op.
        assert cloud.cluster.fabric.meter.bytes("pvfs-io") == pytest.approx(6 * MB)

    def test_write_much_slower_than_local(self, small_cloud):
        env, cloud = small_cloud
        local = deploy_small_vm(cloud, "our-approach", name="local", node=0)
        remote = deploy_small_vm(cloud, "pvfs-shared", name="remote", node=1)
        times = {}

        def proc(vm, tag):
            t0 = env.now
            yield from vm.write(0, 16 * MB)
            times[tag] = env.now - t0

        env.process(proc(local, "local"))
        env.process(proc(remote, "remote"))
        env.run()
        assert times["remote"] > 5 * times["local"]

    def test_requires_pvfs_repo(self, small_cloud):
        env, cloud = small_cloud
        from repro.core.shared import SharedStorageManager
        from repro.hypervisor.vm import VMInstance
        from repro.storage.virtualdisk import VirtualDisk

        vm = VMInstance(env, "bad")
        node = cloud.cluster.node(0)
        vdisk = VirtualDisk(env, 16 * MB, MB, node.disk)
        with pytest.raises(TypeError, match="requires a PVFS"):
            SharedStorageManager(
                env, vm, node, vdisk, cloud.cluster.repository,
                cloud.cluster.fabric,
            )
