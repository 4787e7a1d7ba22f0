"""Behavioural tests for the baseline strategies (mirror, precopy,
postcopy, pvfs-shared)."""

import numpy as np
import pytest

from repro.core.config import MigrationConfig
from repro.workloads.synthetic import SequentialWriter
from tests.conftest import SMALL_SPEC, deploy_small_vm

MB = 2**20


def make_cloud(**config_kwargs):
    from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
    from repro.simkernel import Environment

    env = Environment()
    cloud = CloudMiddleware(
        Cluster(env, ClusterSpec(**SMALL_SPEC)),
        config=MigrationConfig(push_batch=8, pull_batch=8, **config_kwargs),
    )
    return env, cloud


class TestMirror:
    def test_writes_block_on_destination_ack(self):
        """A mirrored write takes at least the network transfer time."""
        env, cloud = make_cloud()
        vm = deploy_small_vm(cloud, "our-approach", name="local")
        vm2 = deploy_small_vm(cloud, "mirror", name="mirrored", node=2)
        times = {}

        def run(v, tag, dst):
            if v.manager.name == "mirror":
                yield from v.manager.on_migration_request(dst)
            t0 = env.now
            yield from v.write(0, 16 * MB)
            times[tag] = env.now - t0

        env.process(run(vm, "local", None))
        env.process(run(vm2, "mirrored", cloud.cluster.node(3)))
        env.run(until=30.0)
        # Mirrored write pays the 100 MB/s network hop vs 266 MB/s local.
        assert times["mirrored"] > 1.5 * times["local"]

    def test_source_released_at_control(self):
        env, cloud = make_cloud()
        vm = deploy_small_vm(cloud, "mirror")
        done = {}

        def proc():
            yield from vm.write(0, 32 * MB)
            done["rec"] = yield cloud.migrate(vm, cloud.cluster.node(1))

        env.process(proc())
        env.run()
        rec = done["rec"]
        assert rec.released_at == pytest.approx(rec.control_at)

    def test_nothing_resent(self):
        """Mirror never re-sends: bulk chunks + one transfer per write."""
        env, cloud = make_cloud()
        vm = deploy_small_vm(cloud, "mirror")
        wl = SequentialWriter(
            vm, total_bytes=32 * MB, rate=16e6, op_size=2 * MB,
            region_offset=0, region_size=64 * MB,
        )
        wl.start()
        done = {}

        def migrator():
            yield env.timeout(0.5)
            done["rec"] = yield cloud.migrate(vm, cloud.cluster.node(1))

        env.process(migrator())
        env.run()
        src = vm.manager.peer
        meter = cloud.cluster.fabric.meter
        sent = meter.bytes("storage-push") + meter.bytes("storage-mirror")
        # Bounded by bulk (pre-request modified) + all post-request writes.
        assert sent <= 32 * MB + src.stats["bulk_chunks"] * MB + MB


class TestPrecopy:
    def test_bulk_includes_base_image(self):
        """QEMU-style block migration flattens: the allocated base part
        crosses the wire even though the guest never wrote it."""
        env, cloud = make_cloud()
        vm = deploy_small_vm(cloud, "precopy")
        done = {}

        def proc():
            yield from vm.write(128 * MB, 16 * MB)
            done["rec"] = yield cloud.migrate(vm, cloud.cluster.node(1))

        env.process(proc())
        env.run()
        meter = cloud.cluster.fabric.meter
        base = cloud.cluster.spec.base_allocated
        assert meter.bytes("storage-push") >= base * 0.9
        # The never-local base content was materialized from the repo.
        assert meter.bytes("repo-fetch") > 0

    def test_unflattened_precopy_skips_base(self):
        """``precopy_flatten=False``: the destination re-opens the shared
        backing image, so only the snapshot layer crosses the wire."""

        def run(flatten):
            env, cloud = make_cloud(precopy_flatten=flatten)
            vm = deploy_small_vm(cloud, "precopy")
            done = {}

            def proc():
                yield from vm.write(128 * MB, 16 * MB)
                done["rec"] = yield cloud.migrate(vm, cloud.cluster.node(1))

            env.process(proc())
            env.run()
            return cloud.cluster.fabric.meter.bytes("storage-push"), done["rec"]

        flat_bytes, flat_rec = run(True)
        thin_bytes, thin_rec = run(False)
        base = 64 * MB  # SMALL_SPEC base_allocated
        assert flat_bytes >= base
        assert thin_bytes < base
        assert thin_rec.migration_time < flat_rec.migration_time

    def test_redirtied_chunks_resent(self):
        env, cloud = make_cloud()
        vm = deploy_small_vm(cloud, "precopy")
        wl = SequentialWriter(
            vm, total_bytes=96 * MB, rate=24e6, op_size=2 * MB,
            region_offset=128 * MB, region_size=16 * MB,  # heavy rewriting
        )
        wl.start()
        done = {}

        def migrator():
            yield env.timeout(0.5)
            done["rec"] = yield cloud.migrate(vm, cloud.cluster.node(1))

        env.process(migrator())
        env.run()
        src = vm.manager.peer
        assert src.stats["resent_chunks"] > 0

    def test_forced_convergence_safety_valve_unit(self):
        """``ready_for_control`` flips true once ``precopy_force_after``
        elapsed since the request, however large the dirty backlog."""
        env, cloud = make_cloud(precopy_force_after=20.0)
        vm = deploy_small_vm(cloud, "precopy")
        mgr = vm.manager

        def proc():
            yield from vm.write(128 * MB, 16 * MB)
            yield from mgr.on_migration_request(cloud.cluster.node(1))
            # Keep the dirty set artificially saturated.
            mgr.dirty[:] = True
            assert not mgr.ready_for_control()
            yield env.timeout(25.0)
            mgr.dirty[:] = True
            assert mgr.ready_for_control()
            # Stop the background sweep so the test run terminates.
            yield from mgr.on_sync()

        env.process(proc())
        env.run(until=60.0)

    def test_migration_completes_despite_endless_writer(self):
        """Termination: an endless rewriter cannot hang precopy thanks to
        the force-after valve (QEMU would instead block guest I/O)."""
        env, cloud = make_cloud(precopy_force_after=15.0)
        vm = deploy_small_vm(cloud, "precopy")
        # Rewrites a 128 MB region for ~25 s at 80 MB/s: far beyond the
        # 15 s valve, so the valve (not convergence) ends the wait.
        wl = SequentialWriter(
            vm, total_bytes=2 * 2**30, rate=80e6, op_size=2 * MB,
            region_offset=64 * MB, region_size=128 * MB,
        )
        wl.start()
        done = {}

        def migrator():
            yield env.timeout(0.5)
            done["rec"] = yield cloud.migrate(vm, cloud.cluster.node(1))

        env.process(migrator())
        env.run(until=600.0)
        assert done["rec"].released_at is not None

    def test_guest_writes_squeezed_during_migration(self):
        """The paper's ~25% IOR write throughput under precopy: guest
        writes contend with migration buffer copies."""
        times = {}
        for approach in ("our-approach", "precopy"):
            env2, cloud2 = make_cloud()
            vm = deploy_small_vm(cloud2, approach)

            def proc(vm=vm, cloud2=cloud2, approach=approach, env2=env2):
                # Materialize the base region locally so precopy's bulk
                # sweep pushes (and squeezes) from the start.
                yield from vm.read(0, 64 * MB)
                mig = cloud2.migrate(vm, cloud2.cluster.node(1))
                yield env2.timeout(0.2)
                t0 = env2.now
                yield from vm.write(128 * MB, 32 * MB)
                times[approach] = env2.now - t0
                yield mig

            env2.process(proc())
            env2.run()
        assert times["precopy"] > 1.5 * times["our-approach"]


class TestPvfsShared:
    def test_no_storage_transfer_on_migration(self):
        env, cloud = make_cloud()
        vm = deploy_small_vm(cloud, "pvfs-shared")
        done = {}

        def proc():
            yield from vm.write(0, 16 * MB)
            done["rec"] = yield cloud.migrate(vm, cloud.cluster.node(1))

        env.process(proc())
        env.run()
        meter = cloud.cluster.fabric.meter
        assert meter.bytes("storage-push") == 0
        assert meter.bytes("storage-pull") == 0
        assert meter.bytes("memory") > 0

    def test_shared_state_visible_after_control(self):
        """Writes made on the source are visible through the shared
        snapshot at the destination (same versions)."""
        env, cloud = make_cloud()
        vm = deploy_small_vm(cloud, "pvfs-shared")

        def proc():
            yield from vm.write(0, 16 * MB)
            yield cloud.migrate(vm, cloud.cluster.node(1))
            yield from vm.write(16 * MB, 16 * MB)

        env.process(proc())
        env.run()
        clock = vm.content_clock
        written = clock > 0
        np.testing.assert_array_equal(
            vm.manager.chunks.version[written], clock[written]
        )

    def test_continuous_traffic_even_without_migration(self):
        env, cloud = make_cloud()
        vm = deploy_small_vm(cloud, "pvfs-shared")

        def proc():
            yield from vm.write(0, 8 * MB)
            yield from vm.read(0, 8 * MB)

        env.process(proc())
        env.run()
        assert cloud.cluster.fabric.meter.bytes("pvfs-io") > 0
