"""Storage wire bytes equal payload bytes, engine by engine.

Each storage batch moves exactly its chunks' bytes over the fabric, so a
fault-free migration's per-tag traffic is the engine's chunk counters
times the chunk size.  The meter sums float integrations of flow rates,
hence the 1e-12 relative tolerance rather than exact equality.
"""

import pytest

from tests.conftest import SMALL_SPEC, deploy_small_vm
from tests.core.test_hybrid_details import make_cloud

MB = 2**20
CHUNK = SMALL_SPEC["chunk_size"]


def _migrate_with_reader(approach):
    """16 MB written before the migration, 32 MB while it runs, and a
    destination read of the tail as soon as control transfers (the
    on-demand scenario of ``test_ondemand_read_pull_priority``)."""
    env, cloud = make_cloud(threshold=1)
    vm = deploy_small_vm(cloud, approach)

    def proc():
        yield from vm.write(0, 16 * MB)
        mig = cloud.migrate(vm, cloud.cluster.node(1))

        def during_migration_writer():
            yield env.timeout(0.1)
            yield from vm.write(32 * MB, 32 * MB)

        def reader():
            while not vm.manager.is_destination:
                yield env.timeout(0.05)
            yield from vm.read(60 * MB, 4 * MB)

        env.process(during_migration_writer())
        env.process(reader())
        yield mig

    env.process(proc())
    env.run()
    return vm.manager.peer, vm.manager, cloud.cluster.fabric.meter


@pytest.mark.parametrize("approach", ["our-approach", "postcopy"])
def test_hybrid_engines_move_payload_bytes(approach):
    src, dst, meter = _migrate_with_reader(approach)
    assert dst.stats["ondemand_chunks"] > 0
    assert meter.bytes("storage-push") == pytest.approx(
        src.stats["pushed_chunks"] * CHUNK, rel=1e-12)
    assert meter.bytes("storage-pull") == pytest.approx(
        (dst.stats["pulled_chunks"] + dst.stats["ondemand_chunks"]) * CHUNK,
        rel=1e-12)


def test_precopy_moves_payload_bytes():
    src, _dst, meter = _migrate_with_reader("precopy")
    sent = src.stats["sent_chunks"] + src.stats["final_chunks"]
    assert sent > 0
    assert meter.bytes("storage-push") == pytest.approx(sent * CHUNK,
                                                        rel=1e-12)


def test_mirror_moves_payload_bytes():
    src, _dst, meter = _migrate_with_reader("mirror")
    assert src.stats["bulk_chunks"] > 0
    assert meter.bytes("storage-push") == pytest.approx(
        src.stats["bulk_chunks"] * CHUNK, rel=1e-12)
