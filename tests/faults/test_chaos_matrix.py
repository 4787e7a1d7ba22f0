"""Chaos matrix: every migration approach under every fault kind.

The contract under test is the paper's central safety claim (Section 4.2):
because the source stays authoritative until the destination holds
everything it needs, a failed migration is never worse than no migration —
the run either *completes* (source relinquished, destination converged)
or *aborts cleanly* (VM still running on the source, no state lost).

Each cell of the matrix drives one VM under combined read+write pressure,
requests a migration at t=1s, injects one fault at t=1.3s (squarely inside
the pre-control window for every approach at this geometry) and then
checks the run reached one of the two legal terminal states with the
chunk-level content invariant intact.  The module-level SIGALRM fixture
(conftest) turns any hang into a loud failure.
"""

import gc

import numpy as np
import pytest

from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
from repro.core.config import MigrationConfig
from repro.core.manager import ChunkTransferStalled
from repro.core.registry import APPROACHES
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.obs import Observability
from repro.simkernel import Environment
from repro.workloads.synthetic import PacedReader, RandomWriter

MB = 2**20

#: Small-image geometry (fast to simulate) with a replicated repository so
#: a single stripe-server outage is survivable by design.
CHAOS_SPEC = dict(
    n_nodes=4,
    nic_bw=100e6,
    backplane_bw=None,
    latency=1e-4,
    disk_bw=55e6,
    disk_cache_bytes=2 * 2**30,
    chunk_size=1 * MB,
    image_size=256 * MB,
    base_allocated=64 * MB,
    repo_replication=2,
)

FAULT_KINDS = [
    "link-degraded",
    "link-partitioned",
    "destination-crash",
    "stripe-server-down",
    "slow-disk",
]


def _fault(kind: str) -> FaultSpec:
    """One representative fault per matrix column.

    node1 is the migration destination; node2 hosts a repository stripe
    server but is neither source nor destination.
    """
    if kind == "link-degraded":
        return FaultSpec("link-degrade", "node1", at=1.3, duration=8.0,
                         severity=0.2)
    if kind == "link-partitioned":
        return FaultSpec("link-partition", "node1", at=1.3, duration=5.0)
    if kind == "destination-crash":
        return FaultSpec("node-crash", "node1", at=1.3)  # permanent
    if kind == "stripe-server-down":
        return FaultSpec("repo-server-down", "node2", at=1.3, duration=6.0)
    if kind == "slow-disk":
        return FaultSpec("slow-disk", "node1", at=1.3, duration=8.0,
                         severity=0.1)
    raise AssertionError(kind)


def _plan(kind: str) -> FaultPlan:
    # Retry budget (~8s timeout x 7 attempts) comfortably covers every
    # temporary outage above; the permanent crash exhausts it and aborts.
    return FaultPlan(
        faults=[_fault(kind)],
        chunk_timeout=8.0,
        retry_max=6,
        retry_backoff=0.25,
        migration_timeout=90.0,
        horizon=600.0,
    )


def _build(approach: str, plan: FaultPlan, obs=None):
    env = Environment()
    (obs if obs is not None else Observability(trace=False)).install(env)
    cluster = Cluster(env, ClusterSpec(**CHAOS_SPEC))
    config = plan.apply_to(MigrationConfig(push_batch=8, pull_batch=8))
    cloud = CloudMiddleware(cluster, config=config)
    vm = cloud.deploy(
        "vm0",
        cluster.node(0),
        approach=approach,
        memory_size=256 * MB,
        working_set=64 * MB,
    )
    # Combined pressure: random rewrites over the front of the image (the
    # pre-copy adversary) plus paced reads over the back (exercises the
    # on-demand pull path after control transfer).
    writer = RandomWriter(vm, total_bytes=160 * MB, rate=12e6, op_size=2 * MB,
                          region_offset=0, region_size=96 * MB, seed=7)
    reader = PacedReader(vm, total_bytes=64 * MB, rate=6e6, op_size=2 * MB,
                         region_offset=96 * MB, region_size=64 * MB, seed=11)
    writer.start()
    reader.start()
    FaultInjector(env, cluster, plan).start()
    return env, cloud, vm


def _check_content_clock(vm) -> None:
    """No lost chunks: whoever now owns the VM's disk must hold the final
    content version of every chunk the guest ever wrote."""
    clock = vm.content_clock
    written = clock > 0
    np.testing.assert_array_equal(
        vm.manager.chunks.version[written], clock[written],
        err_msg="chunk versions diverged from the VM content clock",
    )


@pytest.mark.parametrize("kind", FAULT_KINDS)
@pytest.mark.parametrize("approach", sorted(APPROACHES))
def test_chaos_matrix(approach, kind):
    plan = _plan(kind)
    env, cloud, vm = _build(approach, plan)
    out = {}

    def migrator():
        yield env.timeout(1.0)
        record = yield cloud.migrate(vm, cloud.cluster.node(1))
        out["record"] = record

    env.process(migrator())
    env.run(until=plan.horizon)

    record = out.get("record")
    assert record is not None, (
        f"{approach} under {kind}: migration neither completed nor aborted "
        f"by the plan horizon ({plan.horizon}s) — it hung"
    )
    # The injector fired.
    metrics = env.probe.metrics
    assert metrics.counter(f"faults.injected.{_fault(kind).kind}").value >= 1

    if record.aborted:
        # Clean abort: the VM never left the source and never stopped.
        assert record.abort_cause, "aborted migrations must say why"
        assert vm.node is cloud.cluster.node(0)
        assert not vm.paused
        assert not vm.manager.is_source, "source manager must stand down"
        assert record.released_at is None
    else:
        # Completion: source relinquished, guest lives on the destination.
        assert record.released_at is not None
        assert vm.node is cloud.cluster.node(1)
        assert not vm.paused
    _check_content_clock(vm)


def test_destination_crash_always_aborts():
    """A permanent destination crash can never complete: every approach
    must abort (retry exhaustion or watchdog) with the source intact."""
    for approach in sorted(APPROACHES):
        plan = _plan("destination-crash")
        env, cloud, vm = _build(approach, plan)
        out = {}

        def migrator():
            yield env.timeout(1.0)
            out["record"] = yield cloud.migrate(vm, cloud.cluster.node(1))

        env.process(migrator())
        env.run(until=plan.horizon)
        record = out.get("record")
        assert record is not None, f"{approach}: migration hung after crash"
        assert record.aborted, f"{approach}: completed against a dead node"
        assert vm.node is cloud.cluster.node(0) and not vm.paused


def _outage_restart_run(approach, obs=None, collect_at=None):
    """node1 (the destination) is down t=1.3..31.3 s; the 5 s watchdog
    aborts and the middleware restarts up to three times.  With
    ``collect_at`` a process runs a full garbage collection at that
    instant."""
    plan = FaultPlan(
        faults=[FaultSpec("node-crash", "node1", at=1.3, duration=30.0)],
        chunk_timeout=8.0,
        retry_max=6,
        retry_backoff=0.25,
        migration_timeout=5.0,
        restart_backoff=10.0,
        horizon=600.0,
    )
    env, cloud, vm = _build(approach, plan, obs)
    out = {}

    def migrator():
        yield env.timeout(1.0)
        out["record"] = yield cloud.migrate(vm, cloud.cluster.node(1),
                                            restarts=3)

    def collector():
        yield env.timeout(collect_at)
        gc.collect()

    env.process(migrator())
    if collect_at is not None:
        env.process(collector())
    env.run(until=plan.horizon)
    return cloud, vm, out


def test_destination_outage_aborts_then_restart_completes():
    """Abort-and-restart: the 5 s watchdog aborts the first attempt while
    the destination is down (t=1.3..31.3), the restarts due at t=16 and
    t=26 are skipped because the node is still down, and the one at t=36
    starts and completes.  The restart instant numbers attempts that
    started, so it reads 1 — the attempt ``repro analyze`` labels #2."""
    obs = Observability(trace=True)
    cloud, vm, out = _outage_restart_run("our-approach", obs)

    first, second = cloud.collector.records
    assert first.aborted and first.released_at is None
    assert not second.aborted and second.released_at is not None
    assert out["record"] is second
    # Two restarts fell inside the outage and never started.
    assert second.requested_at == pytest.approx(36.0)
    assert vm.node is cloud.cluster.node(1) and not vm.paused
    _check_content_clock(vm)
    assert obs.metrics.counter("migration.restarts").value == 1
    restarts = [ev["args"]["attempt"] for ev in obs.tracer.events
                if ev["name"] == "migration.restart"]
    assert restarts == [1]


def test_restart_run_does_not_depend_on_garbage_collection():
    """A guest PVFS I/O black-holed by the outage parks its process on an
    event that no queue holds.  A garbage collection mid-run must not
    close that process (its ``finally`` would release ``drain_io`` and let
    the restarted attempt finish), so the run's record is the same with
    and without one.  The attempt at t=36 still pauses the VM for good:
    PVFS guest I/O has no timeout, so the black-holed I/Os never end."""
    def outcome(collect_at):
        cloud, vm, out = _outage_restart_run("pvfs-shared",
                                             collect_at=collect_at)
        return ([repr(r) for r in cloud.collector.records], vm.node.name,
                vm.paused, "record" in out)

    plain = outcome(None)
    assert outcome(20.0) == plain
    records, node, paused, finished = plain
    assert len(records) == 2
    assert (node, paused, finished) == ("node0", True, False)


def test_precopy_abort_during_its_repository_fetch():
    """The watchdog aborts precopy while its sweep waits on a repository
    fetch (t=1.0..1.49 s in this geometry).  The sweep must drop the
    batch instead of sending it to the discarded destination twin."""
    plan = FaultPlan(faults=[], chunk_timeout=8.0, retry_max=6,
                     retry_backoff=0.25, migration_timeout=0.2,
                     horizon=60.0)
    env, cloud, vm = _build("precopy", plan)
    out = {}

    def migrator():
        yield env.timeout(1.0)
        out["record"] = yield cloud.migrate(vm, cloud.cluster.node(1))

    env.process(migrator())
    env.run(until=plan.horizon)
    record = out["record"]
    assert record.aborted and "exceeded" in record.abort_cause
    assert vm.node is cloud.cluster.node(0) and not vm.paused
    _check_content_clock(vm)


@pytest.mark.parametrize("approach, at, cause", [
    # The instant each hybrid engine sends TRANSFER_IO_CONTROL.
    ("our-approach", 1.8075086399999998, "TRANSFER_IO_CONTROL undeliverable"),
    ("postcopy", 1.6816795199999999, "TRANSFER_IO_CONTROL undeliverable"),
    # Inside precopy's final flush (downtime from t~3.01 s).
    ("precopy", 3.04, "final precopy flush stalled"),
])
def test_a_stall_inside_the_downtime_aborts_on_the_source(approach, at, cause):
    """The destination is partitioned for good while the VM is paused
    for the stop-and-copy, so the storage hand-over exhausts its retries
    before control moves.  The attempt aborts with the engine's stall as
    its cause and the guest resumes on the source; the run goes on to its
    horizon instead of raising ``ChunkTransferStalled``."""
    plan = FaultPlan(faults=[FaultSpec("link-partition", "node1", at=at)],
                     chunk_timeout=2.0, retry_max=1, retry_backoff=0.25,
                     migration_timeout=90.0, horizon=60.0)
    env, cloud, vm = _build(approach, plan)
    out = {}

    def migrator():
        yield env.timeout(1.0)
        out["record"] = yield cloud.migrate(vm, cloud.cluster.node(1))

    env.process(migrator())
    env.run(until=plan.horizon)
    record = out["record"]
    assert record.aborted and record.abort_cause.startswith(cause)
    assert record.control_at is None and record.released_at is None
    name, paused_at, resumed_at = record.phases[-1]
    # Two 2 s timeouts and one 0.25 s backoff while paused.
    assert name == "downtime" and resumed_at - paused_at > 4.25
    assert vm.node is cloud.cluster.node(0) and not vm.paused
    assert not vm.manager.is_source and vm.manager.peer is None
    _check_content_clock(vm)


def test_source_lost_after_control_stalls_the_pull():
    """The unsafe corner the paper concedes (Section 6): the source is
    partitioned for good after control transfer, while the first prefetch
    batch is in flight (control at t~1.81).  Prefetching stops, the batch
    is pending again except the chunk the guest overwrote meanwhile, the
    source is never released, and destination reads of the lost chunks
    raise instead of falling through to the base image."""
    plan = FaultPlan(
        faults=[FaultSpec("link-partition", "node0", at=1.81)],  # permanent
        chunk_timeout=2.0,
        retry_max=1,
        retry_backoff=0.25,
        migration_timeout=90.0,
        horizon=60.0,
    )
    env, cloud, vm = _build("our-approach", plan)
    dst_node = cloud.cluster.node(1)
    out, seen = {}, {}

    def migrator():
        yield env.timeout(1.0)
        out["record"] = yield cloud.migrate(vm, dst_node)

    def guest():
        yield env.timeout(1.815)
        dst = vm.manager
        assert vm.node is dst_node and dst.is_destination
        batch = np.array(sorted(dst._pull_inflight))
        seen["batch"] = batch
        # Overwrite one chunk of the stalled batch: its pull is cancelled
        # and the local copy is authoritative.
        yield from vm.write(int(batch[0]) * MB, MB)
        # Case 1 of Algorithm 4: wait for a chunk already being pulled.
        with pytest.raises(ChunkTransferStalled):
            yield from vm.read(int(batch[1]) * MB, MB)
        seen["pending"] = dst.pull_pending[batch].copy()
        seen["cancelled"] = dst._pull_cancelled[batch].copy()
        seen["pulled"] = dst.stats["pulled_chunks"]
        # Case 2: an on-demand pull of a chunk pending again stalls too,
        # and leaves it pending unless the guest overwrote it meanwhile.
        lost = int(batch[seen["pending"]][-1])
        with pytest.raises(ChunkTransferStalled):
            yield from vm.read(lost * MB, MB)
        seen["lost"] = (dst.pull_pending[lost], dst._pull_cancelled[lost])

    env.process(migrator())
    env.process(guest())
    env.run(until=plan.horizon)

    dst = vm.manager
    src = dst.peer
    batch = seen["batch"]
    assert batch.size == 8
    pending, cancelled = seen["lost"]
    assert pending != cancelled
    # The batch is pending again, minus the locally overwritten chunks.
    np.testing.assert_array_equal(seen["pending"], ~seen["cancelled"])
    assert not seen["pending"][0] and seen["pending"][1]
    # Prefetching stopped: the pull engine exited and nothing landed later.
    assert not dst._pull_proc.is_alive
    assert seen["pulled"] == dst.stats["pulled_chunks"] == 0
    assert env.probe.metrics.counter("pull.stalled.chunks").value >= batch.size
    # The source is never released; the migration neither completes nor
    # aborts (the guest already runs on the destination).
    assert "record" not in out
    record, = cloud.collector.records
    assert record.control_at is not None
    assert not record.aborted and record.released_at is None
    assert not src.release_event.triggered
    assert vm.node is dst_node and not vm.paused


def test_repo_outage_survived_by_retry_without_replication():
    """With replication=1 a stripe-server outage makes fetches fail hard;
    the bounded-retry fetch path must ride out a temporary outage."""
    spec = dict(CHAOS_SPEC, repo_replication=1)
    plan = FaultPlan(
        faults=[FaultSpec("repo-server-down", "node2", at=2.0, duration=6.0)],
        chunk_timeout=8.0,
        retry_max=6,
        retry_backoff=0.25,
        migration_timeout=120.0,
        horizon=600.0,
    )
    env = Environment()
    Observability(trace=False).install(env)
    cluster = Cluster(env, ClusterSpec(**spec))
    config = plan.apply_to(MigrationConfig(push_batch=8, pull_batch=8))
    cloud = CloudMiddleware(cluster, config=config)
    vm = cloud.deploy("vm0", cluster.node(0), approach="our-approach",
                      memory_size=256 * MB, working_set=64 * MB)
    # Reads over never-written chunks force repository fetches during the
    # outage window.
    reader = PacedReader(vm, total_bytes=96 * MB, rate=24e6, op_size=2 * MB,
                         region_offset=0, region_size=96 * MB, seed=3)
    reader.start()
    FaultInjector(env, cluster, plan).start()
    out = {}

    def migrator():
        yield env.timeout(1.0)
        out["record"] = yield cloud.migrate(vm, cluster.node(1))

    env.process(migrator())
    env.run(until=plan.horizon)

    record = out.get("record")
    assert record is not None and not record.aborted
    assert vm.node is cluster.node(1)
    assert env.probe.metrics.counter("repo.fetch.unavailable").value >= 1
    _check_content_clock(vm)
