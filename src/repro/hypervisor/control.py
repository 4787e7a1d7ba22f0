"""Live migration orchestration.

Implements the time-line of the paper's Figure 2 from the hypervisor's
perspective.  Storage and memory proceed **concurrently and
independently**: the storage strategy's push/sync processes run on their
own, the memory strategy iterates its rounds, and both only meet at the
``sync`` barrier right before the stop-and-copy downtime — exactly the
transparency contract of Section 4.1.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.hypervisor.memory import MemoryStats, PrecopyMemory
from repro.metrics.collector import MetricsCollector, MigrationRecord
from repro.netsim.flows import Fabric
from repro.simkernel.core import Environment
from repro.storage.chunks import ChunkTransferStalled

__all__ = ["LiveMigration"]


class LiveMigration:
    """One live migration of ``vm`` to ``dst_node``.

    Run it as a process::

        done = env.process(LiveMigration(env, fabric, vm, dst_node, collector).run())
        record = yield done
    """

    #: Device state (CPU registers, NIC buffers, ...) moved while paused —
    #: "typically comprises a minimal amount of information" (Section 2),
    #: but it is what puts the floor under the downtime.
    DEVICE_STATE_BYTES = 1 * 2**20

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        vm,
        dst_node,
        collector: MetricsCollector,
        memory: Optional[object] = None,
    ):
        self.env = env
        self.fabric = fabric
        self.vm = vm
        self.dst_node = dst_node
        self.collector = collector
        self.memory = memory if memory is not None else PrecopyMemory()

    def run(self) -> Generator:
        env = self.env
        vm = self.vm
        src_node = vm.node
        src_mgr = vm.manager
        if src_node is self.dst_node:
            raise ValueError("source and destination must differ")

        record: MigrationRecord = self.collector.migration_requested(
            vm.name, src_node.name, self.dst_node.name, env.now
        )
        src_host = src_node.host
        dst_host = self.dst_node.host
        stats = MemoryStats()

        from repro.simkernel.events import Interrupt

        # Register this process as the abort target: engines that exhaust
        # their retry budget (and the watchdog below) interrupt it while
        # aborting is still safe.
        cfg = src_mgr.config
        src_mgr.migration_proc = env.active_process
        src_mgr._abortable = True
        watchdog = None
        if cfg.migration_timeout != float("inf"):

            def deadline():
                try:
                    yield env.timeout(cfg.migration_timeout)
                except Interrupt:
                    return
                src_mgr.request_abort(
                    f"pre-control phase exceeded {cfg.migration_timeout:g}s"
                )

            watchdog = env.process(deadline(), name=f"mig-watchdog:{vm.name}")

        try:
            # MIGRATION_REQUEST: storage strategy sets up its destination
            # twin and (strategy-dependent) starts pushing in the background.
            yield from src_mgr.on_migration_request(self.dst_node)
            setup_done = env.now
            record.add_phase("request/setup", record.requested_at, setup_done)

            # Memory pre-copy rounds, concurrent with the storage push.
            residual = yield from self.memory.pre_control(
                env, self.fabric, vm, src_host, dst_host, src_mgr, stats
            )
            pre_control_done = env.now
            record.add_phase("memory + push", setup_done, pre_control_done)

            # The hypervisor's sync right before control transfer: the
            # storage layer stops pushing and hands over what it needs to.
            yield from src_mgr.on_sync()
            record.add_phase("sync", pre_control_done, env.now)
        except Interrupt as intr:
            # Abort before control transfer (destination failure or a
            # withdrawn request): the VM never stopped running on the
            # source; discard the half-populated destination.
            self._abort(src_mgr, record, stats, intr.cause)
            self._disarm(src_mgr, watchdog)
            return record

        # Point of no return: the stop-and-copy starts, and nothing
        # interrupts the migration any more.  Only a storage hand-over that
        # stalls inside the downtime still aborts it, below.
        self._disarm(src_mgr, watchdog)

        # Stop-and-copy downtime: quiesce in-flight guest I/O (QEMU's
        # bdrv_drain_all), then move residual memory + device state.
        vm.pause()
        pause_at = env.now
        yield from vm.drain_io()
        downtime_bytes = (residual or 0) + self.DEVICE_STATE_BYTES
        yield self.fabric.transfer(src_host, dst_host, downtime_bytes,
                                   tag="memory", cause="memory")
        stats.bytes_sent += downtime_bytes
        try:
            yield from src_mgr.on_downtime()
        except ChunkTransferStalled as stalled:
            # The storage hand-over could not reach the destination.
            # Control has not moved yet, so the guest resumes on the
            # source and the attempt is recorded as aborted.
            record.add_phase("downtime", pause_at, env.now)
            self._abort(src_mgr, record, stats, stalled)
            vm.resume()
            return record

        # Control transfer: the guest resumes on the destination.
        vm.relocate(self.dst_node, src_mgr.peer if src_mgr.peer is not None else src_mgr)
        vm.resume()
        record.control_at = env.now
        record.downtime = env.now - pause_at
        record.add_phase("downtime", pause_at, env.now)
        record.memory_rounds = stats.rounds
        record.memory_bytes = stats.bytes_sent

        # Post-control work: storage prefetch/pull and (for post-copy
        # memory) the background memory transfer.
        yield from src_mgr.on_control_transferred()
        yield from self.memory.post_control(
            env, self.fabric, vm, src_host, dst_host, stats
        )

        # The migration ends when the source is relinquished.
        yield src_mgr.release_event
        record.released_at = env.now
        record.memory_bytes = stats.bytes_sent
        if record.released_at > record.control_at:
            record.add_phase("pull / post-control", record.control_at, env.now)
        self._report(record, stats)
        return record

    def _abort(self, src_mgr, record: MigrationRecord, stats: MemoryStats,
               cause) -> None:
        """Abandon the attempt before control moved: the source discards
        the destination twin, and the record reports an abort by
        ``cause``."""
        src_mgr.cancel_migration()
        record.aborted = True
        record.abort_cause = str(cause) if cause is not None else None
        record.memory_rounds = stats.rounds
        record.memory_bytes = stats.bytes_sent
        self._report(record, stats)

    def _disarm(self, src_mgr, watchdog) -> None:
        """Leave the abortable window and stop the watchdog."""
        src_mgr._abortable = False
        src_mgr.migration_proc = None
        if watchdog is not None and watchdog.is_alive:
            watchdog.interrupt("migration left the pre-control phase")

    def _report(self, record: MigrationRecord, stats: MemoryStats) -> None:
        """Report the finished record through the probe."""
        p = self.env.probe
        if p.enabled:
            p.migration_record(record, stats)
