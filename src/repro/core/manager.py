"""The migration manager: guest I/O interposition + migration plumbing.

This is the component Figure 1 of the paper draws with a dark background on
every compute node.  Under normal operation it

* serves guest **reads** from the local chunk store, lazily fetching
  never-touched base-image chunks from the shared repository
  (copy-on-reference), and
* absorbs guest **writes** into locally stored chunks, maintaining the
  ``ModifiedSet``.

During a live migration the manager on the source assumes the *source
role*, its freshly spawned twin on the destination the *destination role*,
and the subclass's strategy decides what moves when.  The hypervisor
(:mod:`repro.hypervisor.control`) drives the lifecycle::

    on_migration_request -> [memory pre-copy rounds] -> on_sync
      -> (downtime: on_downtime) -> control transfer
      -> on_control_transferred -> ... -> release_event

Chunk content versions: every guest write advances the VM-wide logical
content clock for the touched chunks; transfers carry version values, and
the destination only ever adopts a version newer than what it holds.  The
end-to-end correctness invariant (checked by the integration tests) is
that after migration the destination's version vector equals the VM's
content clock.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.core.config import MigrationConfig
from repro.netsim.flows import Fabric
from repro.obs.causal.record import annotate
from repro.simkernel.core import Environment, Event
from repro.storage.chunks import ChunkTransferStalled
from repro.storage.pagecache import PageCache
from repro.storage.virtualdisk import VirtualDisk

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import ComputeNode

__all__ = ["MigrationManager", "ChunkTransferStalled"]


class MigrationManager:
    """Base manager: local COW I/O path, no storage transfer on migration.

    Subclasses implement the Table 1 strategies by overriding the lifecycle
    hooks and, where the strategy changes the guest I/O path (mirror,
    pvfs-shared, on-demand pulls), the ``_absorb_write`` / ``_before_read``
    hooks.  They move chunks with :meth:`_ship` (source side) or
    :meth:`_batch_events` (any side) and send control messages through
    :meth:`_attempts`, the one bounded-retry step.
    """

    #: Short name as used in the paper's Table 1.
    name = "base"
    #: Human summary of the local storage transfer strategy (Table 1 text).
    strategy_summary = "No storage transfer (base manager)"
    #: Where the VM's disk lives: ``"local"`` (a chunk store on the
    #: compute node over the striped repository) or ``"pvfs"``.
    storage_placement = "local"
    #: Fraction of remotely-written bytes that additionally dirty guest
    #: memory (client cache churn); only the pvfs baseline sets this.
    write_memory_churn = 0.0
    #: Guest page-cache charges per migrated byte on the sending side:
    #: the read path at ``read_amplification`` x bytes, and, when
    #: ``write_amplification`` is non-zero, the write path at that many
    #: x bytes with fair-share ``write_weight``.  Only precopy's qcow2
    #: block migration amplifies.
    read_amplification = 1.0
    write_amplification = 0.0
    write_weight = 1.0

    def __init__(
        self,
        env: Environment,
        vm,
        node: "ComputeNode",
        vdisk: VirtualDisk,
        repo,
        fabric: Fabric,
        config: Optional[MigrationConfig] = None,
    ):
        self.env = env
        self.vm = vm
        self.node = node
        self.vdisk = vdisk
        self.repo = repo
        self.fabric = fabric
        self.config = config if config is not None else MigrationConfig()
        self.pagecache = PageCache(env, vm.read_bw, vm.write_bw)

        self.is_source = False
        self.is_destination = False
        #: Fires when the source is fully relinquished (= migration end).
        self.release_event = Event(env)
        self.peer: Optional["MigrationManager"] = None
        #: True on the source between MIGRATION_REQUEST and control transfer
        #: (the only period in which Algorithm 2 counts writes).
        self._count_writes = False
        #: The LiveMigration process driving this manager's migration
        #: (source side, pre-control only); :meth:`request_abort`
        #: interrupts it.
        self.migration_proc = None
        #: True while abort-and-restart is still safe (between
        #: MIGRATION_REQUEST and the stop-and-copy decision).
        self._abortable = False

    # -- convenience -----------------------------------------------------------
    @property
    def host(self):
        return self.node.host

    @property
    def chunks(self):
        return self.vdisk.chunks

    @property
    def chunk_size(self) -> int:
        return self.vdisk.chunk_size

    def spawn_peer(self, dst_node: "ComputeNode") -> "MigrationManager":
        """Create this manager's destination twin on ``dst_node``."""
        vdisk = self.vdisk.clone_geometry(dst_node.disk, name=f"{self.vm.name}@dst")
        peer = type(self)(
            self.env,
            self.vm,
            dst_node,
            vdisk,
            self.repo,
            self.fabric,
            self.config,
        )
        peer.peer = self
        self.peer = peer
        return peer

    # -- failure semantics ---------------------------------------------------------
    def request_abort(self, cause: str) -> bool:
        """Abort the in-flight migration (source side, pre-control only).

        Engines call this after exhausting their bounded retries; the
        hypervisor's watchdog calls it when the pre-control phase is
        stuck.  The interrupt lands in the LiveMigration process, which
        cancels the migration and leaves the VM running on the source.
        Returns ``False`` when aborting is not possible (no migration in
        flight, or already past the stop-and-copy point of no return).
        """
        proc = self.migration_proc
        if not (self.is_source and self._abortable):
            return False
        if proc is None or not proc.is_alive:
            return False
        self._abortable = False
        p = self.env.probe
        if p.enabled:
            p.abort_requested(self.vm.name, cause)
        proc.interrupt(cause)
        return True

    def _attempts(self, make, label: str) -> Generator:
        """Deliver what ``make()`` builds under the chunk timeout, with
        bounded retry.

        ``make`` builds the attempt afresh every time: a list is a
        pipelined transfer batch (fabric transfers, disk loads,
        page-cache charges) joined by ``all_of``, a single event a
        control message.  With the default infinite ``chunk_timeout``
        this yields exactly the bare event(s), with no timer, so
        fault-free runs stay byte-identical.  Otherwise a timed-out
        attempt (a batch's stuck flows are cancelled; a message to a
        crashed or partitioned host is black-holed in transit) backs off
        exponentially and retries up to ``retry_max`` times.  Returns
        ``True`` on delivery, ``False`` when the budget is exhausted.
        """
        cfg = self.config
        env = self.env
        if cfg.chunk_timeout == float("inf"):
            made = make()
            if isinstance(made, list):
                made = made[0] if len(made) == 1 else env.all_of(made)
            yield made
            return True
        delay = cfg.retry_backoff
        for attempt in range(cfg.retry_max + 1):
            # Re-sent bytes are waste the first attempt already paid for;
            # attribute them to the retry, not the strategy.
            with (self.fabric.cause_scope(f"retry.{label}") if attempt
                  else nullcontext()):
                made = make()
            batch = isinstance(made, list)
            done = env.all_of(made) if batch else made
            stall = annotate(env, env.timeout(cfg.chunk_timeout),
                             "stall.chunk_timeout", label=label)
            yield env.any_of([done, stall])
            if done.triggered:
                return True
            if batch:
                for ev in made:
                    self.fabric.cancel(ev)
            p = env.probe
            if p.enabled:
                p.transfer_timeout(
                    self.vm.name,
                    "transfer.timeout" if batch else "message.timeout",
                    label, attempt)
            if attempt == cfg.retry_max:
                return False
            if p.enabled:
                p.transfer_retry(self.vm.name, label, attempt, delay)
            yield annotate(env, env.timeout(delay), "retry.backoff",
                           label=label)
            delay *= 2

    def _batch_events(self, dst: "MigrationManager", batch: np.ndarray,
                      tag: str, cause: str, weight: float = 1.0) -> list:
        """One attempt at moving ``batch`` from this manager to ``dst``.

        The bytes traverse this side's disk (warm chunks come from the
        host cache) and guest read path (plus write path under write
        amplification), the fabric, and ``dst``'s guest write path.  The
        stages pipeline, so the batch completes with the slowest;
        arriving data is cache-absorbed and written back lazily.
        """
        nbytes = float(batch.size * self.chunk_size)
        events = [self.vdisk.load(batch),
                  self.pagecache.read(nbytes * self.read_amplification)]
        if self.write_amplification:
            events.append(self.pagecache.write(
                nbytes * self.write_amplification, weight=self.write_weight))
        events.append(self.fabric.transfer(self.host, dst.host, nbytes,
                                           tag=tag, weight=weight,
                                           cause=cause))
        events.append(dst.pagecache.write(nbytes))
        return events

    def _ship(self, batch: np.ndarray, label: str,
              abort_cause: str) -> Generator:
        """Push ``batch`` to the destination twin before control transfer.

        Returns ``True`` once the destination adopted the batch.  Returns
        ``False`` when the migration was cancelled before or during the
        batch (the payload is dropped) or when the batch stalled past its
        retry budget (the migration is aborted with ``abort_cause``); the
        sender stops.
        """
        peer = self.peer
        if peer is None:
            return False  # cancelled while the sender waited (precopy's fetch)
        versions = self.chunks.version[batch].copy()
        ok = yield from self._attempts(
            lambda: self._batch_events(peer, batch, "storage-push", "push"),
            label,
        )
        if self.peer is not peer:
            return False
        if not ok:
            self.request_abort(abort_cause)
            return False
        peer.receive_chunks(batch, versions)
        peer.vdisk.disk.touch(batch)
        return True

    def _repo_fetch(self, chunk_ids: np.ndarray, tag: str = "repo-fetch") -> Generator:
        """Repository fetch with bounded retry over transient failures.

        Fault-free this yields exactly the event ``repo.fetch`` returns.
        When every live replica of a chunk is down the fetch is retried
        with exponential back-off until ``retry_max`` is exhausted, then
        the final :class:`RepositoryUnavailable` propagates.
        """
        from repro.repository.blobseer import RepositoryUnavailable

        cfg = self.config
        delay = cfg.retry_backoff
        attempt = 0
        while True:
            try:
                with (self.fabric.cause_scope(f"retry.{tag}") if attempt
                      else nullcontext()):
                    ev = self.repo.fetch(chunk_ids, self.host, tag=tag,
                                         cause="repo.fetch")
            except RepositoryUnavailable:
                p = self.env.probe
                if p.enabled:
                    p.repo_unavailable(gave_up=attempt >= cfg.retry_max)
                if attempt >= cfg.retry_max:
                    raise
                if p.enabled:
                    p.transfer_retry(self.vm.name, tag, attempt, delay)
                yield annotate(self.env, self.env.timeout(delay),
                               "retry.backoff", label=tag)
                delay *= 2
                attempt += 1
                continue
            yield ev
            return

    # -- guest I/O path ----------------------------------------------------------
    def read(self, offset: int, nbytes: int) -> Generator:
        """Guest read (Algorithm 4 in the hybrid subclass)."""
        span = self.chunks.chunk_span(offset, nbytes)
        yield from self._before_read(span)
        missing = self.chunks.missing_in(span)
        if missing.size:
            # Copy-on-reference: base-image chunks come from the repository
            # and land in the host page cache (write-back persists them to
            # the local disk asynchronously).
            p = self.env.probe
            if p.enabled:
                p.cor_fetch(int(missing.size))
            yield from self._repo_fetch(missing)
            self.chunks.record_fetch(missing)
            self.vdisk.disk.touch(missing)
        yield self.pagecache.read(nbytes)
        self.vdisk.disk.touch(span)
        self.vm.note_read(nbytes)

    def write(self, offset: int, nbytes: int) -> Generator:
        """Guest write (Algorithm 2 in the hybrid subclass)."""
        span = self.chunks.chunk_span(offset, nbytes)
        partial = self._partial_chunks(offset, nbytes, span)
        missing_partials = self.chunks.missing_in(partial)
        if missing_partials.size:
            # Read-modify-write: a partial write into a never-seen chunk
            # needs the chunk's base content first.
            yield from self._repo_fetch(missing_partials)
            self.chunks.record_fetch(missing_partials)
        yield from self._absorb_write(span, nbytes)
        versions = self.vm.bump_content(span)
        self.chunks.record_write(span, count_writes=self._count_writes)
        self.chunks.version[span] = versions
        self.vdisk.disk.touch(span)
        self.vm.note_write(nbytes)
        p = self.env.probe
        if p.enabled:
            p.guest_write(self.vm.name, int(span.size))
        yield from self._after_write(span, nbytes)

    def _partial_chunks(
        self, offset: int, nbytes: int, span: np.ndarray
    ) -> np.ndarray:
        """Chunks in ``span`` only partially covered by the write."""
        if span.size == 0 or nbytes == 0:
            return span[:0]
        cs = self.chunk_size
        partial = []
        if offset % cs != 0:
            partial.append(span[0])
        end = offset + nbytes
        if end % cs != 0 and (span.size > 1 or not partial):
            if span[-1] not in partial:
                partial.append(span[-1])
        return np.asarray(partial, dtype=np.intp)

    # -- strategy hooks on the I/O path -------------------------------------------
    def _before_read(self, span: np.ndarray) -> Generator:
        """Subclass hook: runs before presence is checked (on-demand pull)."""
        return
        yield  # pragma: no cover

    def _absorb_write(self, span: np.ndarray, nbytes: int) -> Generator:
        """Subclass hook: how a guest write's data lands (default: local
        page-cache absorption at the guest write ceiling)."""
        yield self.pagecache.write(nbytes)

    def _after_write(self, span: np.ndarray, nbytes: int) -> Generator:
        """Subclass hook: post-write bookkeeping (push requeue, mirroring)."""
        return
        yield  # pragma: no cover

    # -- migration lifecycle (driven by the hypervisor) ----------------------------
    def on_migration_request(self, dst_node: "ComputeNode") -> Generator:
        """MIGRATION_REQUEST on the source (Algorithm 1).

        The base manager spawns the destination twin and notifies it; no
        storage moves (the pvfs-shared behaviour).
        """
        peer = self.spawn_peer(dst_node)
        self.is_source = True
        peer.is_destination = True
        yield self.fabric.message(self.host, peer.host, tag="control",
                                  cause="control")

    def ready_for_control(self) -> bool:
        """May the hypervisor enter the stop-and-copy phase?"""
        return True

    def on_sync(self) -> Generator:
        """The hypervisor's ``sync`` just before downtime (Section 4.4)."""
        self._count_writes = False
        return
        yield  # pragma: no cover

    def on_downtime(self) -> Generator:
        """Runs while the VM is paused (final storage flush for pre-copy)."""
        return
        yield  # pragma: no cover

    def on_control_transferred(self) -> Generator:
        """Runs right after the VM resumed on the destination.

        The base behaviour releases the source immediately (approaches
        whose storage is already consistent at control transfer).
        """
        if not self.release_event.triggered:
            self.release_event.succeed(self.env.now)
        return
        yield  # pragma: no cover

    def cancel_migration(self) -> None:
        """Abort an in-progress migration on the source side.

        Called when the destination fails (or the middleware withdraws
        the request) *before* control transfer: background engines stop,
        the source keeps serving its VM as if nothing happened, and the
        half-populated destination twin is discarded.  Post-control
        cancellation is not possible — the VM already runs on the
        destination (the safety trade-off Section 6 discusses).
        """
        if self.is_destination:
            raise RuntimeError("cannot cancel from the destination side")
        self._count_writes = False
        self.is_source = False
        self.peer = None
        self._abortable = False
        self.migration_proc = None

    # -- data-plane receive helpers --------------------------------------------
    def receive_chunks(self, chunk_ids: np.ndarray, versions: np.ndarray) -> None:
        """Adopt pushed chunk contents, never regressing a newer version.

        Chunks whose incoming version is not newer still become locally
        present (unwritten base-image content pushed by a full-image
        migrator carries version 0).
        """
        chunk_ids = np.asarray(chunk_ids, dtype=np.intp)
        newer = versions > self.chunks.version[chunk_ids]
        take = chunk_ids[newer]
        p = self.env.probe
        if p.enabled:
            p.chunks_adopted(int(take.size), int(chunk_ids.size - take.size))
        if take.size:
            self.chunks.adopt_versions(take, versions[newer])
            # Adopted content with a non-zero version diverges from the
            # base image: it belongs to this side's ModifiedSet, so a
            # *future* migration from here transfers it onward.
            self.chunks.modified[take] = True
        rest = chunk_ids[~newer]
        if rest.size:
            self.chunks.record_fetch(rest)

    def __repr__(self) -> str:
        role = (
            "source"
            if self.is_source
            else ("destination" if self.is_destination else "idle")
        )
        return f"<{type(self).__name__} vm={self.vm.name} node={self.node.name} {role}>"
