"""``our-approach``: hybrid active push / prioritized prefetch (Section 4).

Source side (Algorithms 1-2):

* On MIGRATION_REQUEST, ``RemainingSet <- ModifiedSet``, all write counts
  reset, and BACKGROUND_PUSH starts shipping chunks whose
  ``WriteCount < Threshold`` to the destination.
* A write re-queues the chunk and bumps its write count; once the count
  reaches ``Threshold`` the chunk is *hot* and is skipped by the push (it
  will be prefetched later) — each chunk therefore crosses the wire at most
  ``Threshold`` times before control transfer.

Transfer of control (Algorithm 3):

* ``on_sync`` (the hypervisor's ``sync`` right before downtime) stops the
  push and sends TRANSFER_IO_CONTROL with the remaining chunk list and
  write counts; the source turns passive.

Destination side (Algorithms 3-4):

* BACKGROUND_PULL prefetches the remaining chunks in decreasing write-count
  order (hot chunks are the likeliest to be read soon).
* A guest read of a not-yet-pulled chunk suspends the background pull and
  fetches the chunk with priority; a guest write cancels the chunk's pull
  outright (its content is dead).
* When the remaining set drains, the source is released — that moment ends
  the migration-time clock.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.chunkqueue import ChunkQueue, take_valid
from repro.core.manager import ChunkTransferStalled, MigrationManager
from repro.simkernel.core import Event
from repro.simkernel.events import Interrupt

__all__ = ["HybridManager", "FATE_NAMES"]

#: Final transfer fate of a chunk (destination side, last writer wins).
#: 0 = never transferred; the rest feed the write-count × fate heatmap
#: that explains the Threshold cutoff (repro.obs.analyze.heatmap).
_FATE_PUSHED = 1
_FATE_PREFETCHED = 2
_FATE_ONDEMAND = 3
_FATE_CANCELLED = 4
FATE_NAMES = {
    _FATE_PUSHED: "pushed",
    _FATE_PREFETCHED: "prefetched",
    _FATE_ONDEMAND: "ondemand",
    _FATE_CANCELLED: "cancelled",
}
#: Write counts at or above the cap share one "N+" heatmap row.
_WC_CAP = 8


class HybridManager(MigrationManager):
    """The paper's hybrid push/prefetch migration manager."""

    name = "our-approach"
    strategy_summary = "Active push below Threshold, then prioritized prefetch"
    #: Class-level knob so PostcopyManager can disable the push phase while
    #: sharing every other code path (exactly how the paper builds its
    #: postcopy baseline from this implementation).
    push_enabled = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        n = self.chunks.n_chunks
        # Source-side state.
        self.remaining = np.zeros(n, dtype=bool)
        self._push_proc = None
        self._push_stop = False
        self._push_wakeup: Event | None = None
        # Incremental push candidate queue: seeded with the eligible set at
        # MIGRATION_REQUEST, fed by write re-queues, consumed by the push
        # loop.  Invariant: every eligible chunk (remaining & cold) is
        # queued, so a take() that comes up empty means nothing to push.
        self._push_queue: ChunkQueue | None = None
        # Destination-side state.
        self.pull_pending = np.zeros(n, dtype=bool)
        self._pull_order_wc: np.ndarray | None = None
        # Precomputed prefetch order + consume cursor ("fifo"/"writecount"
        # policies; "random" reshuffles per wakeup and keeps the rescan).
        self._pull_order: np.ndarray | None = None
        self._pull_pos = 0
        self._pull_inflight: dict[int, Event] = {}
        self._pull_cancelled = np.zeros(n, dtype=bool)
        self._ondemand_depth = 0
        self._pull_resume: Event | None = None
        self._pull_proc = None
        #: Destination-side per-chunk transfer fate (see FATE_NAMES).
        self._fate = np.zeros(n, dtype=np.int8)
        #: Push/pull engine statistics (exposed for tests and ablations).
        self.stats = {
            "pushed_chunks": 0,
            "pulled_chunks": 0,
            "ondemand_chunks": 0,
            "skipped_hot_chunks": 0,
            "cancelled_pulls": 0,
        }

    # ------------------------------------------------------------------ source
    def on_migration_request(self, dst_node) -> Generator:
        """Algorithm 1: become the source, start BACKGROUND_PUSH."""
        peer = self.spawn_peer(dst_node)
        self.is_source = True
        peer.is_destination = True
        self.chunks.reset_write_counts()
        self._count_writes = True
        self.remaining = self.chunks.modified.copy()
        self._push_queue = ChunkQueue(np.flatnonzero(self.remaining))
        p = self.env.probe
        if p.enabled:
            p.push_start(self.vm.name, self.remaining, self.config.threshold)
        # MIGRATION_NOTIFICATION to the destination.
        yield self.fabric.message(self.host, peer.host, tag="control",
                                  cause="control")
        if self.push_enabled:
            self._push_stop = False
            self._push_proc = self.env.process(
                self._background_push(), name=f"push:{self.vm.name}"
            )

    def _next_push_batch(self) -> np.ndarray:
        """Consume the next eligible push batch from the candidate queue.

        Equivalent to ``flatnonzero(remaining & cold)[:push_batch]`` — the
        queue holds ascending ids and take() re-checks eligibility — but
        examines only ~batch-size entries instead of the whole bitmap.
        """
        queue = self._push_queue
        assert queue is not None
        remaining = self.remaining
        wc = self.chunks.write_count
        threshold = self.config.threshold
        batch, examined = queue.take(
            self.config.push_batch,
            lambda cand: remaining[cand] & (wc[cand] < threshold),
        )
        p = self.env.probe
        if p.enabled:
            p.push_scan(examined, int(batch.size))
        return batch

    def _background_push(self) -> Generator:
        """Algorithm 1's BACKGROUND_PUSH, batched."""
        while True:
            if self._push_stop:
                return
            batch = self._next_push_batch()
            if batch.size == 0:
                self._push_wakeup = self.env.probe.causal_tag(
                    self.env.event(), "idle.push_wait")
                try:
                    yield self._push_wakeup
                except Interrupt:
                    return
                continue
            # Removed from RemainingSet at send time; a concurrent write
            # re-queues the chunk (Algorithm 2 line 10).
            self.remaining[batch] = False
            peer = self.peer
            t0 = self.env.now
            if not (yield from self._ship(
                    batch, "push",
                    "push batch stalled past its retry budget")):
                return
            peer._fate[batch] = _FATE_PUSHED
            self.stats["pushed_chunks"] += int(batch.size)
            p = self.env.probe
            if p.enabled:
                p.push_batch(self.vm.name, t0, int(batch.size),
                             float(batch.size * self.chunk_size),
                             self.remaining)

    def _notify_push(self) -> None:
        if self._push_wakeup is not None and not self._push_wakeup.triggered:
            self._push_wakeup.succeed()
            self._push_wakeup = None

    def _after_write(self, span: np.ndarray, nbytes: int) -> Generator:
        """Algorithm 2, source part: re-queue written chunks and notify."""
        if self.is_source and self._count_writes:
            self.remaining[span] = True
            hot = self.chunks.write_count[span] >= self.config.threshold
            n_hot = int(hot.sum())
            self.stats["skipped_hot_chunks"] += n_hot
            if self._push_queue is not None and n_hot < span.size:
                # Re-queue the still-cold chunks; hot ones are excluded
                # for good (write counts never decrease mid-migration).
                self._push_queue.push(span if n_hot == 0 else span[~hot])
            p = self.env.probe
            if p.enabled:
                p.push_requeue(self.vm.name, self.remaining, n_hot)
            self._notify_push()
        if self.is_destination:
            self._cancel_pulls(span)
        return
        yield  # pragma: no cover

    def on_sync(self) -> Generator:
        """Stop the push engine.  Writes may still be draining, so the
        remaining set is NOT snapshotted yet — ``_count_writes`` stays on
        and late writes keep re-queueing themselves (Algorithm 2)."""
        p = self.env.probe
        if p.enabled:
            p.push_stop(self.vm.name, self.remaining,
                        self._remaining_write_count_cells)
        self._push_stop = True
        self._notify_push()
        if self._push_proc is not None and self._push_proc.is_alive:
            yield self._push_proc

    def on_downtime(self) -> Generator:
        """VM paused and I/O drained: send TRANSFER_IO_CONTROL with the
        now-final remaining chunk list and write counts (Algorithm 3)."""
        self._count_writes = False
        remaining_ids = np.flatnonzero(self.remaining)
        p = self.env.probe
        if p.enabled:
            p.transfer_io_control(self.vm.name, int(remaining_ids.size))
        # The chunk list + write counts travel as a control message
        # (8 bytes of id + 8 of count per entry).
        ok = yield from self._attempts(
            lambda: self.fabric.message(
                self.host, self.peer.host,
                nbytes=16.0 * remaining_ids.size + 512,
                tag="control", cause="control"),
            "transfer-io-control",
        )
        if not ok:
            raise ChunkTransferStalled(
                "TRANSFER_IO_CONTROL undeliverable: destination unreachable "
                "during downtime"
            )
        self.peer._install_pull_set(
            remaining_ids, self.chunks.write_count[remaining_ids].copy()
        )

    def on_control_transferred(self) -> Generator:
        """Source is passive; destination starts BACKGROUND_PULL."""
        peer = self.peer
        assert peer is not None
        peer._start_pull()
        # The source is relinquished when the destination drained the set.
        return
        yield  # pragma: no cover

    def cancel_migration(self) -> None:
        """Stop the push engine and forget the migration state."""
        self._push_stop = True
        self._notify_push()
        if self._push_proc is not None and self._push_proc.is_alive:
            # The engine exits at its next checkpoint; detach regardless.
            self._push_proc = None
        self.remaining[:] = False
        self._push_queue = None
        super().cancel_migration()

    # -------------------------------------------------------------- destination
    def _install_pull_set(self, chunk_ids: np.ndarray, write_counts: np.ndarray) -> None:
        """TRANSFER_IO_CONTROL receive side (Algorithm 3)."""
        self.pull_pending[:] = False
        self.pull_pending[chunk_ids] = True
        wc = np.zeros(self.chunks.n_chunks, dtype=np.int64)
        wc[chunk_ids] = write_counts
        self._pull_order_wc = wc
        self._rebuild_pull_queue(chunk_ids)
        p = self.env.probe
        if p.enabled:
            p.prefetch_queue(self.vm.name, int(chunk_ids.size))

    def _rebuild_pull_queue(self, pending_ids: np.ndarray | None = None) -> None:
        """Materialize the prefetch order for the current pending set.

        The pending set only shrinks between rebuilds (pulls, local
        writes), and dropping entries from a sorted order preserves it, so
        the order is computed once here and consumed with a cursor.  The
        only path that re-adds pending chunks — a stalled pull batch —
        rebuilds.  The "random" policy reshuffles per wakeup (its rng is
        keyed on in-flight state) and keeps the legacy full rescan.
        """
        policy = self.config.prefetch_policy
        if policy == "random":
            self._pull_order = None
            self._pull_pos = 0
            return
        if pending_ids is None:
            pending_ids = np.flatnonzero(self.pull_pending)
        if policy == "writecount":
            assert self._pull_order_wc is not None
            # Decreasing write count; stable on chunk index for determinism.
            order = np.argsort(-self._pull_order_wc[pending_ids], kind="stable")
            pending_ids = pending_ids[order]
        # "fifo": natural chunk-index order.
        self._pull_order = pending_ids
        self._pull_pos = 0

    def _start_pull(self) -> None:
        self._pull_proc = self.env.process(
            self._background_pull(), name=f"pull:{self.vm.name}"
        )

    def _pull_priority_batch(self) -> np.ndarray:
        """Next prefetch batch under the configured policy."""
        p = self.env.probe
        order = self._pull_order
        if order is None:
            # Legacy rescan, kept for the "random" ablation policy only.
            pending = np.flatnonzero(self.pull_pending)
            if p.enabled:
                p.pull_scan(int(self.pull_pending.size), self.pull_pending)
            if pending.size == 0:
                return pending
            rng = np.random.default_rng(
                self.config.seed + len(self._pull_inflight)
            )
            pending = rng.permutation(pending)
            return pending[: self.config.pull_batch]
        pull_pending = self.pull_pending
        batch, self._pull_pos, examined = take_valid(
            order, self._pull_pos, self.config.pull_batch,
            lambda cand: pull_pending[cand],
        )
        if p.enabled:
            p.pull_scan(examined, pull_pending)
        return batch

    def _background_pull(self) -> Generator:
        """Algorithm 3's BACKGROUND_PULL with suspension for on-demand reads."""
        while True:
            if self._ondemand_depth > 0:
                # Algorithm 4: suspended while a priority read is in flight.
                self._pull_resume = self.env.probe.causal_tag(
                    self.env.event(), "stall.ondemand_suspend")
                yield self._pull_resume
                continue
            batch = self._pull_priority_batch()
            if batch.size == 0:
                if self._pull_inflight:
                    yield self.env.all_of(list(self._pull_inflight.values()))
                    continue
                break
            t0 = self.env.now
            ok = yield from self._pull(batch, weight=1.0, cause="prefetch")
            if not ok:
                # The source became unreachable after control transfer —
                # the unsafe corner of the scheme (paper, Section 6).
                # Stop prefetching: the source is never released, and
                # on-demand reads surface the failure loudly.
                return
            self.stats["pulled_chunks"] += int(batch.size)
            p = self.env.probe
            if p.enabled:
                p.prefetch_batch(self.vm.name, t0, batch,
                                 self._pull_order_wc, self.pull_pending)
        yield from self._finish_migration()

    def _pull(self, batch: np.ndarray, weight: float,
              cause: str = "prefetch") -> Generator:
        """Pull ``batch`` from the passive source.

        ``cause`` attributes the moved bytes: ``prefetch`` for the
        background engine, ``pull.demand`` for priority reads.

        Returns ``True`` when the data landed, ``False`` when the
        request or the transfer stalled past the retry budget (source
        unreachable after control transfer).  On ``False`` the batch is
        re-marked pending (minus locally overwritten chunks) and waiting
        readers are released — the callers decide how to surface it.
        """
        src = self.peer
        assert src is not None
        self.pull_pending[batch] = False
        arrival = Event(self.env)
        for c in batch:
            self._pull_inflight[int(c)] = arrival
        # Pull request (control), then the pipelined data path from the
        # passive source.
        ok = yield from self._attempts(
            lambda: self.fabric.message(self.host, src.host, tag="control",
                                        cause="control"),
            "pull-request",
        )
        if ok:
            ok = yield from self._attempts(
                lambda: src._batch_events(self, batch, "storage-pull", cause,
                                          weight),
                "pull",
            )
        if not ok:
            self._pull_failed(batch, arrival)
            return False
        self.vdisk.disk.touch(batch)
        # Adopt everything that was not overwritten locally in the meantime.
        alive = batch[~self._pull_cancelled[batch]]
        self.stats["cancelled_pulls"] += int(batch.size - alive.size)
        if alive.size:
            self.receive_chunks(alive, src.chunks.version[alive].copy())
            self._fate[alive] = (
                _FATE_ONDEMAND if cause == "pull.demand" else _FATE_PREFETCHED
            )
        for c in batch:
            self._pull_inflight.pop(int(c), None)
        arrival.succeed()
        return True

    def _pull_failed(self, batch: np.ndarray, arrival: Event) -> None:
        """Bookkeeping for a stalled pull: re-mark the batch pending
        (except chunks overwritten locally) and release waiting reads."""
        p = self.env.probe
        if p.enabled:
            p.pull_stalled(self.vm.name, int(batch.size))
        self.pull_pending[batch] = ~self._pull_cancelled[batch]
        # The cursor already passed these ids; rebuild the order so the
        # re-marked chunks are prefetched again (rare fault path).
        self._rebuild_pull_queue()
        for c in batch:
            self._pull_inflight.pop(int(c), None)
        arrival.succeed()

    def _cancel_pulls(self, span: np.ndarray) -> None:
        """Algorithm 2, destination part: a write kills the chunk's pull."""
        p = self.env.probe
        if p.enabled:
            p.pulls_cancelled(span, self.pull_pending)
        self._fate[span[self.pull_pending[span]]] = _FATE_CANCELLED
        self.pull_pending[span] = False
        self._pull_cancelled[span] = True

    def _resume_pull(self) -> None:
        if self._pull_resume is not None and not self._pull_resume.triggered:
            self._pull_resume.succeed()
            self._pull_resume = None

    def _before_read(self, span: np.ndarray) -> Generator:
        """Algorithm 4: priority handling for reads of remaining chunks."""
        if not self.is_destination:
            return
        # Case 1: wait for chunks already being pulled.
        inflight = [
            self._pull_inflight[int(c)] for c in span if int(c) in self._pull_inflight
        ]
        # Case 2: on-demand pull for still-pending chunks.
        needed = span[self.pull_pending[span]]
        if needed.size:
            self._ondemand_depth += 1
            t0 = self.env.now
            try:
                ok = yield from self._pull(
                    needed, weight=self.config.ondemand_weight,
                    cause="pull.demand",
                )
                if not ok:
                    raise ChunkTransferStalled(
                        f"on-demand pull of {int(needed.size)} chunk(s) "
                        "stalled: source unreachable after control transfer"
                    )
                self.stats["ondemand_chunks"] += int(needed.size)
                p = self.env.probe
                if p.enabled:
                    p.pull_demand(self.vm.name, t0, int(needed.size))
            finally:
                self._ondemand_depth -= 1
                if self._ondemand_depth == 0:
                    self._resume_pull()
        for ev in inflight:
            if not ev.processed:
                yield ev
        if inflight and self.pull_pending[span].any():
            # A pull this read waited on stalled and re-marked its chunks
            # pending: the data never arrived, so the read must not fall
            # through to the base image.
            raise ChunkTransferStalled(
                "prefetch of a chunk this read waited on stalled: source "
                "unreachable after control transfer"
            )

    def _remaining_write_count_cells(self) -> list[list]:
        """Write-count histogram over the remaining set, as
        ``[write_count, "remaining", chunks]`` cells (counts at or above
        ``_WC_CAP`` share one row)."""
        wc = np.minimum(self.chunks.write_count[self.remaining], _WC_CAP)
        counts = np.bincount(wc, minlength=_WC_CAP + 1)
        return [[w, "remaining", int(n)] for w, n in enumerate(counts) if n]

    def _chunk_fate_cells(self, src: "HybridManager") -> list[list]:
        """Aggregate (write count × transfer fate) over transferred chunks.

        Write counts are the source's Algorithm 2 counts (what the
        Threshold compares against); counts at or above ``_WC_CAP`` fold
        into one "N+" row.  Returns deterministic sorted
        ``[write_count, fate, chunks]`` cells.
        """
        mask = self._fate != 0
        ids = np.flatnonzero(mask)
        if ids.size == 0:
            return []
        wc = np.minimum(src.chunks.write_count[ids], _WC_CAP)
        cells: dict[tuple[int, str], int] = {}
        for w, f in zip(wc, self._fate[ids]):
            key = (int(w), FATE_NAMES[int(f)])
            cells[key] = cells.get(key, 0) + 1
        return [[w, name, n] for (w, name), n in sorted(cells.items())]

    def _finish_migration(self) -> Generator:
        """All chunks local: notify the source it can be relinquished."""
        src = self.peer
        assert src is not None
        p = self.env.probe
        if p.enabled:
            p.pull_drained(self.vm.name, self.config.threshold, _WC_CAP,
                           lambda: self._chunk_fate_cells(src))
        # Best effort: if the source is unreachable the data is all here
        # anyway; release locally so the migration record completes.
        yield from self._attempts(
            lambda: self.fabric.message(self.host, src.host, tag="control",
                                        cause="control"),
            "release",
        )
        if not src.release_event.triggered:
            src.release_event.succeed(self.env.now)
        if not self.release_event.triggered:
            self.release_event.succeed(self.env.now)
