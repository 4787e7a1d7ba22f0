"""``pvfs-shared``: synchronization through a parallel file system.

The traditional way to dodge storage transfer entirely (Section 5.2.3):
the base image *and* a shared qcow2 snapshot live on PVFS, so source and
destination are always consistent and live migration moves memory only.
The price is paid continuously — every guest read streams from the striped
servers at network speed and every guest write pays the qcow2-over-PVFS
synchronization ceiling, during migration or not.

Remote writes also churn guest memory (client-side caching and qcow2
metadata), which couples I/O activity back into the memory dirty rate —
the second-order effect behind Figure 5(a), where pvfs-shared's memory
migration is *slower* than our-approach's despite moving no storage.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.manager import MigrationManager
from repro.repository.pvfs import PVFS

__all__ = ["SharedStorageManager"]


class SharedStorageManager(MigrationManager):
    """All-I/O-remote baseline over PVFS."""

    name = "pvfs-shared"
    strategy_summary = "Does not apply (all writes go to PVFS)"
    storage_placement = "pvfs"
    #: qcow2-over-PVFS writes churn guest memory (client cache turnover,
    #: metadata, buffer copies) roughly in proportion to the payload,
    #: coupling I/O activity into the memory dirty rate (Section 5.5's
    #: observation that pvfs-shared pays extra *memory* migration cost).
    write_memory_churn = 1.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self.repo, PVFS):
            raise TypeError(
                "SharedStorageManager requires a PVFS repository "
                f"(got {type(self.repo).__name__})"
            )

    # -- guest I/O: everything remote -----------------------------------------
    def read(self, offset: int, nbytes: int) -> Generator:
        span = self.chunks.chunk_span(offset, nbytes)
        yield self.repo.read(self.host, float(nbytes), tag="pvfs-io")
        self.chunks.record_fetch(span)
        self.vm.note_read(nbytes)

    def write(self, offset: int, nbytes: int) -> Generator:
        span = self.chunks.chunk_span(offset, nbytes)
        # The guest dirties its buffer/cache pages the moment it issues the
        # write, long before the slow remote backend completes — so the
        # memory-churn coupling keys off issue time, not completion.
        self.vm.note_write(nbytes)
        yield self.repo.write(self.host, float(nbytes), tag="pvfs-io")
        versions = self.vm.bump_content(span)
        self.chunks.record_write(span, count_writes=self._count_writes)
        self.chunks.version[span] = versions

    # -- migration: memory only ------------------------------------------------
    def spawn_peer(self, dst_node) -> "SharedStorageManager":
        peer = super().spawn_peer(dst_node)
        # Source and destination see the same shared snapshot: the peer
        # adopts the source's chunk state wholesale (it lives on PVFS).
        peer.vdisk.chunks.present[:] = self.chunks.present
        peer.vdisk.chunks.modified[:] = self.chunks.modified
        peer.vdisk.chunks.version[:] = self.chunks.version
        return peer

    def on_control_transferred(self) -> Generator:
        # The shared snapshot keeps evolving on PVFS after control moved;
        # mirror the final state onto the peer's view before releasing.
        peer = self.peer
        if peer is not None:
            peer.chunks.present[:] = np.maximum(
                peer.chunks.present, self.chunks.present
            )
            newer = self.chunks.version > peer.chunks.version
            peer.chunks.version[newer] = self.chunks.version[newer]
        yield from super().on_control_transferred()
