"""Disk snapshotting to the shared repository ([26], BlobCR [27]).

The migration manager's normal-operation machinery (Section 4.4: "its
basic functionality is based on our previous work presented in [26]")
comes from a multideployment/multisnapshotting system: a VM's locally
modified chunks can be **snapshotted** into the shared repository, and new
VM instances can be **deployed from a snapshot** — the checkpoint-restart
pattern of BlobCR [27] ("for HPC applications it is cheaper to save the
state of the application inside the virtual disk ... and then reboot the
VM instance on the destination").

* :meth:`SnapshotService.take` uploads the VM's ModifiedSet to the
  repository (replicated, striped) and records the version vector.
* :meth:`SnapshotService.restore_into` primes another manager's local view
  with the snapshot: the chunks become present+modified there with the
  snapshot's logical versions.
* :meth:`~repro.cluster.cloud.CloudMiddleware.checkpoint` wraps ``take``
  in a brief pause+drain so the captured state is crash-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

__all__ = ["DiskSnapshot", "SnapshotService"]


@dataclass
class DiskSnapshot:
    """An immutable point-in-time capture of a VM's local modifications."""

    snapshot_id: str
    vm: str
    taken_at: float
    chunk_ids: np.ndarray
    versions: np.ndarray
    chunk_size: int

    @property
    def nbytes(self) -> int:
        return int(len(self.chunk_ids)) * self.chunk_size

    def __repr__(self) -> str:
        return (
            f"<DiskSnapshot {self.snapshot_id} of {self.vm} "
            f"@{self.taken_at:.2f}s {self.nbytes / 2**20:.0f}MB>"
        )


class SnapshotService:
    """Takes and restores disk snapshots against a striped repository."""

    def __init__(self, repository):
        if not hasattr(repository, "store"):
            raise TypeError(
                "SnapshotService needs a repository with a store() write "
                f"path (got {type(repository).__name__})"
            )
        self.repository = repository
        self.snapshots: dict[str, DiskSnapshot] = {}
        self._counter = 0

    def take(self, manager) -> Generator:
        """Upload ``manager``'s ModifiedSet; returns the DiskSnapshot.

        The caller is responsible for quiescing the VM (see
        ``CloudMiddleware.checkpoint``); an un-quiesced snapshot is still
        well-formed but may split a guest write.
        """
        chunk_ids = manager.chunks.modified_set()
        versions = manager.chunks.version[chunk_ids].copy()
        t0 = manager.env.now
        yield manager.vdisk.load(chunk_ids)
        yield self.repository.store(chunk_ids, manager.host,
                                    tag="repo-store", cause="repo.store")
        p = manager.env.probe
        if p.enabled:
            p.snapshot_taken(manager.vm.name, t0, int(len(chunk_ids)))
        self._counter += 1
        snapshot = DiskSnapshot(
            snapshot_id=f"snap-{self._counter}",
            vm=manager.vm.name,
            taken_at=manager.env.now,
            chunk_ids=chunk_ids,
            versions=versions,
            chunk_size=manager.chunk_size,
        )
        self.snapshots[snapshot.snapshot_id] = snapshot
        return snapshot

    def restore_into(self, snapshot: DiskSnapshot, manager) -> Generator:
        """Materialize ``snapshot`` into ``manager``'s local view.

        Fetches the snapshot chunks from the repository (striped reads)
        and adopts their logical versions, marking them modified so they
        migrate onward like any local write.
        """
        if snapshot.chunk_size != manager.chunk_size:
            raise ValueError("snapshot/manager chunk geometry mismatch")
        ids = snapshot.chunk_ids
        if len(ids) == 0:
            return
        t0 = manager.env.now
        yield self.repository.fetch(ids, manager.host, tag="repo-fetch",
                                    cause="repo.fetch")
        p = manager.env.probe
        if p.enabled:
            p.snapshot_restored(manager.vm.name, t0, snapshot.snapshot_id,
                                int(len(ids)))
        manager.chunks.adopt_versions(ids, snapshot.versions)
        manager.chunks.modified[ids] = True
        manager.vdisk.disk.touch(ids)
        # The VM's logical clock must be at least the snapshot's versions,
        # so post-restore writes supersede snapshot content.
        clock = manager.vm.content_clock
        np.maximum.at(clock, ids, snapshot.versions)
