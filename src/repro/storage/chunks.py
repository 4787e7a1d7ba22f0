"""Per-chunk state of a virtual disk, vectorized with numpy.

A 4 GB image at 256 KB chunks has 16384 chunks; per-chunk Python objects
would dominate runtime, so all state lives in flat arrays:

* ``present`` — the chunk's current content is available locally (it was
  written locally, pushed/pulled here, or fetched from the repository).
* ``modified`` — the paper's ``ModifiedSet``: chunk diverged from the base
  image during the VM's lifetime.
* ``write_count`` — the paper's ``WriteCount``: writes since the migration
  request (reset on ``MIGRATION_REQUEST``).
* ``version`` — monotone content version, used to verify migration
  correctness (destination must converge to the source's final versions).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ChunkMap", "ChunkTransferStalled"]


class ChunkTransferStalled(RuntimeError):
    """A chunk transfer exhausted its bounded retry budget where the
    migration cannot simply withdraw.  Inside the stop-and-copy downtime
    the hypervisor still aborts the attempt and resumes the guest on the
    source (control has not moved); after control transfer, a pull whose
    source is unreachable raises it to the guest, the unsafe corner of
    the hybrid scheme that Section 6 of the paper concedes."""


class ChunkMap:
    """State arrays for ``n_chunks`` chunks of ``chunk_size`` bytes."""

    def __init__(self, n_chunks: int, chunk_size: int):
        if n_chunks <= 0:
            raise ValueError("n_chunks must be positive")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.n_chunks = int(n_chunks)
        self.chunk_size = int(chunk_size)
        self.present = np.zeros(n_chunks, dtype=bool)
        self.modified = np.zeros(n_chunks, dtype=bool)
        self.write_count = np.zeros(n_chunks, dtype=np.int64)
        self.version = np.zeros(n_chunks, dtype=np.int64)

    # -- geometry -----------------------------------------------------------
    @property
    def size(self) -> int:
        """Total image size in bytes."""
        return self.n_chunks * self.chunk_size

    def chunk_span(self, offset: int, nbytes: int) -> np.ndarray:
        """Indices of the chunks overlapping ``[offset, offset + nbytes)``."""
        if offset < 0 or nbytes < 0:
            raise ValueError("offset and nbytes must be non-negative")
        if offset + nbytes > self.size:
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) exceeds image size {self.size}"
            )
        if nbytes == 0:
            return np.zeros(0, dtype=np.intp)
        first = offset // self.chunk_size
        last = (offset + nbytes - 1) // self.chunk_size
        return np.arange(first, last + 1, dtype=np.intp)

    # -- mutations ------------------------------------------------------------
    def record_write(self, chunks: np.ndarray, count_writes: bool = False) -> None:
        """Apply a local write: chunks become present+modified, versions bump.

        ``count_writes`` increments ``write_count`` — only done on the
        migration source between MIGRATION_REQUEST and the transfer of
        control (Algorithm 2, line 9).
        """
        self.present[chunks] = True
        self.modified[chunks] = True
        self.version[chunks] += 1
        if count_writes:
            self.write_count[chunks] += 1

    def record_fetch(self, chunks: np.ndarray) -> None:
        """Chunks became locally available without modification (repo fetch,
        push/pull arrival)."""
        self.present[chunks] = True

    def reset_write_counts(self) -> None:
        """Algorithm 1, lines 3-5: zero all counters on MIGRATION_REQUEST."""
        self.write_count[:] = 0

    # -- queries --------------------------------------------------------------
    def modified_set(self) -> np.ndarray:
        """Indices of the ``ModifiedSet``."""
        return np.flatnonzero(self.modified)

    def missing_in(self, chunks: np.ndarray) -> np.ndarray:
        """Subset of ``chunks`` that is not locally present."""
        chunks = np.asarray(chunks, dtype=np.intp)
        return chunks[~self.present[chunks]]

    def modified_bytes(self) -> int:
        return int(self.modified.sum()) * self.chunk_size

    # -- consistency checking ---------------------------------------------------
    def snapshot_versions(self) -> np.ndarray:
        """Copy of the version vector (for end-to-end migration checks)."""
        return self.version.copy()

    def adopt_versions(self, chunks: np.ndarray, versions: np.ndarray) -> None:
        """Take over content versions for chunks that arrived from a peer."""
        self.version[chunks] = versions
        self.present[chunks] = True

    def __repr__(self) -> str:
        return (
            f"<ChunkMap {self.n_chunks}x{self.chunk_size}B "
            f"present={int(self.present.sum())} modified={int(self.modified.sum())}>"
        )
