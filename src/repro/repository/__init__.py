"""Shared image repositories.

* :class:`~repro.repository.blobseer.StripedRepository` — the BlobSeer-like
  distributed store holding base disk images, striped in chunk_size units
  across many storage hosts (the paper stripes at 256 KB over all compute
  nodes) with optional replication.  Read contention under concurrency is
  spread across servers, which is exactly the property the paper relies on
  for lazy base-image fetches.
* :class:`~repro.repository.pvfs.PVFS` — the parallel-file-system baseline:
  all guest I/O of a ``pvfs-shared`` VM is remote I/O against the striped
  server pool, with a calibrated client-side write ceiling reflecting
  qcow2-over-PVFS synchronization costs.
"""

from repro.repository.blobseer import StripedRepository
from repro.repository.pvfs import PVFS

__all__ = ["PVFS", "StripedRepository"]
