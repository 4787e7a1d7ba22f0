"""Node-local storage substrate.

* :class:`~repro.storage.chunks.ChunkMap` — numpy-backed per-chunk state of
  a virtual disk (presence, modification, write counts, versions).  This is
  the concrete realization of the paper's ``ModifiedSet`` / ``WriteCount`` /
  ``RemainingSet`` bookkeeping.
* :class:`~repro.storage.disk.LocalDisk` — a sequential-bandwidth fluid disk
  with a warm-cache bypass (the graphene nodes' ~55 MB/s SATA disks).
* :class:`~repro.storage.pagecache.PageCache` — guest-visible I/O rate caps
  (IOR measures 1 GB/s reads / 266 MB/s writes with no migration).
* :class:`~repro.storage.virtualdisk.VirtualDisk` — chunk geometry plus the
  copy-on-write view over a base image.
"""

from repro.storage.chunks import ChunkMap
from repro.storage.disk import LocalDisk
from repro.storage.pagecache import PageCache
from repro.storage.virtualdisk import VirtualDisk

__all__ = ["ChunkMap", "LocalDisk", "PageCache", "VirtualDisk"]
