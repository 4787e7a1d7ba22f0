"""Local disk model: sequential-bandwidth fluid server with a warm cache.

The graphene nodes of the paper have SATA disks measured at ~55 MB/s.  Two
facts about the real system matter for fidelity:

1. Disk bandwidth is shared between the guest's I/O and the migration
   manager reading chunk contents for pushing — modeled by routing both
   through one :class:`~repro.simkernel.fluid.FluidShare`.
2. Recently written/read data sits in the host page cache, so the push
   phase usually does *not* pay disk latency for hot chunks (IOR re-reads
   its just-written 1 GB file at ~1 GB/s).  Modeled by an LRU warm set of
   chunk indices sized to the host cache.

The warm set is array-backed: membership is a boolean mask and recency a
monotonic per-chunk stamp, so touching or probing a whole chunk batch is
a vectorized operation instead of per-chunk dict churn.  Eviction drains
a FIFO of ``(chunk, stamp)`` touch records, skipping records superseded
by a newer stamp — exactly the least-recently-touched order an
``OrderedDict.move_to_end`` implementation yields, membership-for-
membership (the warm fraction feeds simulated I/O times, so "almost LRU"
would change results).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable

import numpy as np

from repro.simkernel.core import Environment, Event
from repro.simkernel.fluid import FluidShare

__all__ = ["LocalDisk"]


def _as_ids(chunks: Iterable[int]) -> np.ndarray:
    if isinstance(chunks, np.ndarray):
        return chunks.astype(np.int64, copy=False)
    return np.asarray(list(chunks), dtype=np.int64)


class LocalDisk:
    """A node-local disk.

    Parameters
    ----------
    bandwidth:
        Sustained sequential bandwidth in bytes/second (~55 MB/s).
    cache_bytes:
        Host page-cache budget; accesses to warm chunks bypass the disk.
    chunk_size:
        Granularity of warm-cache tracking.
    """

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        cache_bytes: float = 0.0,
        chunk_size: int = 256 * 1024,
        name: str = "",
    ):
        if cache_bytes < 0:
            raise ValueError("cache_bytes must be non-negative")
        self.env = env
        self.name = name
        self.chunk_size = int(chunk_size)
        self._base_bandwidth = float(bandwidth)
        self._share = FluidShare(env, bandwidth, name=f"disk:{name}")
        self._cache_slots = int(cache_bytes // chunk_size)
        # Warm-set state: membership mask + latest-touch stamp per chunk
        # (grown on demand), a monotonic clock, and the eviction FIFO of
        # touch records with lazy invalidation.
        self._warm_mask = np.zeros(0, dtype=bool)
        self._stamp = np.zeros(0, dtype=np.int64)
        self._warm_count = 0
        self._clock = 0
        self._fifo: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._fifo_pos = 0
        self._fifo_entries = 0
        #: Bytes served from cache (diagnostics).
        self.cache_hits_bytes = 0.0
        #: Bytes served from the platter.
        self.disk_bytes = 0.0

    @property
    def bandwidth(self) -> float:
        return self._share.capacity

    def set_bandwidth_factor(self, factor: float) -> None:
        """Degrade (slow-disk fault) or restore the disk: capacity becomes
        ``factor`` x the configured bandwidth.  In-flight I/O is
        integrated at the old rate first, then continues at the new one.
        """
        if factor <= 0:
            raise ValueError("bandwidth factor must be positive")
        self._share.set_capacity(self._base_bandwidth * factor)

    # -- warm set -----------------------------------------------------------
    def _ensure_capacity(self, n: int) -> None:
        cur = self._warm_mask.size
        if n <= cur:
            return
        size = max(64, cur)
        while size < n:
            size *= 2
        mask = np.zeros(size, dtype=bool)
        mask[:cur] = self._warm_mask
        stamp = np.zeros(size, dtype=np.int64)
        stamp[:cur] = self._stamp
        self._warm_mask = mask
        self._stamp = stamp

    def touch(self, chunks: Iterable[int]) -> None:
        """Mark chunks warm (most recently used)."""
        if self._cache_slots == 0:
            return
        ids = _as_ids(chunks)
        n = ids.size
        if n == 0:
            return
        self._ensure_capacity(int(ids.max()) + 1)
        stamps = np.arange(self._clock + 1, self._clock + n + 1,
                           dtype=np.int64)
        self._clock += n
        # Duplicate ids within one batch: the last occurrence wins, same
        # as repeated move_to_end calls.
        self._stamp[ids] = stamps
        if n == 1 or bool((ids[1:] > ids[:-1]).all()):
            # Strictly increasing ids (contiguous write/push spans, the
            # dominant case) are already exactly ``np.unique(ids)``.
            uniq = ids
        else:
            uniq = np.unique(ids)
        fresh = uniq[~self._warm_mask[uniq]]
        if fresh.size:
            self._warm_mask[fresh] = True
            self._warm_count += int(fresh.size)
        self._fifo.append((ids, stamps))
        self._fifo_entries += n

        while self._warm_count > self._cache_slots:
            batch_ids, batch_stamps = self._fifo[0]
            pos = self._fifo_pos
            if pos >= batch_ids.size:
                self._fifo.popleft()
                self._fifo_pos = 0
                continue
            self._fifo_pos = pos + 1
            c = batch_ids[pos]
            # A record is live only while it holds the chunk's newest
            # stamp; stale records (re-touched or already evicted chunks)
            # are skipped, which is what makes FIFO-of-records == LRU.
            if self._warm_mask[c] and self._stamp[c] == batch_stamps[pos]:
                self._warm_mask[c] = False
                self._warm_count -= 1

        if self._fifo_entries > max(4 * self._cache_slots, 1024):
            # Compact the record FIFO to the live set (stamp order ==
            # recency order), bounding memory on long cache-underflow runs.
            live = np.flatnonzero(self._warm_mask)
            order = np.argsort(self._stamp[live], kind="stable")
            self._fifo = deque([(live[order], self._stamp[live][order])])
            self._fifo_pos = 0
            self._fifo_entries = int(live.size)

    def is_warm(self, chunk: int) -> bool:
        c = int(chunk)
        return c < self._warm_mask.size and bool(self._warm_mask[c])

    def evict_all(self) -> None:
        self._warm_mask[:] = False
        self._warm_count = 0
        self._fifo.clear()
        self._fifo_pos = 0
        self._fifo_entries = 0

    def warm_fraction(self, chunks: Iterable[int]) -> float:
        ids = _as_ids(chunks)
        if ids.size == 0:
            return 1.0
        if self._warm_count == 0:
            return 0.0
        in_range = ids[ids < self._warm_mask.size]
        hits = int(np.count_nonzero(self._warm_mask[in_range]))
        return hits / ids.size

    # -- I/O -----------------------------------------------------------------
    def io(self, nbytes: float, chunks: Iterable[int] | None = None,
           weight: float = 1.0) -> Event:
        """Read or write ``nbytes``; the warm fraction of ``chunks`` bypasses
        the platter.  Returns the completion event and marks chunks warm.

        The fluid model does not distinguish reads from writes (both consume
        sequential bandwidth); callers use tags in their own accounting.
        """
        if not 0 <= nbytes < math.inf:
            raise ValueError("nbytes must be finite and non-negative")
        if not 0 < weight < math.inf:
            raise ValueError("weight must be finite and positive")
        ids = _as_ids(chunks) if chunks is not None else None
        warm_frac = self.warm_fraction(ids) if ids is not None else 0.0
        cold_bytes = nbytes * (1.0 - warm_frac)
        self.cache_hits_bytes += nbytes - cold_bytes
        self.disk_bytes += cold_bytes
        if ids is not None:
            self.touch(ids)
        if cold_bytes <= 0:
            ev = Event(self.env)
            ev.succeed(0.0)
            return ev
        return self._share.transfer(cold_bytes, weight=weight)

    def __repr__(self) -> str:
        return (f"<LocalDisk {self.name} {self.bandwidth / 1e6:.0f}MB/s "
                f"warm={self._warm_count}>")
