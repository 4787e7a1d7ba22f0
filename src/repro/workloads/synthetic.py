"""Synthetic workload generators for unit tests and ablations.

All three write at a controlled pressure (``rate`` bytes/s of issued I/O)
until ``total_bytes`` have been written; they differ in *where* they write:

* :class:`SequentialWriter` — a linear sweep (cold chunks, never rewritten).
* :class:`RandomWriter` — uniform random offsets (uniform rewrite rate).
* :class:`HotspotWriter` — Zipf-skewed offsets (a few very hot chunks),
  the adversarial pattern for pre-copy and the showcase for the paper's
  write-count threshold.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.workloads.base import Workload

__all__ = ["SequentialWriter", "RandomWriter", "HotspotWriter"]


class _PacedWriter(Workload):
    """Common pacing: issue ``op_size`` writes at ``rate`` bytes/s."""

    def __init__(
        self,
        vm,
        total_bytes: int,
        rate: float,
        op_size: int = 2 * 2**20,
        region_offset: int = 1 * 2**30,
        region_size: int = 1 * 2**30,
        seed: int = 0,
    ):
        super().__init__(vm, seed=seed)
        if rate <= 0:
            raise ValueError("rate must be positive")
        if op_size <= 0 or total_bytes < 0:
            raise ValueError("op_size must be positive, total_bytes >= 0")
        self.total_bytes = int(total_bytes)
        self.rate = float(rate)
        self.op_size = int(op_size)
        self.region_offset = int(region_offset)
        self.region_size = int(region_size)
        self.rng = np.random.default_rng(seed)

    def next_offset(self, op_index: int) -> int:
        raise NotImplementedError

    def run(self) -> Generator:
        n_ops = self.total_bytes // self.op_size
        gap = self.op_size / self.rate
        for i in range(n_ops):
            t0 = self.env.now
            yield from self.write(self.next_offset(i), self.op_size)
            # Pace to the target pressure: sleep out the remainder of the
            # inter-op gap (an op slower than the gap just runs late).
            spent = self.env.now - t0
            if spent < gap:
                yield self.env.timeout(gap - spent)

    @property
    def n_slots(self) -> int:
        return self.region_size // self.op_size


class SequentialWriter(_PacedWriter):
    name = "seq-writer"

    def next_offset(self, op_index: int) -> int:
        return self.region_offset + (op_index % self.n_slots) * self.op_size


class RandomWriter(_PacedWriter):
    name = "rand-writer"

    def next_offset(self, op_index: int) -> int:
        slot = int(self.rng.integers(0, self.n_slots))
        return self.region_offset + slot * self.op_size


class HotspotWriter(_PacedWriter):
    """Zipf-distributed write targets: slot popularity ~ 1/rank^a."""

    name = "hotspot-writer"

    def __init__(self, *args, zipf_a: float = 1.5, **kwargs):
        super().__init__(*args, **kwargs)
        if zipf_a <= 1.0:
            raise ValueError("zipf_a must be > 1")
        self.zipf_a = float(zipf_a)

    def next_offset(self, op_index: int) -> int:
        slot = int(self.rng.zipf(self.zipf_a)) - 1
        slot %= self.n_slots
        return self.region_offset + slot * self.op_size


class PacedReader(Workload):
    """Sequentially reads a region at a controlled pressure.

    Useful for exercising the destination's on-demand pull path and the
    repository's copy-on-reference fetches in isolation.
    """

    name = "seq-reader"

    def __init__(
        self,
        vm,
        total_bytes: int,
        rate: float,
        op_size: int = 2 * 2**20,
        region_offset: int = 0,
        region_size: int = 1 * 2**30,
        seed: int = 0,
    ):
        super().__init__(vm, seed=seed)
        if rate <= 0 or op_size <= 0 or total_bytes < 0:
            raise ValueError("rate/op_size must be positive, total_bytes >= 0")
        self.total_bytes = int(total_bytes)
        self.rate = float(rate)
        self.op_size = int(op_size)
        self.region_offset = int(region_offset)
        self.region_size = int(region_size)

    def run(self):
        n_ops = self.total_bytes // self.op_size
        n_slots = max(self.region_size // self.op_size, 1)
        gap = self.op_size / self.rate
        for i in range(n_ops):
            t0 = self.env.now
            offset = self.region_offset + (i % n_slots) * self.op_size
            yield from self.read(offset, self.op_size)
            spent = self.env.now - t0
            if spent < gap:
                yield self.env.timeout(gap - spent)


class MixedOLTP(Workload):
    """Transaction-style mix: each transaction reads a few random pages
    and then commits one synchronous write.

    Unlike the streaming writers, the commit write sits on the
    transaction's critical path, so the achieved *transaction rate* is
    directly sensitive to write latency — the metric that exposes the
    mirror baseline's synchronous-dual-write penalty and precopy's
    I/O-thread squeeze.  Per-operation commit latencies are recorded for
    tail analysis.
    """

    name = "mixed-oltp"

    def __init__(
        self,
        vm,
        transactions: int = 200,
        reads_per_txn: int = 2,
        read_size: int = 64 * 1024,
        write_size: int = 256 * 1024,
        think_time: float = 0.005,
        region_offset: int = 1 * 2**30,
        region_size: int = 256 * 2**20,
        seed: int = 0,
    ):
        super().__init__(vm, seed=seed)
        if transactions < 0 or reads_per_txn < 0:
            raise ValueError("transactions/reads_per_txn must be >= 0")
        if think_time < 0:
            raise ValueError("think_time must be >= 0")
        self.transactions = int(transactions)
        self.reads_per_txn = int(reads_per_txn)
        self.read_size = int(read_size)
        self.write_size = int(write_size)
        self.think_time = float(think_time)
        self.region_offset = int(region_offset)
        self.region_size = int(region_size)
        self.rng = np.random.default_rng(seed)
        self.committed = 0
        #: Per-transaction commit (write) latencies in seconds.
        self.commit_latencies: list[float] = []

    def _random_offset(self, size: int) -> int:
        span = max(self.region_size - size, 1)
        return self.region_offset + int(self.rng.integers(0, span))

    def commit_latency_quantile(self, q: float) -> float:
        if not self.commit_latencies:
            return 0.0
        return float(np.quantile(self.commit_latencies, q))

    def transaction_rate(self) -> float:
        """Committed transactions per second of wall time."""
        if not self.elapsed:
            return 0.0
        return self.committed / self.elapsed

    def run(self):
        for _ in range(self.transactions):
            for _ in range(self.reads_per_txn):
                yield from self.read(self._random_offset(self.read_size),
                                     self.read_size)
            t0 = self.env.now
            yield from self.write(self._random_offset(self.write_size),
                                  self.write_size)
            self.commit_latencies.append(self.env.now - t0)
            self.committed += 1
            if self.think_time:
                yield from self.vm.compute(self.think_time)
