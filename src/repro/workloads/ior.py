"""IOR benchmark model (Section 5.3).

The paper's configuration: a single POSIX process inside the VM performs
10 iterations, each writing and then reading back a 1 GB file in 256 KB
blocks; without migration it achieves 1 GB/s reads and 266 MB/s writes.

The simulation issues I/O in larger ``op_size`` operations (the 256 KB
blocks stream back-to-back in the real benchmark, so batching them into
one fluid op is behaviour-preserving) and records per-phase throughput.
The file is rewritten in place every iteration — the access pattern that
makes hot-chunk avoidance matter: with ``Threshold = 3`` the file's chunks
stop being pushed after three overwrites.
"""

from __future__ import annotations

from typing import Generator

__all__ = ["IORWorkload"]

from repro.workloads.base import Workload


class IORWorkload(Workload):
    """Write-then-read benchmark over one large file."""

    name = "IOR"

    def __init__(
        self,
        vm,
        iterations: int = 10,
        file_size: int = 1 * 2**30,
        op_size: int = 8 * 2**20,
        file_offset: int = 512 * 2**20,
        n_regions: int = 1,
        # IOR is the paper's "heavy I/O, barely touches memory" extreme —
        # its migration cost is almost purely storage.
        dirty_rate: float = 5e6,
        seed: int = 0,
    ):
        super().__init__(vm, seed=seed)
        if file_size % op_size != 0:
            raise ValueError("file_size must be a multiple of op_size")
        if n_regions < 1:
            raise ValueError("n_regions must be >= 1")
        self.iterations = int(iterations)
        self.file_size = int(file_size)
        self.op_size = int(op_size)
        self.file_offset = int(file_offset)
        #: Iteration *i* targets file region ``i % n_regions`` — the guest
        #: filesystem reuses a few file extents over the benchmark's life,
        #: so the disk holds a mix of freshly-rewritten (hot) and settled
        #: (cold) data.  ``n_regions=1`` is the pure in-place-rewrite
        #: adversary for pre-copy.
        self.n_regions = int(n_regions)
        self.dirty_rate = float(dirty_rate)
        self.iterations_done = 0

    def run(self) -> Generator:
        self.vm.dirty_rate_base = self.dirty_rate
        n_ops = self.file_size // self.op_size
        for it in range(self.iterations):
            base = self.file_offset + (it % self.n_regions) * self.file_size
            for op in range(n_ops):
                yield from self.write(base + op * self.op_size, self.op_size)
            for op in range(n_ops):
                yield from self.read(base + op * self.op_size, self.op_size)
            self.iterations_done += 1
