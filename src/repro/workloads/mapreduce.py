"""MapReduce-style distributed workload.

The paper targets "large-scale, data-intensive applications" that use
local disks as scratch space — the canonical example (and the project's
funding line, ANR MAPREDUCE) being map/reduce: mappers read input,
spill intermediate data to *local storage*, shuffle it all-to-all, and
reducers write output locally.  The scratch-heavy spill/shuffle phases
are exactly the I/O pattern that makes live migration of such VMs hard.

One :class:`MapReduceWorker` runs per VM (map slot + reduce slot, Hadoop
style); :func:`build_mapreduce_ensemble` wires a job across a VM fleet.
Phase structure per worker:

1. **map**    — read the input split (copy-on-reference from the
   repository on first touch), compute, spill intermediate data locally;
2. **shuffle** — barrier, then send each reducer its partition over the
   fabric (tag ``app``) while receiving from every other mapper;
3. **reduce** — barrier, compute over received partitions, write output
   to local scratch.
"""

from __future__ import annotations

from typing import Generator

from repro.workloads.base import Workload
from repro.workloads.cm1 import Barrier

__all__ = ["MapReduceWorker", "build_mapreduce_ensemble"]

MB = 2**20


class MapReduceWorker(Workload):
    """One worker (mapper + reducer) of a MapReduce job."""

    name = "mapreduce"

    def __init__(
        self,
        vm,
        rank: int,
        peers: list,
        barrier: Barrier,
        fabric,
        input_split: int = 256 * MB,
        spill_ratio: float = 0.5,
        output_ratio: float = 0.25,
        map_compute_per_mb: float = 0.02,
        reduce_compute_per_mb: float = 0.01,
        input_offset: int = 0,
        scratch_offset: int = 1 * 2**30,
        dirty_rate: float = 30e6,
        seed: int = 0,
    ):
        super().__init__(vm, seed=seed)
        if not 0 < spill_ratio and not 0 <= output_ratio:
            raise ValueError("ratios must be positive")
        if input_split <= 0:
            raise ValueError("input_split must be positive")
        self.rank = int(rank)
        self.peers = peers
        self.barrier = barrier
        self.fabric = fabric
        self.input_split = int(input_split)
        self.spill_ratio = float(spill_ratio)
        self.output_ratio = float(output_ratio)
        self.map_compute_per_mb = float(map_compute_per_mb)
        self.reduce_compute_per_mb = float(reduce_compute_per_mb)
        self.input_offset = int(input_offset)
        self.scratch_offset = int(scratch_offset)
        self.dirty_rate = float(dirty_rate)
        #: Phase completion times (diagnostics).
        self.phase_times: dict[str, float] = {}

    # -- phases ---------------------------------------------------------------
    def _map(self) -> Generator:
        """Read the split, compute, spill intermediates to local scratch."""
        chunk = 8 * MB
        read = 0
        while read < self.input_split:
            step = min(chunk, self.input_split - read)
            yield from self.read(self.input_offset + read, step)
            yield from self.vm.compute(self.map_compute_per_mb * step / MB)
            read += step
        spill = int(self.input_split * self.spill_ratio)
        written = 0
        while written < spill:
            step = min(chunk, spill - written)
            yield from self.write(self.scratch_offset + written, step)
            written += step
        self.phase_times["map"] = self.env.now

    def _shuffle(self) -> Generator:
        """All-to-all: ship each remote reducer its partition."""
        n = len(self.peers)
        spill = int(self.input_split * self.spill_ratio)
        partition = spill // max(n, 1)
        with self.fabric.batch():
            sends = [
                self.fabric.transfer(
                    self.vm.host, peer_vm.host, float(partition), tag="app",
                    cause="workload"
                )
                for r, peer_vm in enumerate(self.peers)
                if r != self.rank and partition != 0
            ]
        if sends:
            yield self.env.all_of(sends)
        self.phase_times["shuffle"] = self.env.now

    def _reduce(self) -> Generator:
        """Compute over the received partitions, write output locally."""
        n = len(self.peers)
        spill = int(self.input_split * self.spill_ratio)
        received = spill  # symmetric job: everyone gets one partition each
        yield from self.vm.compute(self.reduce_compute_per_mb * received / MB)
        output = int(self.input_split * self.output_ratio)
        out_base = self.scratch_offset + spill
        chunk = 8 * MB
        written = 0
        while written < output:
            step = min(chunk, output - written)
            yield from self.write(out_base + written, step)
            written += step
        self.phase_times["reduce"] = self.env.now

    def run(self) -> Generator:
        self.vm.dirty_rate_base = self.dirty_rate
        yield from self._map()
        yield self.barrier.arrive()  # all maps done before the shuffle
        yield from self._shuffle()
        yield self.barrier.arrive()  # all partitions in before reducing
        yield from self._reduce()


def build_mapreduce_ensemble(env, vms, fabric, **kwargs):
    """One MapReduce job across ``vms``, one worker per VM."""
    if not vms:
        raise ValueError("need at least one VM")
    barrier = Barrier(env, len(vms))
    return [
        MapReduceWorker(vm, rank=i, peers=vms, barrier=barrier, fabric=fabric,
                        **kwargs)
        for i, vm in enumerate(vms)
    ]
