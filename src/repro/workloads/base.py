"""Workload base class: instrumented guest I/O.

A workload drives one VM and measures what the paper measures inside the
guest: achieved read/write throughput (bytes divided by time spent blocked
in I/O calls) and bytes written over time.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.metrics.timeline import Timeline
from repro.simkernel.core import Process

__all__ = ["Workload"]


class Workload:
    """Base class for guest applications."""

    name = "workload"

    def __init__(self, vm, seed: int = 0):
        self.vm = vm
        self.env = vm.env
        self.seed = seed
        self.proc: Optional[Process] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

        self.bytes_written = 0.0
        self.bytes_read = 0.0
        self.write_time = 0.0
        self.read_time = 0.0
        #: Cumulative bytes written over time — windowed write-pressure
        #: metrics (the AsyncWR figure) difference this.
        self.written_timeline = Timeline(f"{self.name}:{vm.name}:written")

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> Process:
        """Launch the workload as a process; returns its join event."""
        if self.proc is not None:
            raise RuntimeError("workload already started")
        self.proc = self.env.process(self._run_wrapper(), name=f"{self.name}:{self.vm.name}")
        return self.proc

    def _run_wrapper(self) -> Generator:
        self.started_at = self.env.now
        yield from self.run()
        self.finished_at = self.env.now
        self.vm.dirty_rate_base = 0.0

    def run(self) -> Generator:
        raise NotImplementedError

    # -- instrumented I/O -----------------------------------------------------
    def write(self, offset: int, nbytes: int) -> Generator:
        t0 = self.env.now
        yield from self.vm.write(offset, nbytes)
        self.write_time += self.env.now - t0
        self.bytes_written += nbytes
        self.written_timeline.record(self.env.now, self.bytes_written)

    def read(self, offset: int, nbytes: int) -> Generator:
        t0 = self.env.now
        yield from self.vm.read(offset, nbytes)
        self.read_time += self.env.now - t0
        self.bytes_read += nbytes

    # -- metrics ------------------------------------------------------------------
    @property
    def elapsed(self) -> Optional[float]:
        """Total wall time of the workload, if finished."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def write_throughput(self) -> float:
        """Sustained write throughput (bytes per second spent writing)."""
        if self.write_time <= 0:
            return 0.0
        return self.bytes_written / self.write_time

    def read_throughput(self) -> float:
        if self.read_time <= 0:
            return 0.0
        return self.bytes_read / self.read_time

    def __repr__(self) -> str:
        state = "unstarted" if self.started_at is None else (
            "running" if self.finished_at is None else "done"
        )
        return f"<{type(self).__name__} vm={self.vm.name} {state}>"
