"""The virtual machine instance.

A :class:`VMInstance` is the guest as the rest of the system sees it:

* its current :class:`~repro.cluster.node.ComputeNode` and the migration
  manager serving its disk I/O on that node (both swap atomically at
  control transfer),
* memory parameters driving the memory migration (total size, touched
  working set, and the **dirty rate**, which couples back to workload
  activity — the source of the paper's second-order effects),
* pause/resume used for the stop-and-copy downtime,
* the *logical content clock*: a per-chunk monotone counter advanced by
  every guest write, no matter on which side it executes.  After a correct
  migration the destination's chunk versions equal this clock — the
  invariant the integration and property tests check.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

import numpy as np

from repro.simkernel.core import Environment, Event

__all__ = ["VMInstance"]


class VMInstance:
    """A running guest.

    Parameters
    ----------
    memory_size:
        Total RAM (the paper fixes 4 GB).
    working_set:
        Bytes of memory actually touched (what the first pre-copy round
        ships).
    read_bw / write_bw:
        Guest-visible I/O ceilings (IOR's no-migration maxima: 1 GB/s and
        266 MB/s).
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        memory_size: float = 4 * 2**30,
        working_set: float = 1 * 2**30,
        read_bw: float = 1e9,
        write_bw: float = 266e6,
    ):
        if working_set > memory_size:
            raise ValueError("working_set cannot exceed memory_size")
        self.env = env
        self.name = name
        self.memory_size = float(memory_size)
        self.working_set = float(working_set)
        self.read_bw = float(read_bw)
        self.write_bw = float(write_bw)

        self.node = None
        self.manager = None
        #: Workload-declared memory dirty rate (bytes/s); see dirty_rate.
        self.dirty_rate_base = 0.0
        #: How strongly network activity on this VM's node slows its
        #: compute: moving bytes costs host CPU (vhost, softirq, FUSE),
        #: stretching compute by ``1 + cpu_coupling * nic_utilization``.
        self.cpu_coupling = 0.8
        #: Auto-converge throttle in [0, 1): the hypervisor steals this
        #: fraction of the guest's CPU, proportionally damping both its
        #: compute progress and its memory dirty rate (QEMU's
        #: auto-converge / Ibrahim et al.'s adaptive pre-copy).
        self.cpu_throttle = 0.0

        self._paused = False
        self._resume_event: Optional[Event] = None
        #: Cumulative seconds spent paused (downtime experienced).
        self.paused_time = 0.0
        self._paused_at = 0.0
        # Outstanding guest I/O operations; drained during stop-and-copy.
        self._io_inflight = 0
        self._io_drained: Optional[Event] = None

        self._content_clock: Optional[np.ndarray] = None
        # Recent-write-rate tracking for the I/O->memory churn coupling.
        self._write_window: deque[tuple[float, float]] = deque()
        self._write_window_span = 5.0
        self._reads_bytes = 0.0
        self._writes_bytes = 0.0

    # -- placement -----------------------------------------------------------
    @property
    def host(self):
        return self.node.host

    def place(self, node, manager) -> None:
        """Initial deployment onto a node."""
        self.node = node
        self.manager = manager
        if self._content_clock is None:
            self._content_clock = np.zeros(manager.chunks.n_chunks, dtype=np.int64)

    def relocate(self, node, manager) -> None:
        """Control transfer: the guest now runs on ``node``."""
        self.place(node, manager)

    # -- content clock -----------------------------------------------------------
    @property
    def content_clock(self) -> np.ndarray:
        if self._content_clock is None:
            raise RuntimeError(f"{self.name} has no disk attached yet")
        return self._content_clock

    def bump_content(self, span: np.ndarray) -> np.ndarray:
        """Advance the logical content version of the written chunks."""
        clock = self.content_clock
        clock[span] += 1
        return clock[span].copy()

    # -- dirty-rate coupling ---------------------------------------------------
    @property
    def dirty_rate(self) -> float:
        """Instantaneous memory dirty rate in bytes/s.

        The workload's declared rate plus the manager's I/O-induced memory
        churn (remote qcow2 writes dirty client cache pages).
        """
        churn = 0.0
        if self.manager is not None:
            churn = self.manager.write_memory_churn * self.recent_write_rate()
        rate = (self.dirty_rate_base + churn) * (1.0 - self.cpu_throttle)
        return min(rate, self.working_set)

    def note_write(self, nbytes: float) -> None:
        self._writes_bytes += nbytes
        now = self.env.now
        window = self._write_window
        window.append((now, float(nbytes)))
        horizon = now - self._write_window_span
        while window and window[0][0] < horizon:
            window.popleft()

    def note_read(self, nbytes: float) -> None:
        self._reads_bytes += nbytes

    def recent_write_rate(self) -> float:
        """Guest write throughput over the last few seconds (bytes/s)."""
        now = self.env.now
        window = self._write_window
        horizon = now - self._write_window_span
        while window and window[0][0] < horizon:
            window.popleft()
        total = sum(b for _, b in window)
        return total / self._write_window_span

    # -- pause / resume -----------------------------------------------------------
    @property
    def paused(self) -> bool:
        return self._paused

    def pause(self) -> None:
        if self._paused:
            raise RuntimeError(f"{self.name} is already paused")
        self._paused = True
        self._paused_at = self.env.now
        self._resume_event = Event(self.env)

    def resume(self) -> None:
        if not self._paused:
            raise RuntimeError(f"{self.name} is not paused")
        self._paused = False
        self.paused_time += self.env.now - self._paused_at
        ev, self._resume_event = self._resume_event, None
        ev.succeed()

    def check_paused(self) -> Generator:
        """Block the calling guest activity while the VM is paused."""
        while self._paused:
            yield self._resume_event

    # -- guest activity ------------------------------------------------------------
    def read(self, offset: int, nbytes: int) -> Generator:
        yield from self.check_paused()
        self._io_inflight += 1
        try:
            yield from self.manager.read(offset, nbytes)
        finally:
            self._io_done()

    def write(self, offset: int, nbytes: int) -> Generator:
        yield from self.check_paused()
        self._io_inflight += 1
        try:
            yield from self.manager.write(offset, nbytes)
        finally:
            self._io_done()

    def _io_done(self) -> None:
        self._io_inflight -= 1
        if self._io_inflight == 0 and self._io_drained is not None:
            ev, self._io_drained = self._io_drained, None
            ev.succeed()

    def drain_io(self) -> Generator:
        """Wait for all in-flight guest I/O to land (QEMU's
        ``bdrv_drain_all`` during stop-and-copy).  Call with the VM paused
        so no new I/O starts."""
        while self._io_inflight > 0:
            if self._io_drained is None:
                self._io_drained = Event(self.env)
            yield self._io_drained

    def compute(self, seconds: float) -> Generator:
        """Busy the vCPU for ``seconds`` of work.

        Stretched by pauses and by host CPU spent moving migration /
        remote-I/O bytes on this node (sampled at compute start — compute
        slices are short relative to migration phases).
        """
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        yield from self.check_paused()
        factor = 1.0
        if self.manager is not None and self.cpu_coupling > 0:
            fabric = self.manager.fabric
            inbound, outbound = fabric.host_load(self.host)
            cap = self.host.nic_in + self.host.nic_out
            # A crashed or partitioned host has no NIC capacity and moves
            # no bytes, so it adds no coupling.
            if cap > 0:
                factor += self.cpu_coupling * min((inbound + outbound) / cap,
                                                  1.0)
        if self.cpu_throttle > 0:
            factor /= max(1.0 - self.cpu_throttle, 0.05)
        yield self.env.timeout(seconds * factor)
        yield from self.check_paused()

    def __repr__(self) -> str:
        where = self.node.name if self.node is not None else "unplaced"
        return f"<VMInstance {self.name} on {where}{' PAUSED' if self._paused else ''}>"
