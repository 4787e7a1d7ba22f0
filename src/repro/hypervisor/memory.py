"""Memory migration strategies.

The paper deliberately leaves memory to the hypervisor (QEMU's standard
pre-copy, speed capped at the NIC) and handles storage independently; the
interesting dynamics come from both sharing the same network.  The memory
strategies here implement a two-phase interface used by
:class:`~repro.hypervisor.control.LiveMigration`:

* ``pre_control(...)`` — generator run while the VM executes on the
  source; returns the residual bytes to move during downtime.
* ``post_control(...)`` — generator run after the VM resumed on the
  destination (no-op for pre-copy; the bulk transfer for post-copy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.netsim.flows import Fabric
from repro.netsim.topology import Host
from repro.simkernel.core import Environment

__all__ = [
    "AdaptivePrecopyMemory",
    "MemoryStats",
    "PostcopyMemory",
    "PrecopyMemory",
]


@dataclass
class MemoryStats:
    """What a memory migration did (attached to the MigrationRecord)."""

    rounds: int = 0
    bytes_sent: float = 0.0
    round_durations: list[float] = field(default_factory=list)


class PrecopyMemory:
    """QEMU-style iterative pre-copy.

    Round 1 ships the working set; round *i* ships what was dirtied during
    round *i-1*; iteration stops once the residual fits the downtime
    budget at the currently observed rate *and* the storage strategy is
    ready for control (pre-copy block migration keeps the loop alive until
    its own backlog drains).  A round cap forces convergence for workloads
    that dirty memory faster than the fabric drains it.

    ``delta_ratio`` > 1 models delta/run-length compression of re-sent
    pages (XBZRLE; Svärd et al. [29]): rounds after the first carry mostly
    previously-sent pages whose diffs compress, shrinking their wire
    bytes by that factor.
    """

    def __init__(
        self,
        downtime_target: float = 0.05,
        max_rounds: int = 30,
        poll_interval: float = 0.25,
        delta_ratio: float = 1.0,
    ):
        if downtime_target <= 0:
            raise ValueError("downtime_target must be positive")
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if delta_ratio < 1.0:
            raise ValueError("delta_ratio must be >= 1")
        self.downtime_target = float(downtime_target)
        self.max_rounds = int(max_rounds)
        self.poll_interval = float(poll_interval)
        self.delta_ratio = float(delta_ratio)

    def pre_control(
        self,
        env: Environment,
        fabric: Fabric,
        vm,
        src: Host,
        dst: Host,
        storage_mgr,
        stats: MemoryStats,
    ) -> Generator:
        remaining = vm.working_set
        rate = min(src.nic_out, dst.nic_in)  # initial estimate
        while True:
            ready = storage_mgr.ready_for_control()
            converged = remaining <= self.downtime_target * rate
            if converged and ready:
                break
            if converged:
                # Memory is converged but storage is not: idle-poll while
                # dirtying continues to accrue (re-enter a round if the
                # accrual outgrows the downtime budget again).
                yield env.probe.causal_tag(env.timeout(self.poll_interval),
                                           "stall.storage_backlog")
                remaining = min(
                    remaining + vm.dirty_rate * self.poll_interval,
                    vm.working_set,
                )
                continue
            if stats.rounds >= self.max_rounds and ready:
                break  # forced memory convergence: pay a long downtime
            stats.rounds += 1
            self._before_round(vm, stats)
            # Re-sent pages (every round after the first) delta-compress.
            wire = remaining if stats.rounds == 1 else remaining / self.delta_ratio
            t0 = env.now
            yield fabric.transfer(src, dst, wire, tag="memory", cause="memory")
            dur = env.now - t0
            stats.bytes_sent += wire
            stats.round_durations.append(dur)
            if dur > 0:
                rate = remaining / dur
            remaining = min(vm.dirty_rate * dur, vm.working_set)
            p = env.probe
            if p.enabled:
                p.memory_round(vm.name, t0, stats.rounds, wire, remaining,
                               vm.dirty_rate)
        self._after_rounds(vm)
        return remaining

    def _before_round(self, vm, stats: MemoryStats) -> None:
        """Subclass hook, called as each transfer round starts."""

    def _after_rounds(self, vm) -> None:
        """Subclass hook, called once the pre-control phase ends."""

    def post_control(
        self,
        env: Environment,
        fabric: Fabric,
        vm,
        src: Host,
        dst: Host,
        stats: MemoryStats,
    ) -> Generator:
        return
        yield  # pragma: no cover


class AdaptivePrecopyMemory(PrecopyMemory):
    """Optimized pre-copy with guaranteed convergence (Ibrahim et al. [16]
    / QEMU auto-converge).

    Watches per-round progress; when the dirty volume stops shrinking
    (round *i* carries at least ``stall_fraction`` of round *i-1*) for
    ``stall_rounds`` consecutive rounds, the guest is throttled in
    increments of ``throttle_step`` (up to ``throttle_max``), damping its
    dirty rate until the iteration converges.  The throttle is lifted when
    the pre-control phase ends.
    """

    def __init__(
        self,
        *args,
        stall_fraction: float = 0.7,
        stall_rounds: int = 2,
        throttle_step: float = 0.2,
        throttle_max: float = 0.8,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if not 0 < stall_fraction <= 1:
            raise ValueError("stall_fraction must lie in (0, 1]")
        if not 0 < throttle_step <= throttle_max < 1:
            raise ValueError("need 0 < throttle_step <= throttle_max < 1")
        self.stall_fraction = float(stall_fraction)
        self.stall_rounds = int(stall_rounds)
        self.throttle_step = float(throttle_step)
        self.throttle_max = float(throttle_max)
        self._stalled = 0
        self._last_round_bytes: float | None = None
        #: Peak throttle applied (diagnostics).
        self.max_throttle_applied = 0.0

    def _before_round(self, vm, stats: MemoryStats) -> None:
        if stats.rounds == 1:
            # Fresh migration: reset the monitor.
            self._stalled = 0
            self._last_round_bytes = None
            return
        # The dirty volume this round will carry, given the last round's
        # duration and the current (possibly already throttled) dirty rate.
        dirty_next = vm.dirty_rate * stats.round_durations[-1]
        if self._last_round_bytes is not None:
            if dirty_next >= self.stall_fraction * self._last_round_bytes:
                self._stalled += 1
            else:
                self._stalled = 0
            if self._stalled >= self.stall_rounds:
                vm.cpu_throttle = min(
                    vm.cpu_throttle + self.throttle_step, self.throttle_max
                )
                self.max_throttle_applied = max(
                    self.max_throttle_applied, vm.cpu_throttle
                )
                self._stalled = 0
        self._last_round_bytes = dirty_next

    def _after_rounds(self, vm) -> None:
        vm.cpu_throttle = 0.0


class PostcopyMemory:
    """Post-copy memory transfer (the paper's future-work direction).

    Control moves almost immediately (one minimal-state round); the full
    working set is then pulled in the background from the passive source.
    Each page crosses the wire exactly once, so convergence is guaranteed
    regardless of the dirty rate.
    """

    def __init__(self, bootstrap_bytes: float = 8 * 2**20):
        if bootstrap_bytes < 0:
            raise ValueError("bootstrap_bytes must be non-negative")
        self.bootstrap_bytes = float(bootstrap_bytes)

    def pre_control(
        self,
        env: Environment,
        fabric: Fabric,
        vm,
        src: Host,
        dst: Host,
        storage_mgr,
        stats: MemoryStats,
    ) -> Generator:
        # Wait for the storage strategy's pre-control work (e.g. the mirror
        # bulk copy); memory itself ships nothing yet.
        while not storage_mgr.ready_for_control():
            yield env.probe.causal_tag(env.timeout(0.25),
                                       "stall.storage_backlog")
        # Device state + non-pageable kernel pages move during downtime.
        return self.bootstrap_bytes
        yield  # pragma: no cover

    def post_control(
        self,
        env: Environment,
        fabric: Fabric,
        vm,
        src: Host,
        dst: Host,
        stats: MemoryStats,
    ) -> Generator:
        stats.rounds += 1
        nbytes = max(vm.working_set - self.bootstrap_bytes, 0.0)
        if nbytes > 0:
            t0 = env.now
            yield fabric.transfer(src, dst, nbytes, tag="memory", cause="memory")
            stats.round_durations.append(env.now - t0)
            stats.bytes_sent += nbytes
            p = env.probe
            if p.enabled:
                p.memory_postcopy(vm.name, t0, nbytes, stats.rounds)
