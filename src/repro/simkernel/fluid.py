"""Equal-share fluid resource.

Models a single capacity constraint (a disk, a single link) shared by a
varying set of concurrent transfers: at any instant each of the ``k`` active
jobs progresses at ``weight_i / sum(weights) * capacity`` bytes/second
(processor sharing).  Whenever the job set changes, progress is integrated
up to *now* and the next completion re-scheduled.

This is the standard fluid approximation used by flow-level network and
storage simulators; it reproduces throughput/latency interference without
simulating individual requests.

The job state (remaining bytes, weights) is array-backed: integration and
the next-completion scan are numpy element-wise operations over the active
prefix instead of per-job Python arithmetic.  The element-wise expressions
mirror the scalar formulas exactly (same operations, same order per
element), so results are unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from repro.simkernel.core import Environment, Event
from repro.simkernel.events import RearmableTimer

__all__ = ["FluidShare", "FluidJob"]

#: Bytes below which a job counts as finished.  Far below any chunk size,
#: far above float64 rounding error on multi-GB transfers.
_DONE_EPS = 1e-3
#: Minimum wakeup delta: guarantees the clock actually advances even when
#: the analytic eta underflows float spacing at the current time.
_MIN_ETA = 1e-9


class FluidJob:
    """One in-flight transfer through a :class:`FluidShare`.

    The authoritative remaining-byte counter lives in the share's arrays;
    :attr:`remaining` is set at admission and zeroed at completion.
    """

    __slots__ = ("remaining", "weight", "done", "started_at")

    def __init__(self, env: Environment, nbytes: float, weight: float) -> None:
        self.remaining = float(nbytes)
        self.weight = float(weight)
        self.done = Event(env)
        self.started_at = env.now


class FluidShare:
    """A processor-sharing fluid server of fixed ``capacity`` bytes/second."""

    def __init__(self, env: Environment, capacity: float, name: str = "") -> None:
        if not 0 < capacity < math.inf:
            raise ValueError("capacity must be finite and positive")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        #: Active jobs, aligned with the first ``_n`` entries of the arrays.
        self._jobs: list[FluidJob] = []
        self._remaining = np.zeros(8)
        self._weights = np.zeros(8)
        self._n = 0
        self._last_update = env.now
        self._timer = RearmableTimer(env, self._on_wakeup)

    # -- public ------------------------------------------------------------
    @property
    def utilization(self) -> float:
        """1.0 while any job is active, else 0.0 (fluid model is work-conserving)."""
        return 1.0 if self._n else 0.0

    def transfer(self, nbytes: float, weight: float = 1.0) -> Event:
        """Start a transfer of ``nbytes``; returns its completion event."""
        if not 0 <= nbytes < math.inf:
            raise ValueError("nbytes must be finite and non-negative")
        if not 0 < weight < math.inf:
            raise ValueError("weight must be finite and positive")
        job = FluidJob(self.env, nbytes, weight)
        if nbytes == 0:
            job.done.succeed(0.0)
            return job.done
        self.env.probe.causal_tag(job.done, "fluid", name=self.name)
        self._advance()
        self._admit(job)
        self._reschedule()
        return job.done

    def set_capacity(self, capacity: float) -> None:
        """Change capacity on the fly (integrates progress first)."""
        if not 0 < capacity < math.inf:
            raise ValueError("capacity must be finite and positive")
        self._advance()
        self.capacity = float(capacity)
        self._reschedule()

    # -- internals -----------------------------------------------------------
    def _admit(self, job: FluidJob) -> None:
        n = self._n
        if n == self._remaining.shape[0]:
            self._remaining = np.resize(self._remaining, 2 * n)
            self._weights = np.resize(self._weights, 2 * n)
        self._remaining[n] = job.remaining
        self._weights[n] = job.weight
        self._jobs.append(job)
        self._n = n + 1

    def _advance(self) -> None:
        """Integrate all jobs' progress from the last update to now."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        n = self._n
        if dt <= 0 or n == 0:
            return
        p = self.env.probe
        if p.enabled:
            p.fluid_advance(n)
        try:
            moved = self.capacity * dt
            if n == 1:
                # Scalar fast path: the same operations the array
                # expression below performs at n == 1 (so results are
                # bit-identical), without per-call numpy overhead — a
                # lone job is the common case for disk shares.
                w = float(self._weights[0])
                r = float(self._remaining[0]) - (moved * w) / w
                if r <= _DONE_EPS:
                    job = self._jobs[0]
                    self._jobs = []
                    self._n = 0
                    job.remaining = 0.0
                    job.done.succeed(self.env.now - job.started_at)
                else:
                    self._remaining[0] = r
                return
            weights = self._weights[:n]
            remaining = self._remaining[:n]
            total_w = float(np.add.reduce(weights))
            # Element-wise identical to the scalar
            # ``remaining -= moved * weight / total_w`` per job.
            remaining -= moved * weights / total_w
            done_mask = remaining <= _DONE_EPS
            if done_mask.any():
                finished_idx = np.flatnonzero(done_mask)
                finished = [self._jobs[i] for i in finished_idx]
                keep = ~done_mask
                kept = n - finished_idx.size
                # Fancy indexing copies before the overlapping writeback.
                self._remaining[:kept] = remaining[keep]
                self._weights[:kept] = weights[keep]
                self._jobs = [self._jobs[i] for i in np.flatnonzero(keep)]
                self._n = kept
                for job in finished:
                    job.remaining = 0.0
                    job.done.succeed(self.env.now - job.started_at)
        finally:
            if p.enabled:
                p.scope_end()

    def _reschedule(self) -> None:
        """Re-aim the wakeup at the earliest next completion time."""
        n = self._n
        if n == 0:
            self._timer.cancel()
            return
        p = self.env.probe
        if p.enabled:
            p.fluid_reschedule()
        try:
            if n == 1:
                w = float(self._weights[0])
                eta = float(self._remaining[0]) / ((self.capacity * w) / w)
                self._timer.arm(max(eta, _MIN_ETA))
                return
            weights = self._weights[:n]
            total_w = float(np.add.reduce(weights))
            # Per unit of weight, all jobs progress at the same normalized
            # speed, so the first to finish is the one with min
            # remaining/rate; element-wise identical to the scalar
            # ``remaining / (capacity * weight / total_w)`` per job.
            etas = self._remaining[:n] / (self.capacity * weights / total_w)
            self._timer.arm(max(float(etas.min()), _MIN_ETA))
        finally:
            if p.enabled:
                p.scope_end()

    def _on_wakeup(self) -> None:
        self._advance()
        self._reschedule()

    def __repr__(self) -> str:
        return (
            f"<FluidShare {self.name or hex(id(self))} cap={self.capacity:.0f}B/s "
            f"jobs={self._n}>"
        )
