"""The live fabric: flows, byte integration, rate recomputation.

The :class:`Fabric` keeps the set of in-flight flows.  Whenever the set
changes (a transfer starts or completes) it

1. integrates every flow's progress at the previous rates up to *now*
   (crediting the traffic meter),
2. recomputes the weighted max-min fair rates via progressive filling,
3. schedules a wakeup at the earliest next completion.

Step 1 runs at each change; steps 2 and 3, the *settle*, run once per
simulated instant, when nothing more is due now
(:meth:`~repro.simkernel.core.Environment.at_instant_end`), or earlier
when a rate is read.

The in-flight flows form a struct-of-arrays table: ``Fabric._flows`` lists
the :class:`NetFlow` handles in arrival order, aligned with the first
``n`` columns of one float table (weight, remaining, rate, accounted) and
one integer table (arrival number, source, destination, meter cell).
Step 2 hands the weight, source and destination columns to the solver, one
variable per flow.  Steps 1 and 3 are a few whole-array operations that
repeat the per-flow scalar arithmetic element by element, so results are
bit-identical to a loop over the flows.  Up to :data:`_LOOP_MAX` flows they
run as that loop instead: numpy's per-call cost would outweigh the
arithmetic.  ``docs/architecture.md`` §2 gives the exactness rules.

This makes interference between memory migration, storage push/pull,
repository fetches and guest remote I/O fully emergent: they are just flows
competing for NICs and the backplane.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Optional, Sequence, TypeVar

import numpy as np

from repro.netsim.fairness import IncrementalMaxMin
from repro.netsim.topology import Host, Topology
from repro.netsim.traffic import TrafficMeter
from repro.obs.causal.record import annotate
from repro.simkernel.core import Environment, Event
from repro.simkernel.events import RearmableTimer

__all__ = ["NetFlow", "Fabric"]

# Bytes below which a flow counts as finished: far below any chunk, far
# above float64 rounding on multi-GB transfers.
_DONE_EPS = 1e-3
# Minimum wakeup delta, so the clock always advances past float spacing.
_MIN_ETA = 1e-9
#: Largest flow count integrated and scanned for the next completion by a
#: per-flow loop rather than by whole-array operations: numpy's ~1-2 us
#: per call loses to scalar arithmetic on a few flows.  Measured per
#: fabric event, the loop is ahead up to 16 flows and the arrays from 24.
_LOOP_MAX = 16
# Row of ``remaining`` in the float table; ``rate`` and ``accounted``
# follow it, so the per-flow loops read the three as one block.
_REMAINING = 1

_Label = TypeVar("_Label")


def _label_sums(labels: np.ndarray, values: np.ndarray,
                names: Sequence[_Label]) -> dict[_Label, float]:
    """``{names[j]: sum of values[i] over labels[i] == j}`` for each label
    present; ``np.bincount`` adds each label's values in row order."""
    total = np.bincount(labels, values, len(names)).tolist()
    present = np.flatnonzero(np.bincount(labels, minlength=len(names)))
    return {names[j]: total[j] for j in present.tolist()}


class NetFlow:
    """One bulk transfer: a handle on its row of the fabric's flow table.

    While the flow is in flight, :attr:`rate` and :attr:`remaining` read
    its row; when it leaves the table (completed, cancelled or aborted)
    their last values stay on the handle.
    """

    __slots__ = ("src", "dst", "tag", "cause", "weight", "nbytes", "done",
                 "started_at", "_leg", "_fabric", "_arrival", "_cell",
                 "_rate", "_remaining")

    def __init__(
        self,
        env: Environment,
        src: Host,
        dst: Host,
        nbytes: float,
        tag: str,
        weight: float,
        cause: Optional[str] = None,
        fan_out: Optional["_FanOut"] = None,
        leg: int = 0,
    ):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.cause = cause if cause is not None else tag
        self.weight = float(weight)
        self.nbytes = float(nbytes)
        #: What the flow's completion triggers: its own event, or the one
        #: event of the :meth:`Fabric.transfer_many` whose leg number
        #: ``_leg`` it is (``None`` for a lone flow).
        if fan_out is None:
            self.done: Event = Event(env)
            self._leg: Optional[int] = None
        else:
            self.done = fan_out
            self._leg = leg
        self.started_at = env.now
        #: The fabric whose table holds the flow, while it is in flight.
        #: Joining a table also sets ``_arrival`` (the table is sorted on
        #: it) and ``_cell``, copies of the flow's row.
        self._fabric: Optional[Fabric] = None
        self._rate = 0.0
        self._remaining = self.nbytes

    @property
    def rate(self) -> float:
        fabric = self._fabric
        if fabric is None:
            return self._rate
        fabric._settle()
        return fabric._rate.item(fabric._slot(self))

    @property
    def remaining(self) -> float:
        fabric = self._fabric
        if fabric is None:
            return self._remaining
        return fabric._remaining.item(fabric._slot(self))

    def __repr__(self) -> str:
        return (
            f"<NetFlow {self.src.name}->{self.dst.name} tag={self.tag} "
            f"{self.remaining:.0f}/{self.nbytes:.0f}B @{self.rate:.0f}B/s>"
        )


class _FanOut(Event):
    """The one completion event of :meth:`Fabric.transfer_many`.

    ``durations`` lists every leg's duration in leg order (0.0 for a leg
    done at once) and ``pending`` counts the legs still to complete.  The
    last leg's completion succeeds the event with ``durations`` where that
    leg's own ``done`` would have succeeded, so it takes that queue slot.
    """

    __slots__ = ("durations", "pending")

    def __init__(self, env: Environment, legs: int) -> None:
        super().__init__(env)
        self.durations = [0.0] * legs
        self.pending = 0

    def leg_done(self, leg: int, duration: float) -> None:
        self.durations[leg] = duration
        self.pending -= 1
        if not self.pending:
            self.succeed(self.durations)


class Fabric:
    """Flow-level network over a :class:`Topology`.

    Parameters
    ----------
    env:
        Simulation environment.
    topology:
        Hosts and capacity constraints.
    latency:
        One-way message latency in seconds (0.1 ms on the paper's GbE).
    meter:
        Traffic accounting sink; a fresh one is created when omitted.
    """

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        latency: float = 1e-4,
        meter: Optional[TrafficMeter] = None,
    ):
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.env = env
        self.topology = topology
        self.latency = float(latency)
        self.meter = meter if meter is not None else TrafficMeter()
        #: In-flight flows in arrival order, aligned with the first
        #: ``_n`` columns of the tables.
        self._flows: list[NetFlow] = []
        self._n = 0
        self._arrivals = 0
        #: In-flight flows per host index, counting a flow at its source
        #: and at its destination.
        self._touching: dict[int, int] = {}
        self._cap = 8
        self._ftab = np.zeros((4, self._cap))
        self._itab = np.zeros((4, self._cap), dtype=np.intp)
        self._bind_rows()
        self._last_update = env.now
        self._timer = RearmableTimer(env, self._on_wakeup)
        self._cause_override: list[str] = []
        #: Memoized max-min solver.
        self._maxmin = IncrementalMaxMin(topology)
        #: A settle is registered for this instant and not yet run, and
        #: the sequence number reserved for the wakeup it will arm.
        self._settling = False
        self._wake_seq = 0

    def _bind_rows(self) -> None:
        """Name the table rows (views, rebound when the tables grow)."""
        self._weight, self._remaining, self._rate, self._accounted = self._ftab
        self._arrival, self._src, self._dst, self._cell = self._itab

    @contextmanager
    def cause_scope(self, cause: str):
        """Attribute every transfer/message *created* inside the scope to
        ``cause`` — even calls passing an explicit cause of their own.

        Retry machinery uses this: a retried batch re-runs the same
        closures as the first attempt (which label their flows ``push``,
        ``prefetch``, ...), so the override — rather than a parameter
        threaded through every closure — marks the re-sent bytes as
        ``retry.<label>``.  Only flow *creation* is scoped; a flow keeps
        its cause for its whole lifetime.
        """
        self._cause_override.append(cause)
        try:
            yield
        finally:
            self._cause_override.pop()

    def _validate(self, nbytes: float, tag: str, cause: Optional[str]) -> str:
        """Check a transfer's size; returns its cause."""
        # Chained comparisons are False for NaN as well as out of range.
        if not 0 <= nbytes < math.inf:
            raise ValueError("nbytes must be finite and non-negative")
        return self._resolve_cause(cause, tag)

    def _resolve_cause(self, cause: Optional[str], tag: str) -> str:
        if self._cause_override:
            return self._cause_override[-1]
        if cause is not None:
            return cause
        return tag

    # -- public ------------------------------------------------------------
    @property
    def active_flows(self) -> int:
        return self._n

    def host_load(self, host: Host) -> tuple[float, float]:
        """Current (ingress, egress) flow rates touching ``host`` in bytes/s.

        Used by the CPU-coupling model: moving bytes costs host CPU
        (vhost/softirq work), which slows guest compute proportionally.
        ``np.bincount`` adds each host's rates in arrival order, one at a
        time, as a running sum over the flows would.  A host that no
        in-flight flow touches reads ``(0.0, 0.0)`` without settling: the
        read needs no rate, and the pending settle still runs at the end
        of the instant on the same flows.
        """
        if not self._touching.get(host.index):
            return 0.0, 0.0
        self._settle()
        n = self._n
        rate = self._rate[:n]
        size = host.index + 1
        inbound = np.bincount(self._dst[:n], rate, size)[host.index]
        outbound = np.bincount(self._src[:n], rate, size)[host.index]
        return float(inbound), float(outbound)

    def rate_sums(self) -> tuple[dict[str, float], dict[Host, float],
                                 dict[Host, float]]:
        """The standing rates summed per tag, per source host and per
        destination host, over the tags and hosts that carry a flow."""
        self._settle()
        n = self._n
        rate = self._rate[:n]
        cell_tags = self.meter.cell_tags()
        tags = sorted(set(cell_tags))
        tag_no = {tag: i for i, tag in enumerate(tags)}
        cell_tag = np.array([tag_no[tag] for tag in cell_tags], dtype=np.intp)
        hosts = self.topology.hosts
        return (_label_sums(cell_tag[self._cell[:n]], rate, tags),
                _label_sums(self._src[:n], rate, hosts),
                _label_sums(self._dst[:n], rate, hosts))

    def sync(self) -> None:
        """Integrate all in-flight flows' progress up to *now*.

        The traffic meter is updated lazily (at flow arrivals/departures);
        fault hooks call this when capacities change mid-transfer.
        """
        self._advance()
        self._request_settle()

    def transfer(
        self,
        src: Host,
        dst: Host,
        nbytes: float,
        tag: str = "data",
        weight: float = 1.0,
        cause: Optional[str] = None,
    ) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst`` as a fluid flow.

        Returns an event that fires (with the elapsed duration as value)
        when the last byte has arrived.  Loopback transfers (``src is dst``)
        complete immediately and generate no traffic.

        ``cause`` labels *why* the bytes move (``push``, ``prefetch``,
        ``pull.demand``, ...); it defaults to the innermost
        :meth:`cause_scope` override, then to the tag itself.  Flows
        started at one instant share one reshare; a fan-out whose legs
        are waited on together is :meth:`transfer_many`.
        """
        cause = self._validate(nbytes, tag, cause)
        if not 0 < weight < math.inf:
            raise ValueError("weight must be finite and positive")
        if src is dst:
            ev = Event(self.env)
            ev.succeed(0.0)
            return ev
        if src.failed or dst.failed:
            return self._black_hole(src, dst, tag, cause)
        flow = NetFlow(self.env, src, dst, nbytes, tag, weight, cause)
        if nbytes == 0:
            flow.done.succeed(0.0)
            return flow.done
        # Handle back to the flow, so Fabric.cancel() can find and
        # abandon it from just the returned event.
        flow.done.flow = flow
        annotate(self.env, flow.done, "net.flow",
                 tag=tag, cause=cause, src=src.name, dst=dst.name)
        self._advance()
        self._start([flow])
        return flow.done

    def transfer_many(
        self,
        srcs: Sequence[Host],
        dsts: Sequence[Host],
        nbytes: float,
        tag: str = "data",
        cause: Optional[str] = None,
    ) -> Event:
        """Move ``nbytes`` along each leg ``srcs[i] -> dsts[i]`` at once.

        One validation, one integration step, one pass over the flow table
        and one settle request start all the legs, and one event stands
        for them: it fires when the last leg completes, in the queue slot
        that leg's own :meth:`transfer` event would have taken, with the
        legs' durations in leg order as its value.  So
        ``env.all_of([event])`` resumes its waiter exactly where
        ``all_of`` over per-leg transfers would.  Every leg has weight 1.

        Loopback and zero-byte legs count as done at once.  A leg that
        touches a failed host (black-holed), or one that
        :meth:`abort_flows` removes, leaves the event pending forever, as
        it would leave an ``all_of`` over per-leg transfers.
        :meth:`cancel` does not take the event.
        """
        if len(srcs) != len(dsts):
            raise ValueError("srcs and dsts must have the same length")
        cause = self._validate(nbytes, tag, cause)
        env = self.env
        done = _FanOut(env, len(srcs))
        legs: list[NetFlow] = []
        for leg, (src, dst) in enumerate(zip(srcs, dsts)):
            if src is dst:
                continue
            if src.failed or dst.failed:
                self._black_hole(src, dst, tag, cause)
                done.pending += 1
            elif nbytes:
                if not legs:
                    # Where the first per-leg transfer would integrate.
                    self._advance()
                legs.append(NetFlow(env, src, dst, nbytes, tag, 1.0, cause,
                                    done, leg))
        if done.pending:
            annotate(env, done, "net.blackhole", tag=tag, cause=cause)
        elif legs:
            annotate(env, done, "net.flow", tag=tag, cause=cause)
        else:
            done.succeed(done.durations)
        if legs:
            done.pending += len(legs)
            self._start(legs)
        return done

    def message(self, src: Host, dst: Host, nbytes: float = 512,
                tag: str = "control", cause: Optional[str] = None) -> Event:
        """A small control message: one latency plus serialization at NIC speed.

        Control messages are not pushed through the fluid scheduler — they
        are tiny compared to bulk flows and modeling them as flows would only
        add noise and event churn.
        """
        if not 0 <= nbytes < math.inf:
            raise ValueError("nbytes must be finite and non-negative")
        cause = self._resolve_cause(cause, tag)
        if src is dst:
            ev = Event(self.env)
            ev.succeed(0.0)
            return ev
        if src.failed or dst.failed:
            return self._black_hole(src, dst, tag, cause)
        cap = min(src.nic_out, dst.nic_in)
        if cap <= 0:
            # Fully partitioned link: the message is lost in transit.
            return self._black_hole(src, dst, tag, cause)
        self.meter.add(tag, nbytes, cause=cause)
        p = self.env.probe
        if p.enabled:
            p.net_message(tag, cause, src, dst, nbytes)
        wire = nbytes / cap
        return annotate(self.env, self.env.timeout(self.latency + wire),
                        "net.message", tag=tag, cause=cause)

    def cancel(self, done_event: Event) -> bool:
        """Abandon the in-flight flow behind ``done_event`` (a value
        previously returned by :meth:`transfer`).

        Bytes moved so far stay credited to the traffic meter; the event
        is left pending forever — failing it would crash waiters that
        already gave up on it, and a pending event not in the queue never
        blocks ``env.run()``.  Returns ``True`` when a live flow was
        actually removed (``False`` for completed flows, black-holed
        transfers and non-flow events).
        """
        flow = getattr(done_event, "flow", None)
        if flow is None or flow._fabric is not self:
            return False
        self._advance()
        if flow._fabric is not self:
            return False  # crossed the finish line at the integration step
        self._drop([self._slot(flow)])
        p = self.env.probe
        if p.enabled:
            p.flow_cancelled(flow)
        self._request_settle()
        return True

    def abort_flows(self, host: Host) -> int:
        """Tear down every in-flight flow touching ``host`` (node crash).

        Each aborted flow's ``done`` event stays pending forever — its
        waiters recover through their own timeout/retry machinery.
        Returns the number of flows removed.
        """
        self._advance()
        n = self._n
        h = host.index
        doomed = np.flatnonzero((self._src[:n] == h) | (self._dst[:n] == h))
        if not doomed.size:
            return 0
        self._drop(doomed.tolist())
        p = self.env.probe
        if p.enabled:
            p.flows_aborted(host, int(doomed.size))
        self._request_settle()
        return int(doomed.size)

    def _black_hole(self, src: Host, dst: Host, tag: str,
                    cause: Optional[str] = None) -> Event:
        """A transfer or message touching a crashed/partitioned endpoint:
        it never completes and moves no bytes.  The returned event stays
        pending forever — the caller's timeout/abort machinery is the
        only recovery path."""
        if cause is None:
            cause = tag
        p = self.env.probe
        if p.enabled:
            p.flow_blackholed(src, dst, tag, cause)
        return annotate(self.env, Event(self.env), "net.blackhole",
                        tag=tag, cause=cause)

    # -- the flow table --------------------------------------------------------
    def _start(self, flows: list[NetFlow]) -> None:
        """Append ``flows``, which share one tag and cause, as the table's
        last rows in one pass, and ask for one settle.  The table must be
        integrated up to now."""
        first = flows[0]
        cell = self.meter.cell(first.tag, first.cause)
        n = self._n
        end = n + len(flows)
        while end > self._cap:
            self._cap *= 2
            self._ftab = np.concatenate((self._ftab, self._ftab), axis=1)
            self._itab = np.concatenate((self._itab, self._itab), axis=1)
            self._bind_rows()
        weight, remaining, rate = self._weight, self._remaining, self._rate
        accounted, arrival = self._accounted, self._arrival
        src, dst, cells = self._src, self._dst, self._cell
        touching = self._touching
        arrivals = self._arrivals
        for flow in flows:
            arrivals += 1
            flow._fabric = self
            flow._arrival = arrivals
            flow._cell = cell
            weight[n] = flow.weight
            remaining[n] = flow.nbytes
            rate[n] = 0.0
            accounted[n] = 0.0
            arrival[n] = arrivals
            s, d = flow.src.index, flow.dst.index
            src[n] = s
            dst[n] = d
            touching[s] = touching.get(s, 0) + 1
            touching[d] = touching.get(d, 0) + 1
            cells[n] = cell
            n += 1
        self._arrivals = arrivals
        self._flows.extend(flows)
        self._n = end
        self._request_settle()

    def _slot(self, flow: NetFlow) -> int:
        """Table row of the in-flight ``flow``."""
        return int(np.searchsorted(self._arrival[:self._n], flow._arrival))

    def _drop(self, rows: list[int]) -> list[float]:
        """Take the flows at ascending ``rows`` out of the table, keeping
        the rest in arrival order; their handles keep their last rate and
        remaining bytes.  Returns their accounted bytes, row by row."""
        # The handles keep the rates a settle after the last change gives.
        self._settle()
        n = self._n
        flows = self._flows
        rate = self._rate
        remaining = self._remaining
        accounted = self._accounted
        touching = self._touching
        accs = []
        for i in rows:
            fl = flows[i]
            touching[fl.src.index] -= 1
            touching[fl.dst.index] -= 1
            fl._fabric = None
            fl._rate = rate.item(i)
            fl._remaining = remaining.item(i)
            accs.append(accounted.item(i))
        # Slide each run of kept rows behind a leaving row down over the
        # gap: rows leaving at the end move nothing.
        write = rows[0]
        for i, end in zip(rows, rows[1:] + [n]):
            size = end - i - 1
            if size:
                self._ftab[:, write:write + size] = self._ftab[:, i + 1:end]
                self._itab[:, write:write + size] = self._itab[:, i + 1:end]
                write += size
        for i in reversed(rows):
            del flows[i]
        self._n = n - len(rows)
        return accs

    # -- internals -----------------------------------------------------------
    def _advance(self) -> None:
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        n = self._n
        if dt <= 0 or not n:
            return
        p = self.env.probe
        if p.enabled:
            p.fabric_advance(n)
        try:
            finished = self._integrate(dt)
            if not finished:
                return
            gone = [self._flows[i] for i in finished]
            for fl, acc in zip(gone, self._drop(finished)):
                # Credit any residual rounding so accounting is exact.
                if acc < fl.nbytes:
                    residual = fl.nbytes - acc
                    self.meter.credit_cell(fl._cell, residual)
                    if p.enabled:
                        p.net_credit(fl.tag, fl.cause, residual)
                if p.enabled:
                    p.flow_done(fl)
                if fl._leg is None:
                    fl.done.succeed(now - fl.started_at)
                else:
                    fl.done.leg_done(fl._leg, now - fl.started_at)
        finally:
            if p.enabled:
                p.scope_end()

    def _integrate(self, dt: float) -> list[int]:
        """Move every flow ``dt`` seconds at its rate and credit the meter;
        returns the rows (ascending) of the flows that finished."""
        n = self._n
        p = self.env.probe
        if n <= _LOOP_MAX:
            rems, rates, accs = self._ftab[_REMAINING:, :n].tolist()
            remaining = self._remaining
            accounted = self._accounted
            credit = self.meter.credit_cell
            finished = []
            for i, fl in enumerate(self._flows):
                rem = rems[i]
                step = rates[i] * dt
                if rem < step:
                    step = rem
                rem -= step
                accounted[i] = accs[i] + step
                credit(fl._cell, step)
                if p.enabled:
                    p.net_credit(fl.tag, fl.cause, step)
                if rem <= _DONE_EPS:
                    rem = 0.0
                    finished.append(i)
                remaining[i] = rem
            return finished
        remaining = self._remaining[:n]
        step = np.minimum(self._rate[:n] * dt, remaining)
        remaining -= step
        self._accounted[:n] += step
        self.meter.credit(self._cell[:n], step)
        if p.enabled:
            p.net_credits(self._flows, step.tolist())
        if remaining.item(remaining.argmin()) > _DONE_EPS:
            return []
        done = np.flatnonzero(remaining <= _DONE_EPS)
        remaining[done] = 0.0
        return done.tolist()

    def _recompute(self) -> None:
        """Solve weighted max-min over the table, one variable per flow,
        and write the rate column."""
        p = self.env.probe
        n = self._n
        if p.enabled:
            p.fabric_reshare(n)
        if not n:
            return
        # The solver's stats out-param (kept only while profiling).
        stats = None
        if p.enabled:
            stats = p.fabric_recompute(n)
        try:
            self._rate[:n] = self._maxmin.solve(
                self._weight[:n], self._src[:n], self._dst[:n], stats=stats)
            if p.enabled:
                p.fabric_rates(self)
        finally:
            if stats is not None:
                p.fabric_recompute_end(stats)

    def _next_eta(self) -> Optional[float]:
        """Seconds until the first flow finishes at the standing rates,
        or ``None`` when every flow is throttled to zero."""
        n = self._n
        if n <= _LOOP_MAX:
            eta = None
            for rem, rate in zip(*self._ftab[_REMAINING:_REMAINING + 2, :n].tolist()):
                if rate > 0:
                    t = rem / rate
                    if eta is None or t < eta:
                        eta = t
            return eta
        rate = self._rate[:n]
        remaining = self._remaining[:n]
        if rate.item(rate.argmin()) > 0:
            etas = remaining / rate
        else:
            moving = rate > 0
            if not moving.any():
                return None
            etas = remaining[moving] / rate[moving]
        return etas.item(etas.argmin())

    def _reschedule(self) -> None:
        """Arm the wakeup for the earliest completion, at the sequence
        number the last change reserved."""
        if not self._n:
            return
        eta = self._next_eta()
        if eta is None:
            # Degenerate: every flow throttled to zero (cannot normally
            # happen with positive capacities); retry after a tick rather
            # than deadlock.
            eta = 1.0
        self._timer.arm(max(eta, _MIN_ETA), seq=self._wake_seq)

    def _request_settle(self) -> None:
        """After a change: drop the standing wakeup, reserve the number an
        arm made now would take, and settle once at the end of the instant.

        The settle solves the flow list the instant ends with, which is
        the list the last per-change solve would see; every solve it
        skips would have integrated zero bytes.  Arming at the last
        reserved number puts the wakeup where that change's arm would
        have put it, among the events scheduled since.
        """
        self._timer.cancel()
        if self._n:
            self._wake_seq = self.env.reserve_seq()
        if not self._settling:
            self._settling = True
            self.env.at_instant_end(self._settle)

    def _settle(self) -> None:
        """Reshare and re-arm for the changes of this instant, unless that
        is done; every reader of the rates calls it first."""
        if self._settling:
            self._settling = False
            self._recompute()
            self._reschedule()

    def _on_wakeup(self) -> None:
        self._advance()
        self._request_settle()
