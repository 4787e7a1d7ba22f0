"""The live fabric: flows, byte integration, rate recomputation.

The :class:`Fabric` keeps the set of in-flight flows.  Whenever the set
changes (a transfer starts or completes) it

1. integrates every flow's progress at the previous rates up to *now*
   (crediting the traffic meter),
2. recomputes the weighted max-min fair rates via progressive filling,
3. schedules a wakeup at the earliest next completion.

A caller that starts several flows at one instant wraps them in
:meth:`Fabric.batch`, so steps 2 and 3 run once for all of them.

This makes interference between memory migration, storage push/pull,
repository fetches and guest remote I/O fully emergent: they are just flows
competing for NICs and the backplane.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

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


class NetFlow:
    """One in-flight bulk transfer."""

    __slots__ = ("src", "dst", "tag", "cause", "weight", "nbytes", "remaining",
                 "rate", "done", "started_at", "_accounted")

    def __init__(
        self,
        env: Environment,
        src: Host,
        dst: Host,
        nbytes: float,
        tag: str,
        weight: float,
        cause: Optional[str] = None,
    ):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.cause = cause if cause is not None else tag
        self.weight = float(weight)
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.done = Event(env)
        self.started_at = env.now
        self._accounted = 0.0

    def __repr__(self) -> str:
        return (
            f"<NetFlow {self.src.name}->{self.dst.name} tag={self.tag} "
            f"{self.remaining:.0f}/{self.nbytes:.0f}B @{self.rate:.0f}B/s>"
        )


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
        self._flows: list[NetFlow] = []
        self._last_update = env.now
        self._timer = RearmableTimer(env, self._on_wakeup)
        self._cause_override: list[str] = []
        #: Memoized, touched-host-compacted max-min solver.
        self._maxmin = IncrementalMaxMin(topology)
        #: Dirty-link tracking: set when the flow set changes, checked
        #: together with ``topology.version`` so a clean ``_recompute``
        #: (fault-driven ``sync()``, wakeups with no completions) is a
        #: no-op — the standing rates are still the solution.
        self._dirty = True
        self._topo_version_seen = -1
        #: Open :meth:`batch` scopes, and whether a flow joined inside one.
        self._batch_depth = 0
        self._batch_pending = False

    @contextmanager
    def batch(self):
        """Start several flows at this instant with one reshare.

        Inside the scope :meth:`transfer` integrates and adds its flow as
        usual but defers the max-min solve and the wakeup; when the
        outermost scope exits, one reshare covers every flow that joined.
        This is exact: the body must not yield (simlint K405), so the clock
        cannot move and no other process runs, each skipped solve would
        have integrated zero bytes, and the final solve sees the same flow
        list, in the same order, as the last per-transfer solve would.  The
        reshare runs even when the body raises, so legs started before the
        exception still get rates.
        """
        self._batch_depth += 1
        try:
            yield
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0 and self._batch_pending:
                self._batch_pending = False
                self._recompute()
                self._reschedule()

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

    def _resolve_cause(self, cause: Optional[str], tag: str) -> str:
        if self._cause_override:
            return self._cause_override[-1]
        if cause is not None:
            return cause
        return tag

    # -- public ------------------------------------------------------------
    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def flow_rates(self) -> dict[str, float]:
        """Snapshot ``{src->dst/tag: rate}`` for diagnostics."""
        return {
            f"{fl.src.name}->{fl.dst.name}/{fl.tag}": fl.rate for fl in self._flows
        }

    def host_load(self, host: Host) -> tuple[float, float]:
        """Current (ingress, egress) flow rates touching ``host`` in bytes/s.

        Used by the CPU-coupling model: moving bytes costs host CPU
        (vhost/softirq work), which slows guest compute proportionally.
        """
        inbound = sum(fl.rate for fl in self._flows if fl.dst is host)
        outbound = sum(fl.rate for fl in self._flows if fl.src is host)
        return inbound, outbound

    def sync(self) -> None:
        """Integrate all in-flight flows' progress up to *now*.

        The traffic meter is updated lazily (at flow arrivals/departures);
        fault hooks call this when capacities change mid-transfer.
        """
        self._advance()
        self._recompute()
        self._reschedule()

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
        :meth:`cause_scope` override, then to the tag itself.  Inside a
        :meth:`batch` the new flow's rate is set when the batch exits.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if weight <= 0:
            raise ValueError("weight must be positive")
        cause = self._resolve_cause(cause, tag)
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
        self._flows.append(flow)
        self._dirty = True
        if self._batch_depth:
            self._batch_pending = True
        else:
            self._recompute()
            self._reschedule()
        return flow.done

    def message(self, src: Host, dst: Host, nbytes: float = 512,
                tag: str = "control", cause: Optional[str] = None) -> Event:
        """A small control message: one latency plus serialization at NIC speed.

        Control messages are not pushed through the fluid scheduler — they
        are tiny compared to bulk flows and modeling them as flows would only
        add noise and event churn.
        """
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
        if flow is None or flow not in self._flows:
            return False
        self._advance()
        if flow not in self._flows:
            return False  # crossed the finish line at the integration step
        self._flows.remove(flow)
        self._dirty = True
        p = self.env.probe
        if p.enabled:
            p.flow_cancelled(flow)
        self._recompute()
        self._reschedule()
        return True

    def abort_flows(self, host: Host) -> int:
        """Tear down every in-flight flow touching ``host`` (node crash).

        Each aborted flow's ``done`` event stays pending forever — its
        waiters recover through their own timeout/retry machinery.
        Returns the number of flows removed.
        """
        self._advance()
        doomed = [fl for fl in self._flows if fl.src is host or fl.dst is host]
        if not doomed:
            return 0
        for fl in doomed:
            self._flows.remove(fl)
        self._dirty = True
        p = self.env.probe
        if p.enabled:
            p.flows_aborted(host, len(doomed))
        self._recompute()
        self._reschedule()
        return len(doomed)

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

    # -- internals -----------------------------------------------------------
    def _advance(self) -> None:
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._flows:
            return
        p = self.env.probe
        if p.enabled:
            p.fabric_advance(len(self._flows))
        try:
            finished: list[NetFlow] = []
            for fl in self._flows:
                moved = min(fl.rate * dt, fl.remaining)
                fl.remaining -= moved
                fl._accounted += moved
                self.meter.add(fl.tag, moved, cause=fl.cause)
                if p.enabled:
                    p.net_credit(fl.tag, fl.cause, moved)
                if fl.remaining <= _DONE_EPS:
                    fl.remaining = 0.0
                    finished.append(fl)
            if finished:
                self._dirty = True
            for fl in finished:
                self._flows.remove(fl)
                # Credit any residual rounding so accounting is exact.
                if fl._accounted < fl.nbytes:
                    residual = fl.nbytes - fl._accounted
                    self.meter.add(fl.tag, residual, cause=fl.cause)
                    if p.enabled:
                        p.net_credit(fl.tag, fl.cause, residual)
                    fl._accounted = fl.nbytes
                if p.enabled:
                    p.flow_done(fl)
                fl.done.succeed(self.env.now - fl.started_at)
        finally:
            if p.enabled:
                p.scope_end()

    def _recompute(self) -> None:
        p = self.env.probe
        if p.enabled:
            p.fabric_reshare(len(self._flows))
        topo = self.topology
        if not self._flows:
            self._dirty = False
            self._topo_version_seen = topo.version
            return
        if not self._dirty and self._topo_version_seen == topo.version:
            # Same flow set, same capacities: the standing rates are still
            # the max-min solution.  The dirty flag is driven by every
            # mutation path (transfer/cancel/abort/completion) and the
            # topology epoch by every fault hook, so skipping here can
            # never serve a stale rate — tests/faults/test_fault_
            # invalidation.py holds that line.
            if p.enabled:
                p.maxmin_cache_hit()
            return
        # The solver's stats out-param (kept only while profiling).
        stats = None
        if p.enabled:
            stats = p.fabric_recompute(len(self._flows))
        try:
            # Coalesce same-(src, dst, traffic-class) flows into one solver
            # variable of the summed weight.  Members of such a group cross
            # *identical* constraint sets, so under weighted max-min they
            # rise and freeze together and the group allocation splits
            # proportionally to member weights — the coalesced solve is
            # mathematically the per-flow solve, at a fraction of the
            # variable count.
            group_key: dict[tuple[int, int, str], int] = {}
            g_srcs: list[int] = []
            g_dsts: list[int] = []
            g_weights: list[float] = []
            members: list[list[NetFlow]] = []
            for fl in self._flows:
                key = (fl.src.index, fl.dst.index, fl.tag)
                gi = group_key.get(key)
                if gi is None:
                    group_key[key] = len(g_srcs)
                    g_srcs.append(fl.src.index)
                    g_dsts.append(fl.dst.index)
                    g_weights.append(fl.weight)
                    members.append([fl])
                else:
                    g_weights[gi] += fl.weight
                    members[gi].append(fl)
            srcs = np.array(g_srcs, dtype=np.intp)
            dsts = np.array(g_dsts, dtype=np.intp)
            weights = np.array(g_weights, dtype=np.float64)
            rates = self._maxmin.solve(weights, srcs, dsts, stats=stats)
            for gi in range(len(members)):
                group = members[gi]
                rate = float(rates[gi])
                if len(group) == 1:
                    group[0].rate = rate
                else:
                    total_w = g_weights[gi]
                    for fl in group:
                        fl.rate = rate * (fl.weight / total_w)
            if p.enabled:
                p.fabric_rates(self._flows)
            self._dirty = False
            self._topo_version_seen = topo.version
        finally:
            if stats is not None:
                p.fabric_recompute_end(stats)

    def _reschedule(self) -> None:
        if not self._flows:
            self._timer.cancel()
            return
        eta = min(
            (fl.remaining / fl.rate for fl in self._flows if fl.rate > 0),
            default=None,
        )
        if eta is None:
            # Degenerate: every flow throttled to zero (cannot normally
            # happen with positive capacities); retry after a tick rather
            # than deadlock.
            eta = 1.0
        self._timer.arm(max(eta, _MIN_ETA))

    def _on_wakeup(self) -> None:
        self._advance()
        self._recompute()
        self._reschedule()
