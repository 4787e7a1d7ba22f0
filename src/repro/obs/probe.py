"""One probe per simulation event: the simulator's only instrumentation hook.

Every :class:`~repro.simkernel.core.Environment` carries ``env.probe``.
An instrumented site makes one guarded call naming the event::

    p = self.env.probe
    if p.enabled:
        p.push_batch(self.vm.name, t0, int(batch.size), wire, self.remaining)

and the :class:`Probe` method renders that event into whichever backends
are live: a trace event (:mod:`repro.obs.tracer`), metric instruments
(:mod:`repro.obs.registry`), time-series signals (:mod:`repro.obs.series`)
and host-profiler scopes or work counters (:mod:`repro.obs.prof`).  The
whole telemetry vocabulary — trace names, categories, lanes and args,
metric names, signal names and units, profiler scope and counter names —
lives in this module; simulation code names events, never backends.

A backend that is off is absent (``None``), and a value only one backend
reads (a remaining-set sum, a write-count histogram, the per-link
allocation sample) is computed inside that backend's branch.  With every
backend off, ``env.probe`` is :data:`NULL_PROBE`: it carries no state and
every site costs one attribute load and a branch.

Probes observe and never act: no method stores into simulation state,
schedules an event or moves bytes, so a run is byte-identical with any
set of backends on (``tests/obs/test_integration.py``).  simlint's P
rules hold every ``if p.enabled:`` block in the simulation packages to
the same contract.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Any, Callable, ContextManager, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.causal.record import CausalRecorder
    from repro.obs.prof.core import Profiler
    from repro.obs.registry import MetricsRegistry
    from repro.obs.series.core import SeriesRecorder
    from repro.obs.tracer import Tracer

__all__ = ["NULL_PROBE", "Probe"]


class Probe:
    """Renders each simulation event into the live backends.

    Built by :class:`repro.obs.Observability` over its live backends and
    bound to an environment by ``Observability.install``.
    """

    __slots__ = ("tracer", "metrics", "series", "profiler", "causal",
                 "_verbose", "_env")

    enabled = True

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 series: Optional[SeriesRecorder] = None,
                 profiler: Optional[Profiler] = None) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.series = series
        self.profiler = profiler
        #: Causal wait recorder (``repro.obs.causal``), read by the
        #: kernel's resume hook and by :func:`~repro.obs.causal.annotate`.
        self.causal: Optional[CausalRecorder] = (
            tracer.causal if tracer is not None else None)
        self._verbose = tracer is not None and tracer.verbose
        self._env: Any = None

    def bind(self, env: Any) -> None:
        """Stamp subsequent events with ``env``'s clock."""
        self._env = env
        if self.tracer is not None:
            self.tracer.bind(env)

    def _count(self, name: str, n: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    # -- runs (Observability lifecycle) ------------------------------------
    @contextmanager
    def run(self, label: str, snapshots: dict[str, dict]) -> Iterator[None]:
        """One experiment run: its own trace lane; on exit the metric
        instruments are snapshotted into ``snapshots[label]`` and reset,
        and the series signals are closed as one run."""
        lane: ContextManager[object] = (
            self.tracer.scope(label) if self.tracer is not None
            else nullcontext())
        try:
            with lane:
                yield
        finally:
            if self.metrics is not None:
                snapshots[label] = self.metrics.snapshot()
                self.metrics.reset()
            if self.series is not None:
                self.series.finish_run(label)

    def traffic_snapshot(self, meter: Any) -> None:
        """A run's final TrafficMeter accounting."""
        if self.tracer is not None:
            pairs = sorted(meter.by_pair().items())
            self.tracer.instant(
                "traffic.snapshot", cat="net", tid="net:accounting",
                args={"pairs": [[t, c, v] for (t, c), v in pairs]})
        if self.series is not None:
            self.series.check_conservation(meter)
        if self.metrics is not None:
            for tag, nbytes in sorted(meter.by_tag().items()):
                self._count(f"net.bytes.{tag}", nbytes)
            for cause, nbytes in sorted(meter.by_cause().items()):
                self._count(f"net.cause.{cause}", nbytes)

    # -- kernel ------------------------------------------------------------
    def event_queued(self, now_bucket: bool) -> None:
        if self.profiler is not None:
            self.profiler.count("kernel.bucket_push" if now_bucket
                                else "kernel.heap_push")

    def step_begin(self) -> None:
        if self.profiler is not None:
            self.profiler.enter("kernel.step")

    def step_skipped(self, from_heap: bool) -> None:
        """A cancelled queue entry was dropped without delivery."""
        prof = self.profiler
        if prof is not None:
            prof.count("kernel.heap_pop" if from_heap else "kernel.bucket_pop")
            prof.count("kernel.cancelled_skips")

    def step_dispatch(self, env: Any, from_heap: bool,
                      n_callbacks: int) -> None:
        """An event is about to run its callbacks at ``env.now``."""
        prof = self.profiler
        if prof is not None:
            prof.count("kernel.heap_pop" if from_heap else "kernel.bucket_pop")
            prof.count("kernel.callbacks_run", n_callbacks)
        sr = self.series
        if sr is not None:
            sr.gauge("kernel.ready", env.now,
                     len(env._bucket_urgent) + len(env._bucket_normal),
                     unit="events")
            sr.gauge("kernel.heap", env.now, len(env._queue), unit="events")

    def scope_end(self) -> None:
        """Close the profiler scope the matching begin call opened."""
        if self.profiler is not None:
            self.profiler.exit()

    def process_start(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.instant("process.start", cat="kernel",
                                tid=f"proc:{name}")

    def process_finish(self, name: str, started_at: float,
                       outcome: str) -> None:
        if self.tracer is not None:
            self.tracer.complete(f"proc:{name}", started_at, self._env.now,
                                 cat="kernel", tid=f"proc:{name}",
                                 args={"outcome": outcome})

    def process_resume(self, name: str, wait_begin: Optional[float],
                       waited_on: Any) -> None:
        """A process resumes; ``waited_on`` is what it was blocked on
        since ``wait_begin`` (``None`` for the bootstrap resume)."""
        if self._verbose:
            assert self.tracer is not None
            self.tracer.instant("process.resume", cat="kernel",
                                tid=f"proc:{name}")
        if self.causal is not None and wait_begin is not None:
            self.causal.record_wait(name, wait_begin, self._env.now,
                                    waited_on)

    # -- fluid shares (disks, page caches) ---------------------------------
    def fluid_advance(self, n_jobs: int) -> None:
        prof = self.profiler
        if prof is not None:
            prof.enter("fluid.advance")
            prof.count("fluid.advances")
            prof.count("fluid.jobs_touched", n_jobs)

    def fluid_reschedule(self) -> None:
        if self.profiler is not None:
            self.profiler.enter("fluid.reschedule")

    # -- fabric --------------------------------------------------------------
    def fabric_advance(self, n_flows: int) -> None:
        prof = self.profiler
        if prof is not None:
            prof.enter("fabric.advance")
            prof.count("fabric.advances")
            prof.count("fabric.flows_advanced", n_flows)

    def net_credit(self, tag: str, cause: str, nbytes: float) -> None:
        """Shadow one TrafficMeter credit, value for value, so the
        ``net.<tag>`` curve stays bit-identical to ``meter.by_tag()``."""
        if self.series is not None:
            self.series.credit_net(tag, cause, self._env.now, nbytes)

    def net_credits(self, flows: list, moved: list) -> None:
        """Shadow one integration step's credits, ``moved[i]`` bytes for
        ``flows[i]``, in flow order."""
        sr = self.series
        if sr is not None:
            now = self._env.now
            for flow, nbytes in zip(flows, moved):
                sr.credit_net(flow.tag, flow.cause, now, nbytes)

    def net_message(self, tag: str, cause: str, src: Any, dst: Any,
                    nbytes: float) -> None:
        self.net_credit(tag, cause, nbytes)
        if self._verbose:
            assert self.tracer is not None
            self.tracer.instant(f"message:{tag}", cat="net", tid="net:control",
                                args={"src": src.name, "dst": dst.name,
                                      "bytes": nbytes, "cause": cause})
        if self.metrics is not None:
            self._count(f"net.messages.{tag}")

    def flow_done(self, flow: Any) -> None:
        now = self._env.now
        if self.tracer is not None:
            self.tracer.async_span(
                f"flow:{flow.tag}", flow.started_at, now,
                cat="net", tid=f"net:{flow.tag}",
                args={"src": flow.src.name, "dst": flow.dst.name,
                      "bytes": flow.nbytes, "cause": flow.cause})
        if self.metrics is not None:
            self._count(f"net.flows.{flow.tag}")
            self.metrics.histogram("net.flow.duration").observe(
                now - flow.started_at)

    def flow_cancelled(self, flow: Any) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                "flow.cancelled", cat="net", tid=f"net:{flow.tag}",
                args={"src": flow.src.name, "dst": flow.dst.name,
                      "left_bytes": flow.remaining, "cause": flow.cause})
        self._count("net.flows.cancelled")

    def flows_aborted(self, host: Any, count: int) -> None:
        if self.tracer is not None:
            self.tracer.instant("flows.aborted", cat="net", tid="net:faults",
                                args={"host": host.name, "count": count})
        self._count("net.flows.aborted", count)

    def flow_blackholed(self, src: Any, dst: Any, tag: str,
                        cause: str) -> None:
        if self.tracer is not None:
            self.tracer.instant("flow.blackholed", cat="net", tid=f"net:{tag}",
                                args={"src": src.name, "dst": dst.name,
                                      "cause": cause})
        self._count("net.flows.blackholed")

    def fabric_reshare(self, n_flows: int) -> None:
        """Every reshare samples the concurrency level — a counter track
        Perfetto graphs directly (traffic burstiness, Section 5.4)."""
        if self.tracer is not None:
            self.tracer.counter("fabric.active_flows", {"flows": n_flows})
        if self.metrics is not None:
            self.metrics.gauge("net.active_flows").set(n_flows)
            self._count("net.reshares")

    def fabric_recompute(self, n_flows: int) -> Optional[dict]:
        """A max-min solve starts.  Returns the solver's stats out-param
        when profiling; hand it back to :meth:`fabric_recompute_end`."""
        prof = self.profiler
        if prof is None:
            return None
        prof.enter("fabric.recompute")
        prof.count("maxmin.invocations")
        prof.count("fabric.flows_touched", n_flows)
        return {}

    def fabric_recompute_end(self, stats: dict) -> None:
        prof = self.profiler
        assert prof is not None
        for key in ("rounds", "links_visited", "solves", "memo_hits"):
            prof.count(f"maxmin.{key}", stats.get(key, 0))
        prof.exit()

    def fabric_rates(self, fabric: Any) -> None:
        """The just-solved max-min rates: allocated rate per traffic tag
        and the utilization of every NIC a live flow touches."""
        sr = self.series
        if sr is None:
            return
        now = self._env.now
        by_tag, egress, ingress = fabric.rate_sums()
        for tag in sorted(by_tag):
            sr.gauge(f"net.rate.{tag}", now, by_tag[tag], unit="B/s")
        for host in sorted(egress, key=lambda h: h.name):
            if host.nic_out > 0:
                sr.gauge(f"link.{host.name}.out", now,
                         egress[host] / host.nic_out, unit="util")
        for host in sorted(ingress, key=lambda h: h.name):
            if host.nic_in > 0:
                sr.gauge(f"link.{host.name}.in", now,
                         ingress[host] / host.nic_in, unit="util")

    # -- repository ------------------------------------------------------------
    def repo_fetch(self, n_chunks: int, n_stripes: int, dest: Any) -> None:
        if self.tracer is not None:
            self.tracer.instant("repo.fetch", cat="repo", tid="repo",
                                args={"chunks": n_chunks, "stripes": n_stripes,
                                      "dest": dest.name})
        if self.metrics is not None:
            self._count("repo.fetch.chunks", n_chunks)
            self._count("repo.fetch.requests")
            self.metrics.gauge("repo.fetch.stripe_width").set(n_stripes)

    def repo_store(self, n_chunks: int, n_stripes: int, src: Any) -> None:
        if self.tracer is not None:
            self.tracer.instant("repo.store", cat="repo", tid="repo",
                                args={"chunks": n_chunks, "stripes": n_stripes,
                                      "src": src.name})
        self._count("repo.store.chunks", n_chunks)
        self._count("repo.store.requests")

    def repo_unavailable(self, gave_up: bool) -> None:
        self._count("repo.fetch.unavailable")
        if gave_up:
            self._count("repo.fetch.gaveup")

    # -- migration managers: guest I/O path and failure handling --------------
    def cor_fetch(self, n_chunks: int) -> None:
        """Copy-on-reference: base-image chunks fetched for a guest read."""
        self._count("cor.fetch.chunks", n_chunks)

    def guest_write(self, vm: str, n_chunks: int) -> None:
        """One probe for every engine: the guest write rate the dirty-rate
        overlay in the flight report compares against."""
        if self.series is not None:
            self.series.inc(f"writes.chunks:{vm}", self._env.now, n_chunks,
                            unit="chunks")

    def chunks_adopted(self, n_adopted: int, n_stale: int) -> None:
        self._count("adopt.chunks", n_adopted)
        self._count("adopt.stale.chunks", n_stale)

    def abort_requested(self, vm: str, cause: str) -> None:
        if self.tracer is not None:
            self.tracer.instant("migration.abort_requested", cat="migration",
                                tid=f"migration:{vm}", args={"cause": cause})
        self._count("migration.aborts.requested")

    def transfer_retry(self, vm: str, label: str, attempt: int,
                       backoff: float) -> None:
        if self.tracer is not None:
            self.tracer.instant("transfer.retry", cat="faults",
                                tid=f"faults:{vm}",
                                args={"label": label, "attempt": attempt,
                                      "backoff": backoff})
        self._count("transfer.retries")

    def transfer_timeout(self, vm: str, kind: str, label: str,
                         attempt: int) -> None:
        """``kind`` is ``transfer.timeout`` or ``message.timeout``."""
        if self.tracer is not None:
            self.tracer.instant(kind, cat="faults", tid=f"faults:{vm}",
                                args={"label": label, "attempt": attempt})
        self._count("transfer.timeouts")

    # -- hybrid source: BACKGROUND_PUSH (Algorithms 1-2) -----------------------
    def push_start(self, vm: str, remaining: Any, threshold: int) -> None:
        """MIGRATION_REQUEST: ``remaining`` is the RemainingSet bitmap."""
        if self.tracer is not None:
            self.tracer.instant("push.start", cat="storage", tid=f"push:{vm}",
                                args={"remaining_chunks": int(remaining.sum()),
                                      "threshold": threshold})
        self._push_remaining(vm, remaining)

    def _push_remaining(self, vm: str, remaining: Any) -> None:
        if self.series is not None:
            self.series.gauge(f"push.remaining:{vm}", self._env.now,
                              int(remaining.sum()), unit="chunks")

    def push_scan(self, examined: int, n_batch: int) -> None:
        """Work the push loop performs per wakeup: queue entries examined
        plus the batch it yields.  Before the incremental queue,
        ``push_scanned`` was the full bitmap size per scan."""
        prof = self.profiler
        if prof is not None:
            prof.count("chunks.push_scans")
            prof.count("chunks.push_scanned", examined)
            prof.count("chunks.push_eligible", n_batch)

    def push_batch(self, vm: str, t0: float, n_chunks: int, wire: float,
                   remaining: Any) -> None:
        self._push_remaining(vm, remaining)
        if self.series is not None:
            self.series.inc(f"progress.pushed:{vm}", self._env.now, n_chunks,
                            unit="chunks")
        if self.tracer is not None:
            self.tracer.complete("push.batch", t0, self._env.now,
                                 cat="storage", tid=f"push:{vm}",
                                 args={"chunks": n_chunks,
                                       "wire_bytes": wire})
        self._count("push.chunks", n_chunks)
        self._count("push.batches")
        self._count("push.bytes.wire", wire)

    def push_requeue(self, vm: str, remaining: Any, n_hot: int) -> None:
        """A source write re-queued its chunks; ``n_hot`` of them reached
        Threshold and are excluded from the push for good."""
        if n_hot:
            if self.tracer is not None:
                self.tracer.instant("push.hot_exclusion", cat="storage",
                                    tid=f"push:{vm}", args={"chunks": n_hot})
            self._count("push.hot_skipped", n_hot)
        self._push_remaining(vm, remaining)
        if n_hot and self.series is not None:
            self.series.inc(f"push.hot_excluded:{vm}", self._env.now, n_hot,
                            unit="chunks")

    def push_stop(self, vm: str, remaining: Any,
                  write_count_cells: Callable[[], list]) -> None:
        """``sync``: the push engine stops.  ``write_count_cells()`` is the
        write-count histogram over the still-remaining set — the
        distribution Threshold reasons about, at the sync point."""
        if self.tracer is not None:
            self.tracer.instant("push.stop", cat="storage", tid=f"push:{vm}",
                                args={"remaining_chunks":
                                      int(remaining.sum())})
        self._push_remaining(vm, remaining)
        if self.series is not None:
            self.series.distribution(f"dist.write_count:{vm}", self._env.now,
                                     write_count_cells())

    def transfer_io_control(self, vm: str, n_remaining: int) -> None:
        """TRANSFER_IO_CONTROL (Algorithm 3) with the final remaining list."""
        if self.tracer is not None:
            self.tracer.instant("transfer_io_control", cat="storage",
                                tid=f"push:{vm}",
                                args={"remaining_chunks": n_remaining})
        if self.series is not None:
            self.series.gauge(f"push.remaining:{vm}", self._env.now,
                              n_remaining, unit="chunks")

    # -- hybrid destination: BACKGROUND_PULL + on-demand (Algorithms 3-4) ------
    def prefetch_queue(self, vm: str, depth: int) -> None:
        """The prefetch queue depth (pending chunks) changed."""
        if self.tracer is not None:
            self.tracer.counter(f"prefetch.queue_depth:{vm}", {"chunks": depth})
        if self.metrics is not None:
            self.metrics.gauge("prefetch.queue_depth").set(depth)
        if self.series is not None:
            self.series.gauge(f"pull.pending:{vm}", self._env.now, depth,
                              unit="chunks")

    def pull_scan(self, scanned: int, pending: Any) -> None:
        """One prefetch-batch selection; ``pending`` is the pull bitmap."""
        prof = self.profiler
        if prof is not None:
            prof.count("chunks.pull_scans")
            prof.count("chunks.pull_scanned", scanned)
            prof.count("chunks.pull_pending", int(pending.sum()))

    def prefetch_batch(self, vm: str, t0: float, batch: Any,
                       write_counts: Any, pending: Any) -> None:
        """A BACKGROUND_PULL batch landed; ``write_counts`` orders the
        pull, ``pending`` is the pull bitmap after the batch."""
        n_chunks = int(batch.size)
        if self.series is not None:
            self.series.inc(f"progress.prefetched:{vm}", self._env.now,
                            n_chunks, unit="chunks")
        if self.tracer is not None:
            self.tracer.complete("prefetch.batch", t0, self._env.now,
                                 cat="storage", tid=f"pull:{vm}",
                                 args={"chunks": n_chunks,
                                       "max_write_count":
                                       int(write_counts[batch].max())})
        self._count("pull.prefetch.chunks", n_chunks)
        self._count("pull.prefetch.batches")
        self.prefetch_queue(vm, int(pending.sum()))

    def pull_stalled(self, vm: str, n_chunks: int) -> None:
        if self.tracer is not None:
            self.tracer.instant("pull.stalled", cat="faults",
                                tid=f"pull:{vm}", args={"chunks": n_chunks})
        self._count("pull.stalled.chunks", n_chunks)

    def pulls_cancelled(self, span: Any, pending: Any) -> None:
        """A destination write killed the pulls of its still-pending chunks."""
        if self.metrics is not None:
            killed = int(pending[span].sum())
            if killed:
                self._count("pull.cancelled.chunks", killed)

    def pull_demand(self, vm: str, t0: float, n_chunks: int) -> None:
        """A priority on-demand pull for a guest read completed."""
        now = self._env.now
        if self.series is not None:
            self.series.inc(f"progress.ondemand:{vm}", now, n_chunks,
                            unit="chunks")
        if self.tracer is not None:
            # Overlapping guest reads overlap their pulls: async lane.
            self.tracer.async_span("pull.demand", t0, now, cat="storage",
                                   tid=f"pull:{vm}", args={"chunks": n_chunks})
        if self.metrics is not None:
            self._count("pull.demand.chunks", n_chunks)
            self.metrics.histogram("pull.demand.latency").observe(now - t0)

    def pull_drained(self, vm: str, threshold: int, wc_cap: int,
                     fate_cells: Callable[[], list]) -> None:
        """The remaining set drained.  ``fate_cells()`` aggregates the
        transferred chunks as ``[write_count, fate, chunks]`` cells."""
        tr, sr = self.tracer, self.series
        cells = fate_cells() if tr is not None or sr is not None else None
        if tr is not None:
            tr.instant("pull.drained", cat="storage", tid=f"pull:{vm}")
            tr.instant("chunks.fate", cat="storage", tid=f"pull:{vm}",
                       args={"vm": vm, "threshold": threshold,
                             "wc_cap": wc_cap, "cells": cells})
        if sr is not None:
            sr.gauge(f"pull.pending:{vm}", self._env.now, 0, unit="chunks")
            sr.distribution(f"dist.chunk_fate:{vm}", self._env.now, cells)

    # -- mirror and pre-copy engines -------------------------------------------
    def mirror_bulk_batch(self, vm: str, t0: float, n_chunks: int) -> None:
        if self.series is not None:
            self.series.inc(f"progress.bulk:{vm}", self._env.now, n_chunks,
                            unit="chunks")
        if self.tracer is not None:
            self.tracer.complete("mirror.bulk.batch", t0, self._env.now,
                                 cat="storage", tid=f"mirror:{vm}",
                                 args={"chunks": n_chunks})
        self._count("mirror.bulk.chunks", n_chunks)

    def mirror_outstanding(self, vm: str, n_writes: int) -> None:
        if self.series is not None:
            self.series.gauge(f"mirror.outstanding:{vm}", self._env.now,
                              n_writes, unit="writes")

    def mirror_write(self, vm: str, nbytes: int) -> None:
        """A mirrored guest write was acknowledged by the destination."""
        if self.series is not None:
            self.series.inc(f"progress.mirrored:{vm}", self._env.now, 1,
                            unit="writes")
        self._count("mirror.writes")
        self._count("mirror.write.bytes", float(nbytes))

    def precopy_dirty(self, vm: str, dirty: Any) -> None:
        """The pre-copy dirty bitmap changed."""
        if self.series is not None:
            self.series.gauge(f"precopy.dirty:{vm}", self._env.now,
                              int(dirty.sum()), unit="chunks")

    def precopy_batch(self, vm: str, t0: float, n_chunks: int,
                      n_resent: int, dirty: Any) -> None:
        sr = self.series
        if sr is not None:
            now = self._env.now
            sr.gauge(f"precopy.dirty:{vm}", now, int(dirty.sum()),
                     unit="chunks")
            sr.inc(f"progress.sent:{vm}", now, n_chunks, unit="chunks")
            if n_resent:
                sr.inc(f"progress.resent:{vm}", now, n_resent, unit="chunks")
        if self.tracer is not None:
            self.tracer.complete("precopy.batch", t0, self._env.now,
                                 cat="storage", tid=f"blkmig:{vm}",
                                 args={"chunks": n_chunks,
                                       "resent": n_resent})
        self._count("precopy.sent.chunks", n_chunks)
        self._count("precopy.resent.chunks", n_resent)

    def precopy_final(self, vm: str, t0: float, n_chunks: int) -> None:
        """The residual dirty blocks were flushed during downtime."""
        sr = self.series
        if sr is not None:
            sr.gauge(f"precopy.dirty:{vm}", self._env.now, 0, unit="chunks")
            sr.inc(f"progress.final:{vm}", self._env.now, n_chunks,
                   unit="chunks")
        if self.tracer is not None:
            self.tracer.complete("precopy.final_flush", t0, self._env.now,
                                 cat="storage", tid=f"blkmig:{vm}",
                                 args={"chunks": n_chunks})
        self._count("precopy.final.chunks", n_chunks)

    # -- hypervisor: memory transfer and the migration record ----------------
    def memory_round(self, vm: str, t0: float, rounds: int, wire: float,
                     residual: float, dirty_rate: float) -> None:
        """One iterative pre-copy memory round that moved ``wire`` bytes."""
        if self.tracer is not None:
            self.tracer.complete("memory.round", t0, self._env.now,
                                 cat="memory", tid=f"migration:{vm}",
                                 args={"round": rounds, "bytes": wire})
        self.memory_residual(vm, rounds, residual, dirty_rate)

    def memory_residual(self, vm: str, rounds: int, residual: float,
                        dirty_rate: Optional[float] = None) -> None:
        """Per-round residual: what the next round (or the downtime
        flush) still has to move."""
        sr = self.series
        if sr is not None:
            now = self._env.now
            sr.gauge(f"mem.residual:{vm}", now, residual, unit="B")
            if dirty_rate is not None:
                sr.gauge(f"mem.dirty_rate:{vm}", now, dirty_rate, unit="B/s")
            sr.gauge(f"mem.rounds:{vm}", now, rounds, unit="rounds")

    def memory_postcopy(self, vm: str, t0: float, nbytes: float,
                        rounds: int) -> None:
        if self.tracer is not None:
            self.tracer.complete("memory.postcopy", t0, self._env.now,
                                 cat="memory", tid=f"migration:{vm}",
                                 args={"bytes": nbytes})
        self.memory_residual(vm, rounds, 0.0)

    def migration_record(self, record: Any, memory_stats: Any) -> None:
        """A finished (or aborted) migration attempt's record."""
        tr = self.tracer
        if tr is not None:
            tid = f"migration:{record.vm}"
            for name, start, end in record.phases:
                tr.complete(name, start, end, cat="migration", tid=tid)
            if record.aborted:
                tr.instant("migration.aborted", cat="migration", tid=tid,
                           args={"cause": record.abort_cause})
            elif record.control_at is not None:
                tr.instant("control-transfer", cat="migration", tid=tid,
                           args={"downtime": record.downtime})
        mx = self.metrics
        if mx is None:
            return
        if record.aborted:
            self._count("migration.aborted")
            return
        self._count("migration.completed")
        self._count("migration.memory.rounds", memory_stats.rounds)
        self._count("migration.memory.bytes", memory_stats.bytes_sent)
        if record.downtime is not None:
            mx.histogram("migration.downtime").observe(record.downtime)
        if record.migration_time is not None:
            mx.histogram("migration.time").observe(record.migration_time)

    # -- cloud middleware and fault injection --------------------------------
    def migration_restart(self, vm: str, attempt: int) -> None:
        if self.tracer is not None:
            self.tracer.instant("migration.restart", cat="migration",
                                tid=f"migration:{vm}",
                                args={"attempt": attempt})
        self._count("migration.restarts")

    def fault(self, name: str, spec: Any) -> None:
        """``name`` is ``fault.inject`` or ``fault.clear``."""
        if self.tracer is not None:
            self.tracer.instant(name, cat="faults", tid=f"faults:{spec.target}",
                                args={"kind": spec.kind, "target": spec.target,
                                      "severity": spec.severity,
                                      "duration": spec.duration})
        verb = "injected" if name == "fault.inject" else "cleared"
        self._count(f"faults.{verb}.{spec.kind}")


class _NullProbe(Probe):
    """Every backend off: the shared, stateless :data:`NULL_PROBE`.

    Sites read only ``enabled`` before branching away, so the instance
    needs none of :class:`Probe`'s slots and never fills one.
    """

    __slots__ = ()

    enabled = False

    def __init__(self) -> None:
        pass


#: Installed on every fresh Environment; ``enabled`` is False.
NULL_PROBE: Probe = _NullProbe()
