"""``repro.obs`` — structured tracing + metrics across the simulation stack.

The simulator's layers (kernel, fabric, storage managers, hypervisor,
repositories) report every simulation event through one hook installed
on each :class:`~repro.simkernel.core.Environment`: ``env.probe``
(:mod:`repro.obs.probe`).  The probe renders each event into whichever
backends are live:

* a :class:`Tracer` — typed span/instant/counter events stamped with
  simulation time (:mod:`repro.obs.tracer`);
* a :class:`MetricsRegistry` — named counters/gauges/histograms
  (:mod:`repro.obs.registry`);
* a :class:`SeriesRecorder` — time-resolved signals
  (:mod:`repro.obs.series`);
* a :class:`Profiler` — host wall-clock scopes and work counters
  (:mod:`repro.obs.prof`).

A fresh environment carries :data:`~repro.obs.probe.NULL_PROBE`, so an
uninstrumented run pays one branch per site.  :class:`Observability`
bundles the live backends, installs their probe into environments,
scopes multi-run sweeps into separate trace process lanes and per-run
metric snapshots, and writes the exports (:mod:`repro.obs.export`)::

    obs = Observability(detail="normal")
    outcome = run_single_migration("our-approach", obs=obs)
    obs.write(trace_path="trace.json", metrics_path="metrics.json")

See ``examples/trace_a_migration.py`` for the full walkthrough and
``docs/architecture.md`` ("Observability") for the event taxonomy.
"""

from __future__ import annotations

import pathlib
from contextlib import nullcontext
from typing import ContextManager, Optional, Union

from repro.obs.export import (
    chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_json,
    write_series_json,
    write_trace,
)
from repro.obs.probe import NULL_PROBE, Probe
from repro.obs.prof import Profiler
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.series.core import SeriesRecorder
from repro.obs.tracer import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_PROBE",
    "Observability",
    "Probe",
    "Profiler",
    "SeriesRecorder",
    "Tracer",
    "chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_metrics_json",
    "write_series_json",
    "write_trace",
]


class Observability:
    """The live observability backends, their probe and its lifecycle.

    Parameters
    ----------
    trace:
        Record trace events (a :class:`Tracer`); otherwise
        :attr:`tracer` is ``None``.
    metrics:
        Record aggregate metrics (a :class:`MetricsRegistry`); otherwise
        :attr:`metrics` is ``None``.
    detail:
        Tracer detail level (``"normal"`` or ``"full"``, see
        :class:`Tracer`).
    causal:
        Also record causal wait edges (``repro.obs.causal``) for
        critical-path extraction.  Implies ``trace=True``.
    profile:
        Attribute *host* wall-clock, allocations and work counters to
        subsystems (``repro.obs.prof``).  Pass ``True`` for a fresh
        :class:`Profiler` or a pre-configured instance (e.g.
        ``Profiler(alloc=True)``).  Profiling never changes simulation
        output — only host-side measurement.
    series:
        Record time-resolved telemetry (``repro.obs.series``): drain
        curves, per-tag bandwidth, dirty rate, distribution snapshots.
        Pass ``True`` for a fresh :class:`SeriesRecorder` or a
        pre-configured instance (e.g. ``SeriesRecorder(max_bins=2048)``).
        Observe-only — simulation output is byte-identical on vs off.
    """

    def __init__(self, trace: bool = True, metrics: bool = True,
                 detail: str = "normal", causal: bool = False,
                 profile: "bool | Profiler" = False,
                 series: "bool | SeriesRecorder" = False):
        #: The live backends; a disabled one is ``None``.
        self.tracer: Tracer | None = None
        if trace or causal:
            self.tracer = Tracer(detail=detail)
            if causal:
                self.tracer.enable_causal()
        self.metrics = MetricsRegistry() if metrics else None
        if isinstance(profile, Profiler):
            self.profiler: Profiler | None = profile
        else:
            self.profiler = Profiler() if profile else None
        if isinstance(series, SeriesRecorder):
            self.series: SeriesRecorder | None = series
        else:
            self.series = SeriesRecorder() if series else None
        live = (self.tracer, self.metrics, self.series, self.profiler)
        #: What :meth:`install` puts on ``env.probe``.
        self.probe = (Probe(*live) if any(b is not None for b in live)
                      else NULL_PROBE)
        #: Finished per-run metric snapshots, keyed by run label.
        self.runs: dict[str, dict] = {}

    # -- wiring ------------------------------------------------------------
    def install(self, env) -> "Observability":
        """Install the probe onto ``env`` (rebinds the clock)."""
        env.probe = self.probe
        if self.probe.enabled:
            self.probe.bind(env)
        return self

    def run_scope(self, label: str) -> ContextManager[None]:
        """Scope one experiment run.

        Trace events inside land in a process lane named ``label``; on exit
        the live metric instruments are snapshotted into :attr:`runs` under
        the same label and reset for the next run.  Labels are made unique
        (``#2``, ``#3`` ...) when a sweep repeats one.
        """
        unique = label
        k = 2
        while unique in self.runs:
            unique = f"{label}#{k}"
            k += 1
        if not self.probe.enabled:
            return nullcontext()
        return self.probe.run(unique, self.runs)

    def note_traffic(self, meter) -> None:
        """Record a TrafficMeter's final accounting for this run.

        Per-tag and per-cause totals land as ``net.bytes.*`` /
        ``net.cause.*`` counters, and the raw ``(tag, cause)`` pair
        matrix is emitted into the trace as a ``traffic.snapshot``
        instant — the analyzer's ground truth for the conservation
        check (:mod:`repro.obs.analyze.attribution`).
        """
        if self.probe.enabled:
            self.probe.traffic_snapshot(meter)

    # -- output ------------------------------------------------------------
    def metrics_dump(self) -> dict:
        """All finished runs plus any still-live instruments."""
        dump: dict = {"runs": dict(self.runs)}
        if self.metrics is not None:
            live = self.metrics.snapshot()
            if any(live.get(kind) for kind in
                   ("counters", "gauges", "histograms")):
                dump["live"] = live
        return dump

    def write(self,
              trace_path: Optional[Union[str, pathlib.Path]] = None,
              metrics_path: Optional[Union[str, pathlib.Path]] = None,
              series_path: Optional[Union[str, pathlib.Path]] = None) -> None:
        """Write the requested exports (trace format by file suffix)."""
        if trace_path is not None and self.tracer is not None:
            write_trace(self.tracer, trace_path)
        if metrics_path is not None:
            write_metrics_json(self.metrics_dump(), metrics_path)
        if series_path is not None and self.series is not None:
            write_series_json(self.series.summary(), series_path)

    def __repr__(self) -> str:
        n = len(self.tracer.events) if self.tracer is not None else 0
        return f"<Observability events={n} runs={len(self.runs)}>"
