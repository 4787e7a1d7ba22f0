"""Time-resolved telemetry: the ``SeriesRecorder`` signal bus.

Typed signals, written by observe-only probes threaded through the
engines, netsim, hypervisor models and the kernel:

``gauge``
    A sampled level (remaining-set size, link utilization, dirty bytes,
    ready-queue depth).  A signal keeps the last sample of each simulated
    instant: a level held for zero seconds is never on the timeline.  Each
    kept sample lands in a fixed-bin resampler so a long run keeps bounded
    memory; a bin keeps its sample count, min, max and last value.
``rate``
    A cumulative byte (or count) curve.  The ``net.<tag>`` signals
    mirror the :class:`~repro.netsim.traffic.TrafficMeter` credit
    structure pair-for-pair, in the same float order, so the curve's
    final value is bit-identical to ``meter.by_tag()[tag]`` and the
    Fraction step-integral of the series telescopes to the meter total
    *exactly* (see :mod:`repro.obs.series.conserve`).
``distribution``
    Snapshots of a categorical histogram over time — the per-chunk
    write-count × fate cells, in the same ``[[writes, column, count]]``
    format the analyzer's heatmaps use.

Probe contract (enforced by tests, documented in
``docs/observability.md``): the signals are written by
:mod:`repro.obs.probe` on events that already fire; the probe schedules
nothing and never touches simulation state — a run with series
recording on is byte-identical to one with it off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.series.conserve import integral_check

if TYPE_CHECKING:
    from repro.obs.series.conserve import TrafficMeterLike

SCHEMA = "repro.series/1"

#: Initial resampling bin width in sim-seconds, and the bin-count bound.
#: When a run outgrows ``max_bins`` the bin width doubles and adjacent
#: bins merge — deterministic, and memory stays O(max_bins) per signal.
DEFAULT_BIN_WIDTH = 0.0625
DEFAULT_MAX_BINS = 512


class _Binned:
    """Fixed-bin last/min/max/count resampler with doubling coarsening."""

    __slots__ = ("width", "max_bins", "bins")

    def __init__(self, width: float, max_bins: int) -> None:
        self.width = width
        self.max_bins = max_bins
        # bin index -> [samples, min, max, last]
        self.bins: dict[int, list[float]] = {}

    def add(self, t: float, value: float) -> None:
        idx = int(t / self.width)
        while idx >= self.max_bins:
            self._coarsen()
            idx = int(t / self.width)
        cell = self.bins.get(idx)
        if cell is None:
            self.bins[idx] = [1, value, value, value]
        else:
            cell[0] += 1
            if value < cell[1]:
                cell[1] = value
            if value > cell[2]:
                cell[2] = value
            cell[3] = value

    def _coarsen(self) -> None:
        # Double the width; merge bin pairs in ascending index order so
        # the later half-bin's "last" wins — deterministic regardless of
        # insertion history.
        self.width *= 2
        merged: dict[int, list[float]] = {}
        for idx in sorted(self.bins):
            cell = self.bins[idx]
            tgt = merged.get(idx // 2)
            if tgt is None:
                merged[idx // 2] = list(cell)
            else:
                tgt[0] += cell[0]
                if cell[1] < tgt[1]:
                    tgt[1] = cell[1]
                if cell[2] > tgt[2]:
                    tgt[2] = cell[2]
                tgt[3] = cell[3]
        self.bins = merged

    def points(self) -> list[list[float]]:
        """``[[bin_start_s, last_value], ...]`` in time order."""
        return [
            [idx * self.width, self.bins[idx][3]] for idx in sorted(self.bins)
        ]

    def samples(self) -> int:
        return int(sum(cell[0] for cell in self.bins.values()))


class _Signal:
    __slots__ = ("kind", "unit", "binned", "vmin", "vmax", "total",
                 "snapshots", "held")

    def __init__(self, kind: str, unit: str, width: float,
                 max_bins: int) -> None:
        self.kind = kind
        self.unit = unit
        self.binned = _Binned(width, max_bins)
        self.vmin: float | None = None
        self.vmax: float | None = None
        self.total = 0.0
        self.snapshots: list[dict] = []
        #: A gauge's latest ``(t, value)``, kept once a sample at a later
        #: ``t`` arrives or the document is taken.
        self.held: tuple[float, float] | None = None

    def keep_held(self) -> None:
        if self.held is None:
            return
        t, value = self.held
        self.held = None
        self.binned.add(t, value)
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    def as_doc(self) -> dict:
        self.keep_held()
        doc: dict = {"kind": self.kind, "unit": self.unit}
        if self.kind == "distribution":
            doc["snapshots"] = self.snapshots
            return doc
        doc["bin_width"] = self.binned.width
        doc["samples"] = self.binned.samples()
        doc["points"] = self.binned.points()
        if self.kind == "gauge":
            doc["min"] = self.vmin
            doc["max"] = self.vmax
        else:  # rate: cumulative curve
            doc["total"] = self.total
        return doc


class SeriesRecorder:
    """Recording enabled: typed signals with per-run scoping.

    ``finish_run(label)`` snapshots the signals recorded so far into a
    per-run document and resets — :class:`repro.obs.Observability` calls
    it when a ``run_scope`` exits, mirroring how metrics snapshots work.
    ``summary()`` then emits the deterministic ``repro.series/1`` doc.
    """

    def __init__(self, bin_width: float = DEFAULT_BIN_WIDTH,
                 max_bins: int = DEFAULT_MAX_BINS) -> None:
        self.bin_width = bin_width
        self.max_bins = max_bins
        self.runs: list[dict] = []
        self._signals: dict[str, _Signal] = {}
        # Mirror of TrafficMeter.by_pair(): same keys in the same
        # first-credit order, each accumulated per credit with the same
        # float operations as the meter's cell — the basis of exact
        # conservation.
        self._net_pairs: dict[tuple[str, str], float] = {}
        self._net_tag_causes: dict[str, list[str]] = {}
        self._conservation: dict | None = None

    # -- signal writers (the probe API) ------------------------------------

    def _signal(self, name: str, kind: str, unit: str) -> _Signal:
        sig = self._signals.get(name)
        if sig is None:
            sig = _Signal(kind, unit, self.bin_width, self.max_bins)
            self._signals[name] = sig
        return sig

    def gauge(self, name: str, t: float, value: float,
              unit: str = "") -> None:
        """Sample a level signal at sim-time ``t``; a later sample at the
        same ``t`` replaces it."""
        sig = self._signal(name, "gauge", unit)
        held = sig.held
        if held is not None and held[0] != t:
            sig.keep_held()
        sig.held = (t, float(value))

    def inc(self, name: str, t: float, n: float = 1.0,
            unit: str = "count") -> None:
        """Advance a cumulative progress curve by ``n`` at time ``t``."""
        sig = self._signal(name, "rate", unit)
        sig.total += n
        sig.binned.add(t, sig.total)

    def credit_net(self, tag: str, cause: str, t: float,
                   nbytes: float) -> None:
        """Mirror one ``TrafficMeter.add`` credit into ``net.<tag>``.

        Must be called with the *same value, at the same site, in the
        same order* as the meter credit it shadows.  The per-tag
        cumulative is recomputed the way ``TrafficMeter.by_tag`` sums —
        per ``(tag, cause)`` pair, pairs in first-seen order — so the
        curve's last value is bit-identical to the meter's tag total.
        """
        key = (tag, cause)
        pairs = self._net_pairs
        if key not in pairs:
            self._net_tag_causes.setdefault(tag, []).append(cause)
        pairs[key] = pairs.get(key, 0.0) + nbytes
        cum = 0.0
        for c in self._net_tag_causes[tag]:
            cum += pairs[(tag, c)]
        sig = self._signal(f"net.{tag}", "rate", "B")
        sig.total = cum
        sig.binned.add(t, cum)

    def distribution(self, name: str, t: float, cells: list,
                     unit: str = "chunks") -> None:
        """Snapshot a categorical histogram (``[[writes, column, count]]``)."""
        sig = self._signal(name, "distribution", unit)
        sig.snapshots.append({
            "t": t,
            "cells": [[int(a), str(b), int(c)] for a, b, c in cells],
        })

    # -- conservation / scoping --------------------------------------------

    def net_totals(self) -> dict[str, float]:
        """Per-tag series totals, summed exactly as ``by_tag`` sums."""
        out: dict[str, float] = {}
        for tag, causes in self._net_tag_causes.items():
            cum = 0.0
            for c in causes:
                cum += self._net_pairs[(tag, c)]
            out[tag] = cum
        return out

    def check_conservation(self, meter: "TrafficMeterLike") -> None:
        """Fraction-compare the series totals against a TrafficMeter.

        Piggybacked on :meth:`repro.obs.Observability.note_traffic`; the
        verdict is embedded in the current run's document and surfaced
        as a badge in the flight report.
        """
        self._conservation = integral_check(self.net_totals(),
                                            dict(meter.by_tag()))

    def finish_run(self, label: str) -> None:
        """Snapshot the signals recorded so far as one run, then reset."""
        self.runs.append(self._run_doc(label))
        self._signals = {}
        self._net_pairs = {}
        self._net_tag_causes = {}
        self._conservation = None

    def _run_doc(self, label: str) -> dict:
        return {
            "label": label,
            "signals": {
                name: self._signals[name].as_doc()
                for name in sorted(self._signals)
            },
            "conservation": self._conservation,
        }

    def summary(self) -> dict:
        """The deterministic ``repro.series/1`` document."""
        runs = list(self.runs)
        if self._signals:
            runs.append(self._run_doc("(unscoped)"))
        return {"schema": SCHEMA, "enabled": True, "runs": runs}

