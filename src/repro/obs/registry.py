"""Named counters, gauges and histograms, snapshotted per run.

The registry is the aggregate companion to the event-level
:mod:`~repro.obs.tracer`: where the tracer answers *when did it happen*,
the registry answers *how much of it happened* — ``push.chunks``,
``pull.demand.latency``, ``prefetch.queue_depth`` — without requiring a
trace post-processing step.

Simulation code reports events through ``env.probe``
(:mod:`repro.obs.probe`); the probe owns every metric name and updates
the registry only when metrics are on.
"""

from __future__ import annotations

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing count (chunks pushed, pulls cancelled)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A point-in-time level (prefetch queue depth, active flows)."""

    __slots__ = ("name", "value", "max")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.max = 0.0

    def set(self, v: float) -> None:
        self.value = v
        if v > self.max:
            self.max = v

    def snapshot(self) -> dict:
        return {"value": self.value, "max": self.max}


class Histogram:
    """Summary statistics of observed samples (on-demand pull latency)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": None, "max": None,
                    "mean": 0.0}
        return {"count": self.count, "total": self.total, "min": self.min,
                "max": self.max, "mean": self.mean}


class MetricsRegistry:
    """Lazily-created named instruments, one namespace per run."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def snapshot(self) -> dict:
        """All instruments as plain sorted data (JSON-ready)."""
        return {
            "counters": {k: v.snapshot()
                         for k, v in sorted(self._counters.items())},
            "gauges": {k: v.snapshot()
                       for k, v in sorted(self._gauges.items())},
            "histograms": {k: v.snapshot()
                           for k, v in sorted(self._histograms.items())},
        }

    def reset(self) -> None:
        """Drop every instrument (used between runs of a sweep)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {len(self._counters)}c "
            f"{len(self._gauges)}g {len(self._histograms)}h>"
        )
