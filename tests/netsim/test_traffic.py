"""Tests for the TrafficMeter and traffic-over-time curves."""

import numpy as np
import pytest

from repro.netsim import Fabric, Topology, TrafficMeter
from repro.obs import Observability
from repro.simkernel import Environment


class TestMeter:
    def test_add_and_query(self):
        m = TrafficMeter()
        m.add("a", 100)
        m.add("a", 50)
        m.add("b", 10)
        assert m.bytes("a") == 150
        assert m.bytes("missing") == 0
        assert m.total() == 160
        assert m.total(exclude=("a",)) == 10

    def test_total_exclude_accepts_any_iterable(self):
        m = TrafficMeter()
        m.add("a", 100)
        m.add("b", 10)
        m.add("c", 1)
        assert m.total(exclude=["a", "b"]) == 1
        assert m.total(exclude={"a", "b"}) == 1
        assert m.total(exclude=iter(("a", "b"))) == 1
        assert m.total(exclude=(t for t in ("a", "b"))) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TrafficMeter().add("a", -1)

    @pytest.mark.parametrize("nbytes", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, nbytes):
        m = TrafficMeter()
        with pytest.raises(ValueError):
            m.add("a", nbytes)
        assert m.by_pair() == {}

    def test_reset(self):
        m = TrafficMeter()
        m.add("a", 5)
        m.reset()
        assert m.total() == 0
        assert m.by_tag() == {}


def _peak_window_rate(points, interval, horizon):
    """Peak mean rate over consecutive ``interval``-second windows of a
    cumulative curve (``[[t, cumulative], ...]``, last value per bin)."""
    times = np.array([t for t, _ in points])
    values = np.array([c for _, c in points])
    grid = np.arange(interval, horizon + interval / 2, interval)
    last = np.searchsorted(times, grid, side="right") - 1
    cum = np.where(last >= 0, values[np.maximum(last, 0)], 0.0)
    return float(np.diff(cum, prepend=0.0).max() / interval)


class TestSampler:
    """Traffic over time, read from the series recorder's exact
    ``net.<tag>`` cumulative curves."""

    def test_burstiness_contrast(self):
        """The Section 5.4 argument in miniature: the same byte volume,
        concentrated vs dispersed, shows up in peak per-window rate."""
        obs = Observability(trace=False, metrics=False, series=True)
        env = Environment()
        obs.install(env)
        topo = Topology()
        a = topo.add_host("a", 100.0)
        b = topo.add_host("b", 100.0)
        fabric = Fabric(env, topo, latency=0.0)

        def concentrated():
            yield fabric.transfer(a, b, 2000.0, tag="burst")

        def dispersed():
            for _ in range(40):
                # 50 B flashes at 100 B/s, one every 2.5 s: each 2 s
                # window averages down to at most 25 B/s.
                yield fabric.transfer(b, a, 50.0, tag="drip")
                yield env.timeout(2.0)

        env.process(concentrated())
        env.process(dispersed())
        env.run(until=150.0)
        assert fabric.meter.bytes("burst") == fabric.meter.bytes("drip")
        (run,) = obs.series.summary()["runs"]
        signals = run["signals"]
        burst = _peak_window_rate(signals["net.burst"]["points"], 2.0, 150.0)
        drip = _peak_window_rate(signals["net.drip"]["points"], 2.0, 150.0)
        assert burst > 1.5 * drip
