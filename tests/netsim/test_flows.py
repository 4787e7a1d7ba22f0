"""Tests for the Fabric flow scheduler and topology."""

import math

import numpy as np
import pytest

from repro.netsim import Fabric, Topology
from repro.netsim.fairness import maxmin_single_switch
from repro.simkernel import Environment


def make_fabric(n_hosts=4, nic=100.0, backplane=None, latency=0.0):
    env = Environment()
    topo = Topology(backplane=backplane)
    for i in range(n_hosts):
        topo.add_host(f"h{i}", nic_out=nic)
    fabric = Fabric(env, topo, latency=latency)
    return env, topo, fabric


class TestTopology:
    def test_duplicate_host_rejected(self):
        topo = Topology()
        topo.add_host("a", 10.0)
        with pytest.raises(ValueError):
            topo.add_host("a", 10.0)

    def test_lookup_and_contains(self):
        topo = Topology()
        h = topo.add_host("a", 10.0)
        assert topo["a"] is h
        assert "a" in topo and "b" not in topo
        assert len(topo) == 1

    def test_nic_in_defaults_to_nic_out(self):
        topo = Topology()
        h = topo.add_host("a", 10.0)
        assert h.nic_in == 10.0

    def test_invalid_nic_rejected(self):
        topo = Topology()
        with pytest.raises(ValueError):
            topo.add_host("a", 0.0)


class TestFabricTransfer:
    def test_single_transfer_at_nic_speed(self):
        env, topo, fabric = make_fabric()
        done = []

        def proc():
            yield fabric.transfer(topo["h0"], topo["h1"], 500.0, tag="x")
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [5.0]
        assert fabric.meter.bytes("x") == pytest.approx(500.0)

    def test_zero_bytes_completes_instantly(self):
        env, topo, fabric = make_fabric()
        ev = fabric.transfer(topo["h0"], topo["h1"], 0.0)
        assert ev.triggered and ev.ok

    def test_loopback_is_free(self):
        env, topo, fabric = make_fabric()
        ev = fabric.transfer(topo["h0"], topo["h0"], 1e9)
        assert ev.triggered
        assert fabric.meter.total() == 0.0

    def test_invalid_args(self):
        env, topo, fabric = make_fabric()
        with pytest.raises(ValueError):
            fabric.transfer(topo["h0"], topo["h1"], -1.0)
        with pytest.raises(ValueError):
            fabric.transfer(topo["h0"], topo["h1"], 1.0, weight=0.0)
        with pytest.raises(ValueError):
            Fabric(env, topo, latency=-1.0)

    @pytest.mark.parametrize("nbytes", [math.nan, math.inf])
    def test_non_finite_bytes_rejected(self, nbytes):
        env, topo, fabric = make_fabric()
        with pytest.raises(ValueError):
            fabric.transfer(topo["h0"], topo["h1"], nbytes)
        with pytest.raises(ValueError):
            fabric.message(topo["h0"], topo["h1"], nbytes)
        assert fabric.active_flows == 0
        assert fabric.meter.by_pair() == {}

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, weight):
        env, topo, fabric = make_fabric()
        with pytest.raises(ValueError):
            fabric.transfer(topo["h0"], topo["h1"], 1.0, weight=weight)
        assert fabric.active_flows == 0

    def test_shared_egress_nic(self):
        """Two flows out of the same host share its egress NIC."""
        env, topo, fabric = make_fabric()
        times = {}

        def proc(dst, tag):
            yield fabric.transfer(topo["h0"], topo[dst], 100.0, tag=tag)
            times[tag] = env.now

        env.process(proc("h1", "a"))
        env.process(proc("h2", "b"))
        env.run()
        assert times["a"] == pytest.approx(2.0)
        assert times["b"] == pytest.approx(2.0)

    def test_disjoint_flows_full_speed(self):
        env, topo, fabric = make_fabric()
        times = {}

        def proc(src, dst, tag):
            yield fabric.transfer(topo[src], topo[dst], 100.0, tag=tag)
            times[tag] = env.now

        env.process(proc("h0", "h1", "a"))
        env.process(proc("h2", "h3", "b"))
        env.run()
        assert times["a"] == pytest.approx(1.0)
        assert times["b"] == pytest.approx(1.0)

    def test_backplane_throttles_disjoint_flows(self):
        env, topo, fabric = make_fabric(backplane=100.0)
        times = {}

        def proc(src, dst, tag):
            yield fabric.transfer(topo[src], topo[dst], 100.0, tag=tag)
            times[tag] = env.now

        env.process(proc("h0", "h1", "a"))
        env.process(proc("h2", "h3", "b"))
        env.run()
        # 50 B/s each under the 100 B/s backplane.
        assert times["a"] == pytest.approx(2.0)
        assert times["b"] == pytest.approx(2.0)

    def test_departure_speeds_up_survivor(self):
        env, topo, fabric = make_fabric()
        times = {}

        def proc(nbytes, tag):
            yield fabric.transfer(topo["h0"], topo["h1"], nbytes, tag=tag)
            times[tag] = env.now

        env.process(proc(50.0, "short"))
        env.process(proc(150.0, "long"))
        env.run()
        # share 50/50 until short finishes at t=1 (50 B at 50 B/s);
        # long then has 100 B left at 100 B/s -> t=2.
        assert times["short"] == pytest.approx(1.0)
        assert times["long"] == pytest.approx(2.0)

    def test_weight_priority(self):
        env, topo, fabric = make_fabric()
        times = {}

        def proc(tag, weight):
            yield fabric.transfer(topo["h0"], topo["h1"], 100.0, tag=tag, weight=weight)
            times[tag] = env.now

        env.process(proc("prio", 4.0))
        env.process(proc("bulk", 1.0))
        env.run()
        # prio at 80 B/s finishes t=1.25; bulk: 25 B by then, 75 left at 100 -> 2.0
        assert times["prio"] == pytest.approx(1.25)
        assert times["bulk"] == pytest.approx(2.0)

    def test_meter_accounts_partial_progress(self):
        env, topo, fabric = make_fabric()
        fabric.transfer(topo["h0"], topo["h1"], 1000.0, tag="x")
        env.run(until=2.0)
        # Force integration by starting another flow.
        fabric.transfer(topo["h2"], topo["h3"], 1.0, tag="y")
        assert fabric.meter.bytes("x") == pytest.approx(200.0)

    def test_same_key_flows_get_the_per_flow_solve(self):
        """Flows sharing (src, dst, tag) each get exactly the rate a solve
        with one variable per flow gives them."""
        env = Environment()
        topo = Topology(backplane=700.0)
        hosts = [topo.add_host(f"h{i}", nic)
                 for i, nic in enumerate((100.0, 250.0, 100.0))]
        fabric = Fabric(env, topo)
        legs = [(0, 1, 0.5), (0, 1, 1.0), (2, 1, 0.5)]
        done = [fabric.transfer(hosts[src], hosts[dst], 1000.0, tag="a",
                                weight=weight)
                for src, dst, weight in legs]
        srcs, dsts, weights = zip(*legs)
        expected = maxmin_single_switch(
            np.array(weights), np.array(srcs), np.array(dsts),
            topo.nic_out_array(), topo.nic_in_array(), topo.backplane)
        assert [ev.flow.rate for ev in done] == expected.tolist()

    def test_exact_byte_accounting_after_completion(self):
        env, topo, fabric = make_fabric()
        sizes = [123.0, 456.7, 89.0]
        for s in sizes:
            fabric.transfer(topo["h0"], topo["h1"], s, tag="x")
        env.run()
        assert fabric.meter.bytes("x") == pytest.approx(sum(sizes))


class TestMessages:
    def test_message_latency_and_wire_time(self):
        env, topo, fabric = make_fabric(latency=0.5)
        done = []

        def proc():
            yield fabric.message(topo["h0"], topo["h1"], nbytes=100.0, tag="ctl")
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [pytest.approx(0.5 + 1.0)]
        assert fabric.meter.bytes("ctl") == pytest.approx(100.0)

    def test_loopback_message_free(self):
        env, topo, fabric = make_fabric(latency=0.5)
        ev = fabric.message(topo["h0"], topo["h0"])
        assert ev.triggered


class TestManyFlows:
    def test_thirty_concurrent_pairs_under_backplane(self):
        """30 disjoint pairs on a backplane of 10x NIC: each gets 1/3 NIC."""
        env = Environment()
        topo = Topology(backplane=1000.0)
        for i in range(60):
            topo.add_host(f"h{i}", nic_out=100.0)
        fabric = Fabric(env, topo)
        times = []

        def proc(i):
            yield fabric.transfer(topo[f"h{i}"], topo[f"h{i + 30}"], 100.0)
            times.append(env.now)

        for i in range(30):
            env.process(proc(i))
        env.run()
        # 1000/30 = 33.3 B/s each -> 3 s
        assert all(math.isclose(t, 3.0, rel_tol=1e-9) for t in times)
