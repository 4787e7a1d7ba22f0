"""Fault-path invalidation: stale rates must die the instant a fault hits.

The incremental max-min solver memoizes solutions and skips recomputes
when nothing changed; a fault that silently failed to invalidate those
caches would leave flows running at pre-fault rates — a *correctness*
bug dressed as a performance feature.  These regressions pin the three
invalidation channels:

* **topology version** — link degrade / partition / restore bump
  ``Topology.version``, which keys the solver memo and the fabric's
  recompute skip;
* **flow-set dirtiness** — adding/removing flows (including repository
  fetch stripes rerouting around a dead server) marks the fabric dirty;
* after any of the above, every standing flow's rate must equal a fresh
  from-scratch oracle solve, bitwise.
"""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.netsim.fairness import IncrementalMaxMin, maxmin_single_switch
from repro.netsim.flows import Fabric
from repro.netsim.topology import Topology
from repro.simkernel import Environment

from tests.faults.test_chaos_matrix import CHAOS_SPEC

MB = 2**20


def _fabric_oracle_rates(fabric: Fabric) -> dict[int, float]:
    """From-scratch expected rate per standing flow (keyed by ``id``),
    coalescing same-(src, dst, tag) flows exactly as the fabric does."""
    topo = fabric.topology
    groups: dict[tuple[int, int, str], tuple[float, list]] = {}
    order = []
    for fl in fabric._flows:
        key = (fl.src.index, fl.dst.index, fl.tag)
        if key not in groups:
            groups[key] = (0.0, [])
            order.append(key)
        total, members = groups[key]
        groups[key] = (total + fl.weight, members)
        members.append(fl)
    if not order:
        return {}
    srcs = np.array([k[0] for k in order], dtype=np.intp)
    dsts = np.array([k[1] for k in order], dtype=np.intp)
    weights = np.array([groups[k][0] for k in order], dtype=np.float64)
    rates = maxmin_single_switch(
        weights, srcs, dsts,
        topo.nic_out_array(), topo.nic_in_array(), topo.backplane,
    )
    expected: dict[int, float] = {}
    for gi, key in enumerate(order):
        total_w, members = groups[key]
        rate = float(rates[gi])
        if len(members) == 1:
            expected[id(members[0])] = rate
        else:
            for fl in members:
                expected[id(fl)] = rate * (fl.weight / total_w)
    return expected


def _assert_rates_fresh(fabric: Fabric, where: str) -> None:
    expected = _fabric_oracle_rates(fabric)
    for fl in fabric._flows:
        assert fl.rate == expected[id(fl)], (
            f"{where}: flow {fl!r} runs at a stale rate {fl.rate}, "
            f"fresh solve says {expected[id(fl)]}"
        )


def _two_host_fabric():
    env = Environment()
    topo = Topology()
    topo.add_host("a", 100e6)
    topo.add_host("b", 100e6)
    topo.add_host("c", 100e6)
    fabric = Fabric(env, topo, latency=1e-4)
    return env, topo, fabric


def test_link_degrade_invalidates_standing_rates():
    env, topo, fabric = _two_host_fabric()
    fabric.transfer(topo.hosts[0], topo.hosts[1], 1e9,
                    tag="storage-push", cause="push")
    env.run(until=0.5)
    fl = fabric._flows[0]
    assert fl.rate == pytest.approx(100e6)
    v0 = topo.version
    topo.degrade_host("a", 0.5)
    assert topo.version > v0, "degrade must bump the topology version"
    fabric.sync()
    assert fl.rate == pytest.approx(50e6)
    _assert_rates_fresh(fabric, "after degrade")


def test_link_partition_and_restore_round_trip():
    env, topo, fabric = _two_host_fabric()
    fabric.transfer(topo.hosts[0], topo.hosts[1], 1e9,
                    tag="storage-push", cause="push")
    env.run(until=0.5)
    fl = fabric._flows[0]
    before = fl.rate
    topo.degrade_host("b", 0.0)  # transient partition
    fabric.sync()
    assert fl.rate == 0.0
    _assert_rates_fresh(fabric, "partitioned")
    topo.restore_host("b")
    fabric.sync()
    assert fl.rate == before, "restore must return the exact pre-fault rate"
    _assert_rates_fresh(fabric, "restored")


def test_repeated_faults_never_serve_stale_allocations():
    """Alternate faults and recoveries; every sync lands on a fresh
    solve (the version key makes pre-fault memo entries unreachable)."""
    env, topo, fabric = _two_host_fabric()
    fabric.transfer(topo.hosts[0], topo.hosts[1], 5e9,
                    tag="storage-push", cause="push")
    fabric.transfer(topo.hosts[2], topo.hosts[1], 5e9,
                    tag="storage-pull", cause="prefetch")
    env.run(until=0.2)
    for factor in (0.5, 1.0, 0.25, 1.0, 0.5):
        topo.degrade_host("b", factor)
        fabric.sync()
        _assert_rates_fresh(fabric, f"b at factor {factor}")
        env.run(until=env.now + 0.05)


def test_version_bump_bypasses_memo():
    """A degrade must make every pre-fault memo entry unreachable; a
    restore returns to the pre-fault capacity *content*, so the original
    solution may legally be served again — but only the exact one."""
    topo = Topology()
    topo.add_host("a", 100e6)
    topo.add_host("b", 100e6)
    inc = IncrementalMaxMin(topo)
    srcs = np.array([0], dtype=np.intp)
    dsts = np.array([1], dtype=np.intp)
    w = np.ones(1)
    stats: dict = {}
    healthy = inc.solve(w, srcs, dsts, stats=stats)
    inc.solve(w, srcs, dsts, stats=stats)
    assert stats["solves"] == 1 and stats["memo_hits"] == 1
    assert healthy[0] == pytest.approx(100e6)
    topo.degrade_host("a", 0.5)
    out = inc.solve(w, srcs, dsts, stats=stats)
    assert stats["solves"] == 2, "post-fault solve must not hit the memo"
    assert out[0] == pytest.approx(50e6)
    topo.restore_host("a")
    out = inc.solve(w, srcs, dsts, stats=stats)
    # Content-keyed memo: the restored topology is byte-identical to the
    # healthy one, so the cached healthy solution is exact and reusable.
    assert np.array_equal(out, healthy)
    topo.degrade_host("a", 0.5)
    out = inc.solve(w, srcs, dsts, stats=stats)
    assert out[0] == pytest.approx(50e6), "stale healthy rates served"


def test_stripe_server_outage_reroutes_and_recomputes():
    """A stripe-server outage changes the repository's flow set (stripes
    reroute to surviving replicas); the fabric must notice and re-share."""
    spec = dict(CHAOS_SPEC)
    env = Environment()
    cluster = Cluster(env, ClusterSpec(**spec))
    fabric = cluster.fabric
    repo = cluster.repository
    h0 = cluster.node(0).host
    h1 = cluster.node(1).host
    done = []

    def standing():
        yield fabric.transfer(h0, h1, 2_000 * MB, tag="storage-push",
                              cause="push")

    def fetches():
        # Chunk 2's replicas live on servers 2 and 3 (replication=2).
        yield env.timeout(0.1)
        _assert_rates_fresh(fabric, "standing flow alone")
        ev = repo.fetch(np.array([2, 2 + len(repo.servers)]), dest=h1)
        yield env.timeout(1e-3)
        # The new stripe flows contend with the standing push on h1's
        # ingress: the fabric must have recomputed, not kept 100 MB/s.
        _assert_rates_fresh(fabric, "fetch stripes added")
        srcs_before = {fl.src.index for fl in fabric._flows
                       if fl.tag == "repo-fetch"}
        assert 2 in srcs_before
        yield ev
        repo.fail_server(2)
        ev = repo.fetch(np.array([2]), dest=h1)
        yield env.timeout(1e-3)
        srcs_after = {fl.src.index for fl in fabric._flows
                      if fl.tag == "repo-fetch"}
        assert 2 not in srcs_after, "dead server still serving stripes"
        assert 3 in srcs_after, "surviving replica not used"
        _assert_rates_fresh(fabric, "stripes rerouted after outage")
        yield ev
        done.append(env.now)

    env.process(standing())
    env.process(fetches())
    env.run(until=60.0)
    assert done, "fetch sequence did not complete"
