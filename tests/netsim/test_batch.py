"""``Fabric.batch``: flows started at one instant share one reshare.

Every caller that starts several flows without yielding opens a batch:
repository fetch and store, PVFS read and write, the CM1 halo exchange
and the MapReduce shuffle.  A batch must save solves and change nothing
else.  Each fan-out below costs exactly one ``maxmin.invocations``, and
the rates it leaves and the times its legs complete equal those of the
same legs started one reshare at a time.

Counts are taken under ``kernel_scope("fast")``, so they also hold when
the whole session runs on the oracle, whose batch does nothing.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from repro.netsim import Fabric, Topology
from repro.obs import Observability
from repro.repository.blobseer import StripedRepository
from repro.repository.pvfs import PVFS
from repro.simkernel import Environment
from repro.workloads.cm1 import build_cm1_ensemble
from repro.workloads.mapreduce import build_mapreduce_ensemble
from tests.conftest import SMALL_SPEC
from tests.differential.oracle import kernel_scope

MB = 2**20


def _small_fabric(n_servers=4):
    env = Environment()
    topo = Topology()
    servers = [topo.add_host(f"s{i}", nic_out=100.0) for i in range(n_servers)]
    client = topo.add_host("c0", nic_out=100.0)
    fabric = Fabric(env, topo, latency=0.0)
    # A flow already in flight, so the fan-out's first leg integrates it.
    fabric.transfer(servers[0], client, 150.0, tag="bg", cause="bg")
    return env, topo, fabric, servers, client


def _fetch():
    env, _, fabric, servers, client = _small_fabric()
    repo = StripedRepository(env, fabric, servers, chunk_size=100,
                             replication=2)
    return env, fabric, lambda: repo.fetch(np.arange(8), client)


def _store():
    env, _, fabric, servers, client = _small_fabric()
    repo = StripedRepository(env, fabric, servers, chunk_size=100,
                             replication=2)
    return env, fabric, lambda: repo.store(np.arange(4), client)


def _pvfs(op):
    def build():
        env, _, fabric, servers, client = _small_fabric()
        fs = PVFS(env, fabric, servers, chunk_size=100, client_write_bw=40.0,
                  stripe_width=3)
        return env, fabric, lambda: getattr(fs, op)(client, 300.0)

    return build


def _cloud(n):
    from repro.cluster import CloudMiddleware, Cluster, ClusterSpec

    env = Environment()
    cloud = CloudMiddleware(Cluster(env, ClusterSpec(**dict(SMALL_SPEC,
                                                            n_nodes=n))))
    vms = [cloud.deploy(f"vm{i}", cloud.cluster.node(i), working_set=16 * MB)
           for i in range(n)]
    return env, cloud.cluster.fabric, vms


def _halo_step():
    env, fabric, vms = _cloud(4)
    ranks = build_cm1_ensemble(env, vms, fabric, (2, 2), halo_bytes=MB)
    return env, fabric, lambda: next(ranks[0]._halo_exchange())


def _shuffle():
    env, fabric, vms = _cloud(4)
    workers = build_mapreduce_ensemble(env, vms, fabric, input_split=8 * MB)
    return env, fabric, lambda: next(workers[0]._shuffle())


FAN_OUTS = {
    "blobseer-fetch": _fetch,
    "blobseer-store": _store,
    "pvfs-read": _pvfs("read"),
    "pvfs-write": _pvfs("write"),
    "cm1-halo": _halo_step,
    "mapreduce-shuffle": _shuffle,
}


def _fan_out(build, batched):
    """Start ``build``'s fan-out at t=1 and run until it completes.

    Returns the solves it cost, the flows it added, every flow's rate
    right after it, and when and with what durations its legs completed.
    """
    patch = (nullcontext() if batched else
             mock.patch.object(Fabric, "batch", lambda self: nullcontext()))
    with kernel_scope("fast"), patch:
        env, fabric, start = build()
        obs = Observability(trace=False, metrics=False, profile=True)
        obs.install(env)
        out = {}

        def solves():
            return obs.profiler.counters.get("maxmin.invocations", 0)

        def driver():
            yield env.timeout(1.0)
            before, flows = solves(), fabric.active_flows
            done = start()
            out["solves"] = solves() - before
            out["legs"] = fabric.active_flows - flows
            out["rates"] = [fl.rate for fl in fabric._flows]
            durations = yield done
            out["done"] = (env.now, sorted(durations.values()))

        env.run(until=env.process(driver()))
    return out


@pytest.mark.parametrize("site", sorted(FAN_OUTS))
def test_fan_out_costs_one_solve_and_changes_nothing_else(site):
    batched = _fan_out(FAN_OUTS[site], batched=True)
    unbatched = _fan_out(FAN_OUTS[site], batched=False)
    assert unbatched["solves"] == unbatched["legs"] > 1
    assert batched["solves"] == 1
    assert batched["legs"] == unbatched["legs"]
    assert batched["rates"] == unbatched["rates"]
    assert batched["done"] == unbatched["done"]


def test_a_raising_leg_leaves_the_earlier_legs_with_rates():
    with kernel_scope("fast"):
        env, _, fabric, servers, client = _small_fabric()
        with pytest.raises(ValueError, match="non-negative"):
            with fabric.batch():
                first = fabric.transfer(servers[1], client, 100.0, tag="x",
                                        cause="x")
                fabric.transfer(servers[2], client, -1.0, tag="x", cause="x")
        # The background flow and the first leg split the client's NIC.
        assert [fl.rate for fl in fabric._flows] == [50.0, 50.0]
        env.run()
    assert first.value == 2.0


def test_only_the_outermost_batch_reshares():
    with kernel_scope("fast"):
        env, _, fabric, servers, client = _small_fabric()
        with fabric.batch():
            with fabric.batch():
                fabric.transfer(servers[1], client, 100.0, tag="x", cause="x")
            assert [fl.rate for fl in fabric._flows] == [100.0, 0.0]
        assert [fl.rate for fl in fabric._flows] == [50.0, 50.0]


def test_a_batch_that_adds_no_flow_does_not_reshare():
    with kernel_scope("fast"):
        env, topo, fabric, servers, client = _small_fabric()
        obs = Observability(trace=False, metrics=True)
        obs.install(env)
        topo.fail_host(servers[3])
        wakeup = fabric._timer._pending
        with fabric.batch():
            loopback = fabric.transfer(client, client, 100.0, tag="x",
                                       cause="x")
            blackholed = fabric.transfer(servers[3], client, 100.0, tag="x",
                                         cause="x")
            empty = fabric.transfer(servers[1], client, 0.0, tag="x",
                                    cause="x")
        assert obs.metrics.counter("net.reshares").value == 0
        assert fabric._timer._pending is wakeup
        assert fabric.active_flows == 1
        env.run()
    assert loopback.processed and empty.processed
    assert not blackholed.triggered
