"""The fabric reshares once per simulated instant, and a fan-out is one
admission with one completion event.

Every change to the flow set (transfer, cancel, abort, sync, the wakeup)
integrates at once but leaves the max-min solve and the wakeup to one
settle at the end of the instant, or to the first rate reader before it.
Repository fetch and store (per-leg ``transfer`` calls), PVFS read and
write and the CM1 halo exchange (``transfer_many``) each cost exactly one
``maxmin.invocations`` per instant, and so do all ranks' halo legs in one
CM1 step.  The rates they leave and the times their legs complete equal
those of the eager oracle (``tests/differential/oracle.py``), which
settles at every change and admits a fan-out's legs one by one.  A
``transfer_many`` event wrapped in ``all_of`` resumes its waiter where an
``all_of`` over per-leg transfers would.

Counts are taken under ``kernel_scope("fast")``, so they also hold when
the whole session runs on the oracle.
"""

import numpy as np
import pytest

from repro.netsim import Fabric, Topology
from repro.obs import Observability
from repro.repository.blobseer import StripedRepository
from repro.repository.pvfs import PVFS
from repro.simkernel import Environment
from repro.workloads.cm1 import build_cm1_ensemble
from tests.conftest import SMALL_SPEC
from tests.differential.oracle import KERNELS, kernel_scope

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


def _halo(grid):
    """Every rank of a ``grid`` CM1 ensemble starts its halo legs."""
    def build():
        env, fabric, vms = _cloud(grid[0] * grid[1])
        ranks = build_cm1_ensemble(env, vms, fabric, grid, halo_bytes=MB)
        return env, fabric, lambda: env.all_of(
            [next(rank._halo_exchange()) for rank in ranks])

    return build


def _halo_step():
    env, fabric, vms = _cloud(4)
    ranks = build_cm1_ensemble(env, vms, fabric, (2, 2), halo_bytes=MB)
    return env, fabric, lambda: next(ranks[0]._halo_exchange())


FAN_OUTS = {
    "blobseer-fetch": _fetch,
    "blobseer-store": _store,
    "pvfs-read": _pvfs("read"),
    "pvfs-write": _pvfs("write"),
    "cm1-halo": _halo_step,
    "cm1-step-4x4": _halo((4, 4)),
}


def _durations(value):
    """The leg durations in an ``all_of`` value, nested ones and a
    ``transfer_many`` fan-out's list included."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [d for v in value for d in _durations(v)]
    return [value]


def _fan_out(build, kernel):
    """Start ``build``'s fan-out at t=1 on ``kernel`` and run until it
    completes.

    Returns the solves the instant cost, the flows it added, every flow's
    rate once the instant ended, and when and with what durations its
    legs completed.
    """
    with kernel_scope(kernel):
        env, fabric, start = build()
        obs = Observability(trace=False, metrics=False, profile=True)
        obs.install(env)
        out = {}

        def solves():
            return obs.profiler.counters.get("maxmin.invocations", 0)

        def instant_end(before, flows):
            # Registered after the fabric's settle, so it runs after it.
            out["solves"] = solves() - before
            out["legs"] = fabric.active_flows - flows
            out["rates"] = [fl.rate for fl in fabric._flows]

        def driver():
            yield env.timeout(1.0)
            before, flows = solves(), fabric.active_flows
            done = start()
            env.at_instant_end(lambda: instant_end(before, flows))
            out["done"] = (env.now, sorted(_durations((yield done))))

        env.run(until=env.process(driver()))
    return out


@pytest.mark.parametrize("site", sorted(FAN_OUTS))
def test_fan_out_costs_one_solve_and_changes_nothing_else(site):
    fast = _fan_out(FAN_OUTS[site], "fast")
    eager = _fan_out(FAN_OUTS[site], "reference")
    assert eager["solves"] == eager["legs"] > 1
    assert fast["solves"] == 1
    assert fast["legs"] == eager["legs"]
    assert fast["rates"] == eager["rates"]
    assert fast["done"] == eager["done"]


def test_a_raising_leg_leaves_the_earlier_legs_with_rates():
    with kernel_scope("fast"):
        env, _, fabric, servers, client = _small_fabric()
        legs = []

        def fan_out():
            legs.append(fabric.transfer(servers[1], client, 100.0, tag="x",
                                        cause="x"))
            fabric.transfer(servers[2], client, -1.0, tag="x", cause="x")
            yield env.all_of(legs)

        env.process(fan_out())
        with pytest.raises(ValueError, match="non-negative"):
            env.run()
        # The run stopped inside the instant; reading settles it.  The
        # background flow and the first leg split the client's NIC.
        assert [fl.rate for fl in fabric._flows] == [50.0, 50.0]
        env.run()
    assert legs[0].value == 2.0


def test_a_batch_that_adds_no_flow_does_not_reshare():
    # Loopback, black-holed and zero-byte legs leave the flow set as it
    # was: the instant asks for no settle and the wakeup stays armed.
    with kernel_scope("fast"):
        env, topo, fabric, servers, client = _small_fabric()
        obs = Observability(trace=False, metrics=True)
        obs.install(env)
        env.run(until=1.0)
        reshares = obs.metrics.counter("net.reshares").value
        wakeup = fabric._timer._pending
        topo.fail_host(servers[3])
        loopback = fabric.transfer(client, client, 100.0, tag="x", cause="x")
        blackholed = fabric.transfer(servers[3], client, 100.0, tag="x",
                                     cause="x")
        empty = fabric.transfer(servers[1], client, 0.0, tag="x", cause="x")
        env.run(until=1.25)
        assert obs.metrics.counter("net.reshares").value == reshares == 1
        assert fabric._timer._pending is wakeup
        assert fabric.active_flows == 1
        env.run()
    assert loopback.processed and empty.processed
    assert not blackholed.triggered


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_flow_dropped_in_its_first_instant_keeps_its_eager_rate(kernel):
    with kernel_scope(kernel):
        env, _, fabric, servers, client = _small_fabric()
        legs = [fabric.transfer(s, client, 100.0, tag="x", cause="x")
                for s in servers[1:3]]
        assert fabric.cancel(legs[1])
        # Three flows shared the client's NIC when the leg left.
        assert legs[1].flow.rate == 100.0 / 3
        assert [fl.rate for fl in fabric._flows] == [50.0, 50.0]


def test_a_settle_pending_when_run_stops_is_taken_by_the_next_host_load():
    with kernel_scope("fast"):
        env, _, fabric, servers, client = _small_fabric()

        def starter():
            yield env.timeout(1.0)
            return fabric.transfer(servers[1], client, 100.0, tag="x",
                                   cause="x")

        leg = env.run(until=env.process(starter()))
        # run() stopped at t=1 before the instant ended: the leg has no
        # rate in the table yet, and the first reader settles it.
        assert fabric._settling
        assert fabric.host_load(servers[1]) == (0.0, 50.0)
        assert fabric.host_load(servers[0]) == (0.0, 50.0)
        assert not fabric._settling
        env.run()
    # 50 B at 50 B/s, then the background flow is done at t=2 and the
    # leg's last 50 B go at 100 B/s.
    assert (env.now, leg.value) == (2.5, 1.5)


def _mid_instant_reads(kernel):
    """Two transfers at t=1 with ``host_load`` reads between them, of a
    host no flow touches and of a touched one; a timeout set after them
    is due when both flows finish.

    Returns each read's value and the solves it cost, every flow's rate
    once the instant ended, and who resumed when.
    """
    with kernel_scope(kernel):
        env = Environment()
        topo = Topology()
        src, dst, idle = (topo.add_host(name, nic_out=100.0)
                          for name in ("src", "dst", "idle"))
        fabric = Fabric(env, topo, latency=0.0)
        obs = Observability(trace=False, metrics=False, profile=True)
        obs.install(env)
        out = {"reads": [], "resumed": []}

        def solves():
            return obs.profiler.counters.get("maxmin.invocations", 0)

        def read(host):
            before = solves()
            load = fabric.host_load(host)
            out["reads"].append((host.name, load, solves() - before))

        def wait(name, event):
            yield event
            out["resumed"].append((name, env.now, fabric.active_flows))

        def driver():
            yield env.timeout(1.0)
            env.process(wait("first", fabric.transfer(src, dst, 100.0,
                                                      tag="x", cause="x")))
            read(idle)
            read(dst)
            env.process(wait("second", fabric.transfer(src, dst, 100.0,
                                                       tag="x", cause="x")))
            read(idle)
            env.at_instant_end(lambda: out.update(
                rates=[fl.rate for fl in fabric._flows]))
            # Both flows finish at t=3, when this timeout is due too.
            env.process(wait("timeout", env.timeout(2.0)))

        env.process(driver())
        env.run()
        out["settling"] = fabric._settling
    return out


def test_a_host_load_read_of_an_untouched_host_settles_nothing():
    fast = _mid_instant_reads("fast")
    eager = _mid_instant_reads("reference")
    # The untouched host reads no rate and costs no solve; the touched
    # one settles the instant so far.
    assert [solves for _host, _load, solves in fast["reads"]] == [0, 1, 0]
    assert fast["reads"][0][1] == fast["reads"][2][1] == (0.0, 0.0)
    assert [(host, load) for host, load, _ in fast["reads"]] == [
        (host, load) for host, load, _ in eager["reads"]]
    assert fast["rates"] == eager["rates"] == [50.0, 50.0]
    # The wakeup keeps the number the second transfer reserved: it fires
    # before the timeout set after it, so the timeout's waiter finds the
    # flows gone, and resumes before the flows' waiters.
    assert fast["resumed"] == eager["resumed"] == [
        ("timeout", 3.0, 0), ("first", 3.0, 0), ("second", 3.0, 0)]
    assert not fast["settling"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_wakeup_due_with_a_later_timeout_fires_first(kernel):
    """The wakeup is armed at the number its transfer reserved, so it
    sorts before a timeout scheduled after the transfer in the same
    instant, although the settle that arms it runs later."""
    with kernel_scope(kernel):
        env = Environment()
        topo = Topology()
        src = topo.add_host("src", nic_out=1e6)
        dst = topo.add_host("dst", nic_out=1e6)
        fabric = Fabric(env, topo, latency=0.0)
        done = fabric.transfer(src, dst, 1e6, tag="x", cause="x")
        seen = []

        def reader():
            yield env.timeout(1.0)
            seen.append((done.triggered, fabric.host_load(src)))

        env.process(reader())
        env.run()
    # The flow finishes at exactly t=1.0, before the reader looks.
    assert seen == [(True, (0.0, 0.0))]


def _fabric_of(n_servers=3, nic=100.0):
    env = Environment()
    topo = Topology()
    servers = [topo.add_host(f"s{i}", nic_out=nic) for i in range(n_servers)]
    client = topo.add_host("c0", nic_out=nic)
    return env, topo, Fabric(env, topo, latency=0.0), servers, client


def _resume_order(kernel, fan_out):
    """Two legs into the client and a lone transfer admitted after them
    all finish in one integration step; log who resumes, and when."""
    with kernel_scope(kernel):
        env, _, fabric, servers, client = _fabric_of()
        log = []

        def waiter():
            yield env.all_of(fan_out(fabric, servers[:2], client))
            log.append(("fan-out", env.now))

        def lone():
            yield fabric.transfer(servers[2], client, 100.0, tag="x",
                                  cause="x")
            log.append(("lone", env.now))

        env.process(waiter())
        env.process(lone())
        env.run()
    return log, env.events_processed


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_fan_out_resumes_its_waiter_where_its_legs_would(kernel):
    def per_leg(fabric, srcs, dst):
        return [fabric.transfer(s, dst, 100.0, tag="x", cause="x")
                for s in srcs]

    def one_event(fabric, srcs, dst):
        return [fabric.transfer_many(srcs, [dst] * len(srcs), 100.0,
                                     tag="x", cause="x")]

    legs, legs_events = _resume_order(kernel, per_leg)
    fan, fan_events = _resume_order(kernel, one_event)
    # The lone flow's event sorts between the last leg's and the all_of
    # that leg triggers, so it resumes first either way.
    assert [who for who, _ in fan] == ["lone", "fan-out"]
    assert fan == legs
    assert fan_events == legs_events - 1


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_loopback_leg_counts_as_done_at_once(kernel):
    with kernel_scope(kernel):
        env, _, fabric, servers, client = _fabric_of()
        done = fabric.transfer_many([servers[0], client, servers[1]],
                                    [client, client, client], 100.0,
                                    tag="x", cause="x")
        assert fabric.active_flows == 2
        env.run()
    # Two legs share the client's NIC: 100 B each at 50 B/s.
    assert (env.now, done.value) == (2.0, [2.0, 0.0, 2.0])
    assert fabric.meter.by_tag() == {"x": 200.0}


@pytest.mark.parametrize("srcs, dsts, nbytes", [
    ("cc", "cc", 100.0),   # all loopback
    ("01", "cc", 0.0),     # all zero-byte
    ("c0", "cc", 0.0),     # one of each
])
def test_a_fan_out_without_flows_fires_at_once(srcs, dsts, nbytes):
    with kernel_scope("fast"):
        env, _, fabric, servers, client = _fabric_of()
        host = {"0": servers[0], "1": servers[1], "c": client}.get
        done = fabric.transfer_many([host(h) for h in srcs],
                                    [host(h) for h in dsts], nbytes,
                                    tag="x", cause="x")
        assert done.triggered and not fabric._settling
        assert fabric.active_flows == 0
        env.run()
    assert (env.now, done.value) == (0.0, [0.0, 0.0])


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_leg_to_a_crashed_host_never_fires_the_fan_out(kernel):
    with kernel_scope(kernel):
        env, topo, fabric, servers, client = _fabric_of()
        obs = Observability(trace=False, metrics=True)
        obs.install(env)
        topo.fail_host(servers[1])
        done = fabric.transfer_many(servers, [client] * 3, 100.0, tag="x",
                                    cause="x")
        env.run()
    # The live legs move their bytes; the black-holed one never ends.
    assert not done.triggered
    assert (env.now, fabric.active_flows) == (2.0, 0)
    assert fabric.meter.by_tag() == {"x": 200.0}
    assert obs.metrics.counter("net.flows.blackholed").value == 1
    assert not fabric.cancel(done)


@pytest.mark.parametrize("kernel", KERNELS)
def test_abort_flows_during_a_fan_out_leaves_it_pending(kernel):
    with kernel_scope(kernel):
        env, _, fabric, servers, client = _fabric_of()
        done = fabric.transfer_many(servers[:2], [client] * 2, 100.0,
                                    tag="x", cause="x")
        env.run(until=1.0)
        assert fabric.abort_flows(servers[1]) == 1
        env.run()
    # 50 B of the aborted leg moved; the survivor ran alone after t=1.
    assert not done.triggered
    assert env.now == 1.5
    assert fabric.meter.by_tag() == {"x": 150.0}


def test_transfer_many_validates_before_starting_a_leg():
    with kernel_scope("fast"):
        env, _, fabric, servers, client = _fabric_of()
        with pytest.raises(ValueError, match="same length"):
            fabric.transfer_many(servers, [client], 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            fabric.transfer_many(servers, [client] * 3, -1.0)
        assert fabric.active_flows == 0
