"""Property: the fabric's array flow table == the per-flow reference loop.

The production :class:`~repro.netsim.flows.Fabric` integrates and scans
its flow table with whole-array operations above a flow-count crossover,
and with a per-flow loop below it.  The reference oracle
(``tests/differential/oracle.py``) runs the same table through per-flow
loops at every count, with one meter credit per flow and running sums for
``host_load``, and admits each leg of a ``transfer_many`` by itself.
Hypothesis drives both through random edit scripts — transfers,
same-instant fan-outs of single transfers, ``transfer_many`` fan-outs
(loopback and zero-byte legs included), cancels, host aborts, NIC
degrade / restore and run-until steps — over 1-64 concurrent flows whose
``(src, dst, tag, cause)`` keys repeat, so both sides of the crossover
run and one meter cell takes several flows' credits in a step.  After
every step ``meter.by_pair()``, and after a drawn subset of steps the
per-flow rates and the ``host_load`` of every host, must be equal with
``==``, and so must every completion time.  A
step whose rates nobody reads leaves its changes to be settled with the
instant's later ones, which the reference settles one by one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Fabric, Topology
from repro.simkernel import Environment

from tests.differential.oracle import kernel_scope

N_HOSTS = 4
TAGS = ("a", "b")
CAUSES = ("x", "y")

_transfer = st.tuples(
    st.just("transfer"),
    st.integers(0, N_HOSTS - 1),
    st.integers(1, N_HOSTS - 1),
    st.sampled_from(TAGS),
    st.sampled_from(CAUSES),
    st.floats(1.0, 5e4, allow_nan=False),
    st.sampled_from([0.5, 1.0, 2.0, 3.7]),
)

#: One ``transfer_many``: legs as (source, hop), a hop of 0 a loopback.
_many = st.tuples(
    st.just("many"),
    st.lists(st.tuples(st.integers(0, N_HOSTS - 1),
                       st.integers(0, N_HOSTS - 1)), min_size=1, max_size=12),
    st.sampled_from(TAGS),
    st.sampled_from(CAUSES),
    st.just(0.0) | st.floats(1.0, 5e4, allow_nan=False),
)


@st.composite
def scripts(draw):
    """A start of 1-64 transfers, a mix of edit steps, each drawn with
    whether its rates are read after it, then every host restored and
    the flows run to completion."""
    # Draw the count first, so that tables above the crossover are as
    # likely as tables below it.
    n_start = draw(st.integers(1, 64))
    start = draw(st.lists(_transfer, min_size=n_start, max_size=n_start))
    steps = draw(st.lists(st.tuples(
        st.one_of(
            _transfer,
            _many,
            st.tuples(st.just("fan-out"),
                      st.lists(_transfer, min_size=1, max_size=24)),
            st.tuples(st.just("cancel"), st.integers(0, 200)),
            st.tuples(st.just("abort"), st.integers(0, N_HOSTS - 1)),
            st.tuples(st.just("degrade"), st.integers(0, N_HOSTS - 1),
                      st.sampled_from([0.0, 0.3, 0.5])),
            st.tuples(st.just("restore"), st.integers(0, N_HOSTS - 1)),
            st.tuples(st.just("run"), st.floats(0.01, 40.0)),
        ),
        st.booleans(),  # read the rates after the step
    ), min_size=1, max_size=16))
    restore = [(("restore", h), True) for h in range(N_HOSTS)]
    return [(("fan-out", start), True), *steps, *restore, (("run", 1e6), True)]


def _play(script) -> list:
    """Run ``script`` on a fresh fabric; the log of everything observed."""
    env = Environment()
    topo = Topology(backplane=700.0)
    hosts = [topo.add_host(f"h{i}", nic) for i, nic in
             enumerate((100.0, 250.0, 100.0, 400.0))]
    fabric = Fabric(env, topo, latency=0.0)
    started = []
    log = []

    def transfer(step):
        _, src, hop, tag, cause, nbytes, weight = step
        ev = fabric.transfer(hosts[src], hosts[(src + hop) % N_HOSTS], nbytes,
                             tag=tag, weight=weight, cause=cause)
        i = len(started)
        ev.callbacks.append(lambda _ev: log.append(("done", i, env.now)))
        started.append(ev)

    def transfer_many(step):
        _, legs, tag, cause, nbytes = step
        ev = fabric.transfer_many(
            [hosts[src] for src, _ in legs],
            [hosts[(src + hop) % N_HOSTS] for src, hop in legs], nbytes,
            tag=tag, cause=cause)
        i = len(started)
        ev.callbacks.append(
            lambda _ev: log.append(("done", i, env.now, _ev.value)))
        started.append(ev)

    for step, observe in script:
        kind = step[0]
        if kind == "transfer":
            transfer(step)
        elif kind == "many":
            transfer_many(step)
        elif kind == "fan-out":
            for leg in step[1]:
                transfer(leg)
        elif kind == "cancel":
            log.append(("cancel", fabric.cancel(started[step[1] % len(started)])))
        elif kind == "abort":
            log.append(("abort", fabric.abort_flows(hosts[step[1]])))
        elif kind == "degrade":
            topo.degrade_host(hosts[step[1]], step[2])
            fabric.sync()
        elif kind == "restore":
            topo.restore_host(hosts[step[1]])
            fabric.sync()
        else:
            env.run(until=env.now + step[1])
        if observe:
            log.append(("rates", env.now, [fl.rate for fl in fabric._flows]))
            log.append(("load", [fabric.host_load(h) for h in hosts]))
        log.append(("meter", fabric.meter.by_pair()))
    return log


@settings(max_examples=200, deadline=None)
@given(scripts())
def test_array_table_equals_per_flow_loop(script):
    with kernel_scope("fast"):
        fast = _play(script)
    with kernel_scope("reference"):
        reference = _play(script)
    assert fast == reference
