"""Property tests: incremental max-min == from-scratch, after any edits.

:class:`~repro.netsim.fairness.IncrementalMaxMin` promises *bitwise*
agreement with a from-scratch :func:`maxmin_single_switch` over the full
host arrays, no matter what sequence of mutations hit the topology or the
flow set.  Hypothesis drives random topologies (hosts, NICs, backplane)
through random edit scripts — add flow, remove flow, degrade / restore /
fail hosts, scale the backplane — re-solving incrementally after every
edit and checking ``np.array_equal`` (exact, not allclose) against the
oracle.

Two classical max-min invariants are also checked with ``Fraction``
arithmetic (no float tolerance on the *bookkeeping*, only a 1-ULP-scale
relative slack where float rates meet float capacities):

* **flow conservation / feasibility** — per-constraint load never
  exceeds capacity;
* **fairness (bottleneck property)** — every flow crosses at least one
  nearly saturated constraint (otherwise its rate could grow, and the
  allocation would not be max-min).

The suite runs 200+ edit scripts (see ``max_examples`` below) in a few
seconds because topologies are small; smallness does not weaken the
properties — compaction, memoization and version invalidation all
trigger from two hosts up.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.fairness import IncrementalMaxMin, maxmin_single_switch
from repro.netsim.topology import Topology

#: Relative slack for float-capacity comparisons: the solver works in
#: float64, so a saturated constraint can sit a few ULP above or below
#: its capacity once rates are summed.
REL_EPS = 1e-9


# ------------------------------------------------------------- strategies
def topologies(draw):
    n_hosts = draw(st.integers(min_value=2, max_value=8))
    backplane = draw(st.one_of(
        st.none(),
        st.floats(min_value=50e6, max_value=400e6, allow_nan=False),
    ))
    topo = Topology(backplane=backplane)
    for i in range(n_hosts):
        nic = draw(st.sampled_from([50e6, 100e6, 125e6, 1e9]))
        topo.add_host(f"h{i}", nic)
    return topo


@st.composite
def scenarios(draw):
    topo = topologies(draw)
    n = len(topo)
    flow_strategy = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
        st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    ).filter(lambda f: f[0] != f[1])
    initial = draw(st.lists(flow_strategy, min_size=1, max_size=6))
    edits = draw(st.lists(
        st.one_of(
            st.tuples(st.just("add"), flow_strategy),
            st.tuples(st.just("remove"),
                      st.integers(min_value=0, max_value=10)),
            st.tuples(st.just("degrade"), st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.sampled_from([0.0, 0.2, 0.5, 1.0]),
            )),
            st.tuples(st.just("restore"),
                      st.integers(min_value=0, max_value=n - 1)),
            st.tuples(st.just("backplane"),
                      st.sampled_from([0.25, 0.5, 1.0])),
        ),
        min_size=1, max_size=8,
    ))
    return topo, initial, edits


def _apply_edit(topo: Topology, flows: list, edit) -> None:
    kind, arg = edit
    if kind == "add":
        flows.append(arg)
    elif kind == "remove":
        if flows:
            flows.pop(arg % len(flows))
    elif kind == "degrade":
        host_idx, factor = arg
        topo.degrade_host(topo.hosts[host_idx], factor)
    elif kind == "restore":
        topo.restore_host(topo.hosts[arg])
    elif kind == "backplane":
        topo.set_backplane_factor(arg)
    else:  # pragma: no cover
        raise AssertionError(kind)


def _arrays(flows):
    srcs = np.array([f[0] for f in flows], dtype=np.intp)
    dsts = np.array([f[1] for f in flows], dtype=np.intp)
    weights = np.array([f[2] for f in flows], dtype=np.float64)
    return srcs, dsts, weights


def _oracle(topo: Topology, srcs, dsts, weights) -> np.ndarray:
    return maxmin_single_switch(
        weights, srcs, dsts,
        topo.nic_out_array(), topo.nic_in_array(), topo.backplane,
    )


# ----------------------------------------------------------- equivalence
@settings(max_examples=220, deadline=None)
@given(scenarios())
def test_incremental_matches_scratch_after_every_edit(scenario):
    """The tentpole contract: after *every* edit in the script the
    incremental solver returns exactly the from-scratch allocation."""
    topo, flows, edits = scenario
    inc = IncrementalMaxMin(topo)
    flows = list(flows)
    for step in [None] + edits:
        if step is not None:
            _apply_edit(topo, flows, step)
        if not flows:
            continue
        srcs, dsts, weights = _arrays(flows)
        got = inc.solve(weights, srcs, dsts)
        want = _oracle(topo, srcs, dsts, weights)
        assert np.array_equal(got, want), (
            f"after edit {step}: incremental {got} != scratch {want}"
        )


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_repeat_solves_hit_memo_and_stay_exact(scenario):
    """Re-solving an unchanged instance must be served from the memo and
    still equal the oracle (stale-cache bugs show up here)."""
    topo, flows, _ = scenario
    inc = IncrementalMaxMin(topo)
    srcs, dsts, weights = _arrays(flows)
    stats: dict = {}
    first = inc.solve(weights, srcs, dsts, stats=stats)
    again = inc.solve(weights, srcs, dsts, stats=stats)
    assert stats.get("memo_hits", 0) >= 1
    assert np.array_equal(first, again)
    assert np.array_equal(again, _oracle(topo, srcs, dsts, weights))


# -------------------------------------------------- max-min invariants
def _constraint_loads(topo: Topology, srcs, dsts, rates):
    """Yield ``(capacity, load)`` pairs with loads summed in Fraction."""
    frates = [Fraction(float(r)) for r in rates]
    n_flows = len(frates)
    for h, host in enumerate(topo.hosts):
        out = sum((frates[i] for i in range(n_flows) if srcs[i] == h),
                  Fraction(0))
        if any(srcs[i] == h for i in range(n_flows)):
            yield Fraction(host.nic_out), out
        inn = sum((frates[i] for i in range(n_flows) if dsts[i] == h),
                  Fraction(0))
        if any(dsts[i] == h for i in range(n_flows)):
            yield Fraction(host.nic_in), inn
    if topo.backplane is not None:
        yield Fraction(topo.backplane), sum(frates, Fraction(0))


def _flow_constraints(topo: Topology, srcs, dsts, i):
    """Capacities/loads of the constraints flow ``i`` belongs to."""
    n_flows = len(srcs)
    members: list[tuple[Fraction, list[int]]] = []
    members.append((Fraction(topo.hosts[srcs[i]].nic_out),
                    [j for j in range(n_flows) if srcs[j] == srcs[i]]))
    members.append((Fraction(topo.hosts[dsts[i]].nic_in),
                    [j for j in range(n_flows) if dsts[j] == dsts[i]]))
    if topo.backplane is not None:
        members.append((Fraction(topo.backplane), list(range(n_flows))))
    return members


@settings(max_examples=120, deadline=None)
@given(scenarios())
def test_flow_conservation_and_fairness_invariants(scenario):
    """Feasibility and the bottleneck property, in exact arithmetic."""
    topo, flows, edits = scenario
    inc = IncrementalMaxMin(topo)
    flows = list(flows)
    for step in [None] + edits:
        if step is not None:
            _apply_edit(topo, flows, step)
        if not flows:
            continue
        srcs, dsts, weights = _arrays(flows)
        rates = inc.solve(weights, srcs, dsts)
        assert np.all(rates >= 0.0)
        # Feasibility: no constraint is overloaded (beyond float summation
        # slack, scaled to the capacity).
        for cap, load in _constraint_loads(topo, srcs, dsts, rates):
            assert load <= cap * (1 + Fraction(REL_EPS)), (
                f"after edit {step}: constraint overloaded "
                f"(cap={float(cap)}, load={float(load)})"
            )
        # Fairness: every flow with a positive rate ceiling saturates at
        # least one of its constraints (otherwise its rate could rise).
        frates = [Fraction(float(r)) for r in rates]
        for i in range(len(flows)):
            cons = _flow_constraints(topo, srcs, dsts, i)
            if any(cap == 0 for cap, _m in cons):
                # Degraded-to-zero host: the flow is black-holed at rate 0.
                assert frates[i] == 0
                continue
            saturated = any(
                sum((frates[j] for j in mem), Fraction(0))
                >= cap * (1 - Fraction(REL_EPS))
                for cap, mem in cons
            )
            assert saturated, (
                f"after edit {step}: flow {i} ({flows[i]}) saturates no "
                f"constraint — rate {float(frates[i])} could still grow"
            )


def test_version_invalidation_is_immediate():
    """A deterministic anchor for the fault path: degrade, re-solve, get
    the degraded allocation; restore, re-solve, get the original back."""
    topo = Topology()
    topo.add_host("a", 100e6)
    topo.add_host("b", 100e6)
    inc = IncrementalMaxMin(topo)
    srcs = np.array([0], dtype=np.intp)
    dsts = np.array([1], dtype=np.intp)
    w = np.ones(1)
    full = inc.solve(w, srcs, dsts)
    assert full[0] == pytest.approx(100e6)
    topo.degrade_host("a", 0.5)
    degraded = inc.solve(w, srcs, dsts)
    assert degraded[0] == pytest.approx(50e6)
    topo.restore_host("a")
    restored = inc.solve(w, srcs, dsts)
    assert np.array_equal(restored, full)
