"""Unit + property tests for max-min fair progressive filling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.fairness import maxmin_single_switch
from tests.differential.oracle import (
    Constraint,
    per_round_maxmin,
    progressive_filling,
)


def test_single_constraint_equal_split():
    rates = progressive_filling(
        np.ones(4), [Constraint(100.0, np.arange(4), "link")]
    )
    assert np.allclose(rates, 25.0)


def test_weighted_split():
    rates = progressive_filling(
        np.array([3.0, 1.0]), [Constraint(100.0, np.arange(2), "link")]
    )
    assert np.allclose(rates, [75.0, 25.0])


def test_empty_flow_set():
    assert progressive_filling(np.zeros(0), []).shape == (0,)


def test_uncovered_flow_rejected():
    with pytest.raises(ValueError, match="not covered"):
        progressive_filling(np.ones(2), [Constraint(10.0, np.array([0]))])


def test_nonpositive_weight_rejected():
    with pytest.raises(ValueError, match="positive"):
        progressive_filling(
            np.array([1.0, 0.0]), [Constraint(10.0, np.arange(2))]
        )


def test_nonpositive_capacity_rejected():
    with pytest.raises(ValueError, match="capacity"):
        Constraint(0.0, np.array([0]))


def test_bottleneck_redistribution():
    """Classic max-min example: flow 0 bottlenecked on a thin link, the
    leftover goes to flow 1, not wasted."""
    # flows: 0 crosses thin+fat, 1 crosses fat only
    constraints = [
        Constraint(10.0, np.array([0]), "thin"),
        Constraint(100.0, np.array([0, 1]), "fat"),
    ]
    rates = progressive_filling(np.ones(2), constraints)
    assert np.allclose(rates, [10.0, 90.0])


def test_three_level_waterfill():
    # flows 0,1 share a 20 link; flows 1,2 share a 100 link; flow 2 alone on 50.
    constraints = [
        Constraint(20.0, np.array([0, 1]), "a"),
        Constraint(100.0, np.array([1, 2]), "b"),
        Constraint(50.0, np.array([2]), "c"),
    ]
    rates = progressive_filling(np.ones(3), constraints)
    # Fill: all rise to 10 (a saturates; 0,1 frozen); 2 rises to 50 (c saturates).
    assert np.allclose(rates, [10.0, 10.0, 50.0])


def test_backplane_binds_before_nics():
    """Many NIC-limited flows collectively capped by a small backplane —
    the Figure 4 precopy-collapse mechanism."""
    n = 16
    constraints = [
        Constraint(117.5, np.array([i]), f"nic{i}") for i in range(n)
    ]
    constraints.append(Constraint(800.0, np.arange(n), "backplane"))
    rates = progressive_filling(np.ones(n), constraints)
    assert np.allclose(rates, 800.0 / n)
    assert rates.sum() <= 800.0 + 1e-6


def test_nic_binds_when_backplane_ample():
    n = 4
    constraints = [Constraint(117.5, np.array([i]), f"nic{i}") for i in range(n)]
    constraints.append(Constraint(8000.0, np.arange(n), "backplane"))
    rates = progressive_filling(np.ones(n), constraints)
    assert np.allclose(rates, 117.5)


@st.composite
def fairness_instances(draw):
    n_flows = draw(st.integers(min_value=1, max_value=12))
    n_constraints = draw(st.integers(min_value=1, max_value=6))
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0),
            min_size=n_flows,
            max_size=n_flows,
        )
    )
    constraints = []
    for i in range(n_constraints):
        cap = draw(st.floats(min_value=1.0, max_value=1e4))
        members = draw(
            st.sets(st.integers(min_value=0, max_value=n_flows - 1), min_size=1)
        )
        constraints.append(Constraint(cap, np.array(sorted(members)), f"c{i}"))
    # Guarantee coverage with one catch-all constraint.
    constraints.append(Constraint(1e5, np.arange(n_flows), "all"))
    return np.array(weights), constraints


@settings(max_examples=100, deadline=None)
@given(fairness_instances())
def test_property_feasibility(instance):
    """No constraint is ever violated."""
    weights, constraints = instance
    rates = progressive_filling(weights, constraints)
    assert np.all(rates >= -1e-9)
    for c in constraints:
        assert rates[c.members].sum() <= c.capacity * (1 + 1e-6)


@settings(max_examples=100, deadline=None)
@given(fairness_instances())
def test_property_every_flow_bottlenecked(instance):
    """Max-min optimality: every flow crosses at least one saturated
    constraint (otherwise its rate could be raised — not max-min)."""
    weights, constraints = instance
    rates = progressive_filling(weights, constraints)
    sat = [
        c for c in constraints if rates[c.members].sum() >= c.capacity * (1 - 1e-6)
    ]
    for i in range(len(weights)):
        assert any(i in c.members for c in sat), f"flow {i} not bottlenecked"


@settings(max_examples=100, deadline=None)
@given(fairness_instances())
def test_property_weighted_maxmin(instance):
    """For two flows sharing the same bottleneck where both are frozen,
    normalized rates (rate/weight) of the flow frozen *earlier* can't exceed
    the other's — verified via the classic water-level characterization:
    r_i/w_i < r_j/w_j implies flow i crosses a saturated constraint whose
    every member has normalized rate <= r_i/w_i (+eps)."""
    weights, constraints = instance
    rates = progressive_filling(weights, constraints)
    norm = rates / weights
    sat = [
        c for c in constraints if rates[c.members].sum() >= c.capacity * (1 - 1e-6)
    ]
    for i in range(len(weights)):
        for j in range(len(weights)):
            if norm[i] < norm[j] * (1 - 1e-6):
                ok = any(
                    i in c.members
                    and np.all(norm[c.members] <= norm[i] * (1 + 1e-6) + 1e-9)
                    for c in sat
                )
                assert ok, f"max-min violated between flows {i} and {j}"


@st.composite
def switch_instances(draw):
    n_hosts = draw(st.integers(min_value=2, max_value=6))
    n_flows = draw(st.integers(min_value=1, max_value=12))
    nic_out = np.array(
        draw(st.lists(st.floats(min_value=1.0, max_value=1000.0),
                      min_size=n_hosts, max_size=n_hosts))
    )
    nic_in = np.array(
        draw(st.lists(st.floats(min_value=1.0, max_value=1000.0),
                      min_size=n_hosts, max_size=n_hosts))
    )
    srcs, dsts, weights = [], [], []
    for _ in range(n_flows):
        s = draw(st.integers(min_value=0, max_value=n_hosts - 1))
        d = draw(st.integers(min_value=0, max_value=n_hosts - 1).filter(lambda x: x != s))
        srcs.append(s)
        dsts.append(d)
        weights.append(draw(st.floats(min_value=0.1, max_value=10.0)))
    backplane = draw(
        st.one_of(st.none(), st.floats(min_value=1.0, max_value=5000.0))
    )
    return (
        np.array(weights),
        np.array(srcs, dtype=np.intp),
        np.array(dsts, dtype=np.intp),
        nic_out,
        nic_in,
        backplane,
    )


@settings(max_examples=150, deadline=None)
@given(switch_instances())
def test_property_fast_path_matches_generic(instance):
    """The bincount fast path computes exactly the same allocation as the
    generic progressive-filling over explicit constraints."""
    weights, srcs, dsts, nic_out, nic_in, backplane = instance
    fast = maxmin_single_switch(weights, srcs, dsts, nic_out, nic_in, backplane)

    constraints = [
        Constraint(nic_out[h], np.flatnonzero(srcs == h))
        for h in np.unique(srcs)
    ]
    constraints.extend(
        Constraint(nic_in[h], np.flatnonzero(dsts == h))
        for h in np.unique(dsts)
    )
    if backplane is not None:
        constraints.append(Constraint(backplane, np.arange(len(weights))))
    generic = progressive_filling(weights, constraints)

    np.testing.assert_allclose(fast, generic, rtol=1e-6, atol=1e-6)


@st.composite
def backplane_instances(draw):
    """A single-switch instance whose backplane is absent, binding (a
    fraction of what the flows reach without it) or loose."""
    weights, srcs, dsts, nic_out, nic_in, _ = draw(switch_instances())
    free = maxmin_single_switch(weights, srcs, dsts, nic_out, nic_in, None)
    kind = draw(st.sampled_from(("none", "binding", "loose")))
    if kind == "none":
        backplane = None
    elif kind == "binding":
        backplane = draw(st.floats(min_value=0.05, max_value=0.95)) * free.sum()
    else:
        backplane = draw(st.floats(min_value=1.05, max_value=4.0)) * free.sum()
    return kind, (weights, srcs, dsts, nic_out, nic_in, backplane)


@settings(max_examples=300, deadline=None)
@given(backplane_instances())
def test_property_solver_equals_its_per_round_form_bit_for_bit(case):
    """Carrying the loads, the rate total and the thresholds from round
    to round changes no bit of the rates and no count in the stats."""
    kind, instance = case
    stats, ref_stats = {}, {}
    rates = maxmin_single_switch(*instance, stats=stats)
    reference = per_round_maxmin(*instance, stats=ref_stats)
    assert rates.tobytes() == reference.tobytes()
    assert stats == ref_stats
    backplane = instance[-1]
    if kind == "binding":
        # The backplane is what stops the filling.
        assert rates.sum() >= backplane * (1 - 1e-9) - 1e-12
