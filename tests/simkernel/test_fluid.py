"""Tests for the equal-share fluid resource, incl. property-based checks."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simkernel import Environment, FluidShare
from repro.simkernel.fluid import _DONE_EPS


def run_transfer(env, share, nbytes, start, log, tag, weight=1.0):
    def proc():
        yield env.timeout(start)
        yield share.transfer(nbytes, weight=weight)
        log.append((tag, env.now))

    env.process(proc())


def test_single_job_rate_is_full_capacity():
    env = Environment()
    share = FluidShare(env, capacity=100.0)
    log = []
    run_transfer(env, share, 500.0, 0.0, log, "a")
    env.run()
    assert log == [("a", 5.0)]


def test_two_equal_jobs_share_equally():
    env = Environment()
    share = FluidShare(env, capacity=100.0)
    log = []
    run_transfer(env, share, 100.0, 0.0, log, "a")
    run_transfer(env, share, 100.0, 0.0, log, "b")
    env.run()
    # Each runs at 50 B/s for 2 s.
    assert log == [("a", 2.0), ("b", 2.0)]


def test_staggered_arrival_integration():
    env = Environment()
    share = FluidShare(env, capacity=100.0)
    log = []
    run_transfer(env, share, 100.0, 0.0, log, "a")
    run_transfer(env, share, 100.0, 0.5, log, "b")
    env.run()
    # a: 50 B alone in [0,0.5], then shares; both have symmetric finish math:
    # a finishes at t where 50 + 50*(t-0.5) = 100 -> t = 1.5
    # b then runs alone: 50 B at 0.5..1.5 done, remaining 50 at 100 B/s -> 2.0
    times = dict(log)
    assert math.isclose(times["a"], 1.5)
    assert math.isclose(times["b"], 2.0)


def test_weighted_sharing():
    env = Environment()
    share = FluidShare(env, capacity=90.0)
    log = []
    run_transfer(env, share, 120.0, 0.0, log, "heavy", weight=2.0)
    run_transfer(env, share, 120.0, 0.0, log, "light", weight=1.0)
    env.run()
    times = dict(log)
    # heavy gets 60 B/s -> finishes at 2.0; light then speeds up:
    # light has 120 - 30*2 = 60 left at 90 B/s -> 2.0 + 60/90
    assert math.isclose(times["heavy"], 2.0)
    assert math.isclose(times["light"], 2.0 + 60.0 / 90.0)


def test_zero_byte_transfer_completes_immediately():
    env = Environment()
    share = FluidShare(env, capacity=10.0)
    ev = share.transfer(0)
    assert ev.triggered and ev.ok


def test_invalid_args():
    env = Environment()
    with pytest.raises(ValueError):
        FluidShare(env, capacity=0)
    share = FluidShare(env, capacity=1)
    with pytest.raises(ValueError):
        share.transfer(-5)
    with pytest.raises(ValueError):
        share.transfer(5, weight=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_input_rejected(bad):
    # A NaN or infinite size never completes, and a NaN or infinite
    # weight takes every other job's share: either would starve the jobs
    # beside it, so neither is admitted.
    env = Environment()
    with pytest.raises(ValueError):
        FluidShare(env, capacity=bad)
    share = FluidShare(env, capacity=10.0)
    with pytest.raises(ValueError):
        share.transfer(bad)
    with pytest.raises(ValueError):
        share.transfer(100.0, weight=bad)
    with pytest.raises(ValueError):
        share.set_capacity(bad)
    log = []
    run_transfer(env, share, 100.0, 0.0, log, "ok")
    env.run()
    assert log == [("ok", 10.0)]


def test_set_capacity_midstream():
    env = Environment()
    share = FluidShare(env, capacity=100.0)
    log = []
    run_transfer(env, share, 200.0, 0.0, log, "a")

    def tweak():
        yield env.timeout(1.0)
        share.set_capacity(50.0)  # 100 B left, now at 50 B/s

    env.process(tweak())
    env.run()
    assert log == [("a", 3.0)]


def test_utilization_flag():
    env = Environment()
    share = FluidShare(env, capacity=10.0)
    assert share.utilization == 0.0
    share.transfer(100.0)
    assert share.utilization == 1.0


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=8),
    starts=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=8),
    capacity=st.floats(min_value=1.0, max_value=1e4),
)
@example(sizes=[1.0, 1.0, 2.0], starts=[1.0, 1.001953125, 0.0], capacity=1.0)
def test_property_work_conservation(sizes, starts, capacity):
    """Total completion time is bounded below by sum(bytes)/capacity after
    last arrival, and every job eventually completes exactly once."""
    n = min(len(sizes), len(starts))
    sizes, starts = sizes[:n], starts[:n]
    env = Environment()
    share = FluidShare(env, capacity=capacity)
    log = []
    for i, (size, start) in enumerate(zip(sizes, starts)):
        run_transfer(env, share, size, start, log, i)
    env.run()
    assert sorted(tag for tag, _ in log) == list(range(n))
    makespan = max(t for _, t in log)
    # Work conservation: the server can't finish before all bytes fit,
    # except that a job counts as done with up to _DONE_EPS bytes left,
    # so each of the n jobs may finish _DONE_EPS / capacity s early.
    lower = sum(sizes) / capacity
    assert makespan >= lower - n * _DONE_EPS / capacity - 1e-6
    # And it never idles while work is pending, so makespan <= last_arrival + total/capacity.
    assert makespan <= max(starts) + lower + 1e-6


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    capacity=st.floats(min_value=1.0, max_value=1000.0),
    size=st.floats(min_value=1.0, max_value=1e4),
)
def test_property_equal_jobs_finish_together(n, capacity, size):
    """n identical simultaneous jobs all finish at n*size/capacity."""
    env = Environment()
    share = FluidShare(env, capacity=capacity)
    log = []
    for i in range(n):
        run_transfer(env, share, size, 0.0, log, i)
    env.run()
    expected = n * size / capacity
    assert all(math.isclose(t, expected, rel_tol=1e-9) for _, t in log)
