"""Event cancellation and same-tick re-arm semantics, on both kernels.

Regression anchor: the fabric and fluid-share recompute timers used to be
implemented as "abandon the old Timeout, guard the callback with a token".
An event cancelled and re-scheduled *into the same tick* could deliver its
callback twice (once for the abandoned entry, once for the replacement)
whenever the guard was rebuilt between the two deliveries — starving other
same-tick work of its expected ordering.  The kernel now carries a real
``_cancelled`` flag honoured by ``step()``, and :class:`RearmableTimer`
packages the arm/cancel pattern.  These tests pin the contract down for
both the production (bucketed) kernel and the reference (pure-heap)
oracle, since zero-delay entries live in different structures under each.
"""

import pytest

from repro.simkernel import Environment, RearmableTimer
from repro.simkernel.core import NORMAL, Event

from tests.differential.oracle import KERNELS, kernel_scope


@pytest.fixture(params=KERNELS)
def env(request):
    with kernel_scope(request.param):
        yield Environment()


def test_cancelled_event_not_delivered(env):
    fired = []
    ev = Event(env)
    ev._ok = True
    ev.callbacks.append(lambda e: fired.append(env.now))
    env._schedule(ev, NORMAL, delay=1.0)
    ev._cancelled = True
    env.run()
    assert fired == []
    assert env.events_processed == 0


def test_cancelled_same_tick_event_not_delivered(env):
    """Zero-delay entries (fast kernel: now-bucket) honour cancellation."""
    fired = []

    def proc():
        ev = Event(env)
        ev._ok = True
        ev.callbacks.append(lambda e: fired.append("cancelled"))
        env._schedule(ev, NORMAL, delay=0.0)
        ev._cancelled = True
        live = Event(env)
        live._ok = True
        live.callbacks.append(lambda e: fired.append("live"))
        env._schedule(live, NORMAL, delay=0.0)
        yield env.timeout(1.0)

    env.process(proc())
    env.run()
    assert fired == ["live"]


def test_cancel_and_rearm_same_tick_delivers_once(env):
    """The starvation edge: cancel + re-arm into the same tick must yield
    exactly one delivery, not two."""
    fired = []
    timer = RearmableTimer(env, lambda: fired.append(env.now))

    def proc():
        yield env.timeout(1.0)
        timer.arm(0.5)
        timer.arm(0.5)  # re-arm into the very same tick
        yield env.timeout(2.0)

    env.process(proc())
    env.run()
    assert fired == [1.5]


def test_rearm_zero_delay_same_tick_delivers_once(env):
    fired = []
    timer = RearmableTimer(env, lambda: fired.append(env.now))

    def proc():
        timer.arm(0.0)
        timer.arm(0.0)
        yield env.timeout(1.0)

    env.process(proc())
    env.run()
    assert fired == [0.0]


def test_cancelled_timer_never_fires(env):
    fired = []
    timer = RearmableTimer(env, lambda: fired.append(env.now))
    timer.arm(5.0)
    timer.cancel()
    env.run(until=10.0)
    assert fired == []
    assert env.events_processed == 0


def test_rearm_moves_the_deadline(env):
    fired = []
    timer = RearmableTimer(env, lambda: fired.append(env.now))

    def proc():
        timer.arm(5.0)
        yield env.timeout(1.0)
        timer.arm(0.25)  # supersedes the t=5 deadline

    env.process(proc())
    env.run(until=10.0)
    assert fired == [1.25]


def test_timer_rearms_from_its_own_callback(env):
    fired = []
    timer = RearmableTimer(env, None)

    def tick():
        fired.append(env.now)
        if len(fired) < 3:
            timer.arm(1.0)

    timer._callback = tick
    timer.arm(1.0)
    env.run()
    assert fired == [1.0, 2.0, 3.0]


def test_queue_of_only_cancelled_entries_drains_cleanly(env):
    for delay in (0.0, 1.0, 2.0):
        ev = Event(env)
        ev._ok = True
        env._schedule(ev, NORMAL, delay=delay)
        ev._cancelled = True
    env.run()
    assert env.events_processed == 0
    assert env.peek() == float("inf")


def test_cancelled_skip_does_not_advance_clock_past_live_work(env):
    """A cancelled heap entry at t=5 must not drag the clock to 5 when the
    simulation ends at t=2."""
    fired = []
    timer = RearmableTimer(env, lambda: fired.append(env.now))
    timer.arm(5.0)

    def proc():
        yield env.timeout(2.0)
        timer.cancel()

    env.process(proc())
    env.run()
    assert fired == []
    assert env.now == 2.0
