"""Unit tests for the simulation kernel event loop and processes."""

import gc

import pytest

from repro.simkernel import Environment, Interrupt, StopSimulation
from repro.simkernel.core import NORMAL


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_initial_time():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(3.0)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [3.0]


def test_timeout_value():
    env = Environment()
    result = []

    def proc():
        v = yield env.timeout(1.0, value="hello")
        result.append(v)

    env.process(proc())
    env.run()
    assert result == ["hello"]


def test_negative_timeout_rejected():
    # And the other delays that are not finite and non-negative: a NaN
    # time would break the heap order, an infinite one would move the
    # clock to inf.
    env = Environment()
    for delay in (-1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and non-negative"):
            env.timeout(delay)
        with pytest.raises(ValueError, match="finite and non-negative"):
            env._schedule(env.event(), NORMAL, delay)
    assert env.peek() == float("inf")


def test_a_nan_wait_fails_its_process_and_leaves_the_others_in_order():
    env = Environment()
    woke = []

    def sleeper(delay):
        yield env.timeout(delay)
        woke.append(delay)

    procs = [env.process(sleeper(d)) for d in (5.0, float("nan"), 1.0, 3.0)]
    procs[1].defused = True
    env.run()
    assert woke == [1.0, 3.0, 5.0]
    assert env.now == 5.0
    assert isinstance(procs[1].value, ValueError)


def test_run_until_time():
    env = Environment()
    ticks = []

    def clock():
        while True:
            yield env.timeout(1.0)
            ticks.append(env.now)

    env.process(clock())
    env.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert env.now == 5.5


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2.0)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"
    assert env.now == 2.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_nan_rejected():
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(ValueError, match="NaN"):
        env.run(until=float("nan"))
    assert env.now == 0.0
    env.run(until=float("inf"))  # inf still runs to exhaustion
    assert env.now == 1.0


def test_run_until_untriggered_event_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        env.run(until=ev)


def test_processes_join():
    env = Environment()
    order = []

    def child():
        yield env.timeout(1.0)
        order.append("child")
        return 7

    def parent():
        value = yield env.process(child())
        order.append("parent")
        assert value == 7

    env.process(parent())
    env.run()
    assert order == ["child", "parent"]


def test_simultaneous_events_fifo_order():
    """Events at the same timestamp fire in creation order (determinism)."""
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for i in range(10):
        env.process(proc(i))
    env.run()
    assert order == list(range(10))


def test_event_succeed_once():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_event_fail_propagates_into_process():
    env = Environment()
    ev = env.event()
    caught = []

    def proc():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    env.process(proc())

    def failer():
        yield env.timeout(1.0)
        ev.fail(ValueError("boom"))

    env.process(failer())
    env.run()
    assert caught == ["boom"]


def test_unhandled_event_failure_crashes_run():
    env = Environment()
    ev = env.event()

    def failer():
        yield env.timeout(1.0)
        ev.fail(RuntimeError("nobody caught me"))

    env.process(failer())
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_process_exception_fails_process_event():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise KeyError("oops")

    def parent():
        with pytest.raises(KeyError):
            yield env.process(bad())

    env.process(parent())
    env.run()


def test_uncaught_process_exception_crashes_run():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise KeyError("oops")

    env.process(bad())
    with pytest.raises(KeyError):
        env.run()


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_interrupt_delivery():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
            log.append("woke normally")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause, env.now))

    def interrupter(target):
        yield env.timeout(5.0)
        target.interrupt(cause="urgent")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [("interrupted", "urgent", 5.0)]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    p = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_process_survives_interrupt_and_continues():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(1.0)
        log.append(env.now)

    def interrupter(target):
        yield env.timeout(5.0)
        target.interrupt()

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [6.0]


def test_interrupted_process_old_target_does_not_double_resume():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(10.0)
            log.append("normal")
        except Interrupt:
            log.append("interrupted")
        # Wait past the original timeout's fire time.
        yield env.timeout(20.0)
        log.append("after")

    def interrupter(target):
        yield env.timeout(5.0)
        target.interrupt()

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == ["interrupted", "after"]


def test_is_alive_and_repr():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    p = env.process(quick(), name="quickie")
    assert p.is_alive
    assert "quickie" in repr(p)
    env.run()
    assert not p.is_alive


def test_parked_process_survives_a_mid_run_collection():
    """A process waiting on an event that no queue holds is reachable only
    through the environment: a garbage collection mid-run must not close
    its generator and run its ``finally`` block."""
    env = Environment()
    log = []

    def parked():
        try:
            yield env.event()  # never triggered, held by nothing else
        finally:
            log.append(("finally", env.now))

    def collector():
        yield env.timeout(1.0)
        gc.collect()
        log.append(("collected", env.now))

    env.process(parked())
    env.process(collector())
    env.run(until=2.0)
    assert log == [("collected", 1.0)]
    assert len(env._unfinished) == 1


def test_finished_processes_are_released():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    def bad():
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent():
        with pytest.raises(ValueError):
            yield env.process(bad())

    env.process(quick())
    env.process(parent())
    env.run()
    assert not env._unfinished


def test_process_return_value():
    env = Environment()

    def producer():
        yield env.timeout(1.0)
        return {"a": 1}

    p = env.process(producer())
    env.run()
    assert p.value == {"a": 1}


def test_stop_simulation_from_callback():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise StopSimulation("early")

    env.process(proc())
    assert env.run() == "early"


def test_peek_empty_queue():
    env = Environment()
    assert env.peek() == float("inf")


def test_nonzero_priority_ordering_is_stable_under_heavy_load():
    env = Environment()
    order = []

    def proc(i):
        yield env.timeout(0)
        order.append(i)

    for i in range(100):
        env.process(proc(i))
    env.run()
    assert order == list(range(100))
