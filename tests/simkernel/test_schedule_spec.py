"""The scheduler against its specification: a plain ``(time, priority, seq)``
heap, plus the instant-end callbacks.

The kernel keeps zero-delay events in per-priority now-buckets and only
real timers in its heap, and merges the two at pop time.  The contract is
that the merged delivery order is exactly the order one ``heapq`` of
``(time, priority, seq)`` entries would produce, with cancelled entries
dropped at pop time without counting or moving the clock.

``Environment.at_instant_end`` callbacks run after every entry due at the
current time and before any later one, including when ``run(until=T)``
stops or the queue empties.  They are not events: they take no sequence
number and never count in ``events_processed``.  A callback registered
while others run waits for the next instant end.  An event scheduled at
a number taken earlier with ``reserve_seq`` sorts as if it had been
scheduled when the number was taken.

Hypothesis generates random scripts: delays drawn from a small set that
includes 0 (so ties are common), both priorities, entries cancelled before
they fire (at setup or from another event's callback), callbacks that
schedule further zero-delay and timed events while they run, instant-end
callbacks that schedule events (one of them at a number reserved when the
callback was registered) and register more callbacks, and an optional
``until``.  A ``heapq`` model must predict the exact delivery log,
``events_processed`` and the final clock, on both delivery paths:
``run()``'s inline loop (probe off) and one ``step()`` per entry or
instant end (a profiler probe on), where the model also predicts the
number of steps.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.simkernel import Environment
from repro.simkernel.core import NORMAL, URGENT, Event

#: Few distinct delays, zero among them, all exact in binary: ties in
#: ``time`` are the common case, not the corner case.
DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0)


@st.composite
def scripts(draw):
    """``(nodes, cancels, until)``.

    ``nodes[i] = (delay, priority, parent, at_end)``: node ``i`` is
    scheduled at setup when ``parent`` is ``None``, else by ``parent``'s
    callback.  An ``at_end`` node is an instant-end callback rather than
    an event (its delay and priority are unused); it reserves a sequence
    number when it is registered and schedules its first event child at
    that number.  ``cancels`` holds ``(canceller, target)`` pairs over
    event nodes: ``target`` is cancelled at setup (``canceller is None``)
    or by ``canceller``'s callback, after it has scheduled its own
    children.  ``until`` is ``run``'s argument.
    """
    n = draw(st.integers(min_value=1, max_value=24))
    nodes = []
    for i in range(n):
        delay = draw(st.sampled_from(DELAYS))
        priority = draw(st.sampled_from((URGENT, NORMAL)))
        parent = draw(st.one_of(st.none(), st.integers(0, i - 1))) if i else None
        at_end = draw(st.integers(0, 3)) == 0
        nodes.append((delay, priority, parent, at_end))
    events = [i for i, node in enumerate(nodes) if not node[3]]
    cancels = draw(st.lists(
        st.tuples(st.one_of(st.none(), st.integers(0, n - 1)),
                  st.sampled_from(events)),
        max_size=n,
    )) if events else []
    until = draw(st.sampled_from((None, None, 0.0, 0.5, 1.0, 1.75)))
    return nodes, cancels, until


def _plan(nodes, cancels):
    children = [[] for _ in nodes]
    roots = []
    for i, (_delay, _priority, parent, _at_end) in enumerate(nodes):
        (roots if parent is None else children[parent]).append(i)
    at_setup = [t for c, t in cancels if c is None]
    cancelled_by = [[] for _ in nodes]
    for c, t in cancels:
        if c is not None:
            cancelled_by[c].append(t)
    # The child an instant-end callback schedules at its reserved number.
    reserved_child = [
        next((c for c in children[i] if not nodes[c][3]), None)
        if nodes[i][3] else None
        for i in range(len(nodes))
    ]
    return roots, children, at_setup, cancelled_by, reserved_child


def _model(nodes, cancels, until):
    """The specification: one heap, cancellation checked at pop, and the
    instant-end callbacks run whenever no entry is due now.  A step is
    one pop or one run of the instant-end callbacks."""
    roots, children, at_setup, cancelled_by, reserved_child = _plan(
        nodes, cancels)
    heap, cancelled, log = [], set(), []
    pending, reserved = [], {}
    now, seq, processed, steps = 0.0, 0, 0, 0

    def schedule(i, at=None):
        nonlocal seq
        delay, priority, _parent, at_end = nodes[i]
        if at_end:
            seq += 1
            reserved[i] = seq
            pending.append(i)
            return
        if at is None:
            seq += 1
            at = seq
        heapq.heappush(heap, (now + delay, priority, at, i))

    def fire(i):
        log.append((now, i))
        for child in children[i]:
            if child == reserved_child[i]:
                schedule(child, at=reserved[i])
            else:
                schedule(child)
        cancelled.update(cancelled_by[i])

    for i in roots:
        schedule(i)
    cancelled.update(at_setup)
    stop = float("inf") if until is None else until
    while True:
        if heap and heap[0][0] <= now:
            entry = heapq.heappop(heap)
        elif pending:
            batch, pending = pending, []
            steps += 1
            for i in batch:
                fire(i)
            continue
        elif heap and heap[0][0] <= stop:
            entry = heapq.heappop(heap)
        else:
            break
        steps += 1
        when, _priority, _seq, i = entry
        if i in cancelled:
            continue
        now = when
        processed += 1
        fire(i)
    if until is not None:
        now = until
    return log, processed, now, steps


def _kernel(nodes, cancels, until, probe):
    """Run the script on the kernel; with ``probe``, under a profiler
    probe and counting the calls of ``env.step`` (else ``None``)."""
    roots, children, at_setup, cancelled_by, reserved_child = _plan(
        nodes, cancels)
    env = Environment()
    steps = None
    if probe:
        Observability(trace=False, metrics=False, profile=True).install(env)
        steps = 0
        step = env.step

        def counted_step():
            nonlocal steps
            steps += 1
            step()

        env.step = counted_step
    events = [Event(env) for _ in nodes]
    reserved = {}
    log = []

    def schedule(i, seq=None):
        delay, priority, _parent, at_end = nodes[i]
        if at_end:
            reserved[i] = env.reserve_seq()
            env.at_instant_end(lambda: fire(i))
        else:
            env._schedule(events[i], priority, delay, seq)

    def fire(i):
        log.append((env.now, i))
        for child in children[i]:
            if child == reserved_child[i]:
                schedule(child, reserved[i])
            else:
                schedule(child)
        for target in cancelled_by[i]:
            events[target]._cancelled = True

    for i, event in enumerate(events):
        event._ok = True
        event.callbacks.append(lambda _event, i=i: fire(i))
    for i in roots:
        schedule(i)
    for target in at_setup:
        events[target]._cancelled = True
    env.run(until=until)
    return log, env.events_processed, env.now, steps


@settings(max_examples=300, deadline=None)
@given(scripts())
def test_delivery_order_is_the_heap_order(script):
    nodes, cancels, until = script
    log, processed, now, steps = _model(nodes, cancels, until)
    # The inline loop, then step() for every entry.
    assert _kernel(nodes, cancels, until, probe=False) == (
        log, processed, now, None)
    assert _kernel(nodes, cancels, until, probe=True) == (
        log, processed, now, steps)


def test_instant_end_runs_before_the_clock_moves_and_is_not_an_event():
    env = Environment()
    log = []

    def proc():
        env.at_instant_end(lambda: log.append(("end", env.now)))
        yield env.timeout(0.0)
        log.append(("same instant", env.now))
        yield env.timeout(1.0)
        log.append(("later", env.now))

    env.process(proc())
    assert env.peek() == 0.0
    env.run()
    assert log == [("same instant", 0.0), ("end", 0.0), ("later", 1.0)]
    # The bootstrap, two timeouts and the process's own completion.
    assert env.events_processed == 4
    assert env.peek() == float("inf")


def test_step_runs_the_instant_end_once_nothing_is_due():
    env = Environment()
    log = []
    env.at_instant_end(lambda: log.append(env.now))
    env.timeout(1.0)
    env.step()  # nothing due at t=0: the callback, not the timeout
    assert (log, env.now, env.events_processed) == ([0.0], 0.0, 0)
    env.step()
    assert (env.now, env.events_processed) == (1.0, 1)


def test_a_reserved_number_sorts_before_later_zero_delay_events():
    env = Environment()
    log = []
    early = env.reserve_seq()

    def event(name):
        ev = Event(env)
        ev._ok = True
        ev.callbacks.append(lambda _ev: log.append(name))
        return ev

    env.at_instant_end(lambda: env._schedule(event("fresh"), NORMAL))
    env.at_instant_end(lambda: env._schedule(event("reserved"), NORMAL,
                                             0.0, early))
    env.run()
    assert log == ["reserved", "fresh"]
