"""The scheduler against its specification: a plain ``(time, priority, seq)``
heap.

The kernel keeps zero-delay events in per-priority now-buckets and only
real timers in its heap, and merges the two at pop time.  The contract is
that the merged delivery order is exactly the order one ``heapq`` of
``(time, priority, seq)`` entries would produce, with cancelled entries
dropped at pop time without counting or moving the clock.

Hypothesis generates random scripts: delays drawn from a small set that
includes 0 (so ties are common), both priorities, entries cancelled before
they fire (at setup or from another event's callback), and callbacks that
schedule further zero-delay and timed events while they run.  A ``heapq``
model must predict the exact delivery log, ``events_processed`` and the
final clock.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Environment
from repro.simkernel.core import NORMAL, URGENT, Event

#: Few distinct delays, zero among them, all exact in binary: ties in
#: ``time`` are the common case, not the corner case.
DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0)


@st.composite
def scripts(draw):
    """``(nodes, cancels)``.

    ``nodes[i] = (delay, priority, parent)``: event ``i`` is scheduled at
    setup when ``parent`` is ``None``, else by ``parent``'s callback.
    ``cancels`` holds ``(canceller, target)`` pairs: ``target`` is
    cancelled at setup (``canceller is None``) or by ``canceller``'s
    callback, after it has scheduled its own children.
    """
    n = draw(st.integers(min_value=1, max_value=24))
    nodes = []
    for i in range(n):
        delay = draw(st.sampled_from(DELAYS))
        priority = draw(st.sampled_from((URGENT, NORMAL)))
        parent = draw(st.one_of(st.none(), st.integers(0, i - 1))) if i else None
        nodes.append((delay, priority, parent))
    cancels = draw(st.lists(
        st.tuples(st.one_of(st.none(), st.integers(0, n - 1)),
                  st.integers(0, n - 1)),
        max_size=n,
    ))
    return nodes, cancels


def _plan(nodes, cancels):
    children = [[] for _ in nodes]
    roots = []
    for i, (_delay, _priority, parent) in enumerate(nodes):
        (roots if parent is None else children[parent]).append(i)
    at_setup = [t for c, t in cancels if c is None]
    cancelled_by = [[] for _ in nodes]
    for c, t in cancels:
        if c is not None:
            cancelled_by[c].append(t)
    return roots, children, at_setup, cancelled_by


def _model(nodes, cancels):
    """The specification: one heap, cancellation checked at pop."""
    roots, children, at_setup, cancelled_by = _plan(nodes, cancels)
    heap, cancelled, log = [], set(), []
    now, seq = 0.0, 0

    def schedule(i):
        nonlocal seq
        seq += 1
        delay, priority, _parent = nodes[i]
        heapq.heappush(heap, (now + delay, priority, seq, i))

    for i in roots:
        schedule(i)
    cancelled.update(at_setup)
    while heap:
        when, _priority, _seq, i = heapq.heappop(heap)
        if i in cancelled:
            continue
        now = when
        log.append((now, i))
        for child in children[i]:
            schedule(child)
        cancelled.update(cancelled_by[i])
    return log, len(log), now


def _kernel(nodes, cancels):
    roots, children, at_setup, cancelled_by = _plan(nodes, cancels)
    env = Environment()
    events = [Event(env) for _ in nodes]
    log = []

    def schedule(i):
        delay, priority, _parent = nodes[i]
        env._schedule(events[i], priority, delay)

    def callback(i):
        def fire(_event):
            log.append((env.now, i))
            for child in children[i]:
                schedule(child)
            for target in cancelled_by[i]:
                events[target]._cancelled = True
        return fire

    for i, event in enumerate(events):
        event._ok = True
        event.callbacks.append(callback(i))
    for i in roots:
        schedule(i)
    for target in at_setup:
        events[target]._cancelled = True
    env.run()
    return log, env.events_processed, env.now


@settings(max_examples=300, deadline=None)
@given(scripts())
def test_delivery_order_is_the_heap_order(script):
    nodes, cancels = script
    assert _kernel(nodes, cancels) == _model(nodes, cancels)

