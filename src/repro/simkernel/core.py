"""Event loop, events and processes for the simulation kernel.

The design follows the classic generator-coroutine DES pattern: a
:class:`Process` wraps a Python generator; every value it yields must be an
:class:`Event`; the process is resumed when that event fires.  The
:class:`Environment` owns a priority queue of ``(time, priority, seq, event)``
entries, so simultaneous events are delivered in a deterministic order
(insertion order within a priority class) — a hard requirement for
reproducible experiments.

Events scheduled with ``delay == 0`` (the dominant case:
``succeed()``/``fail()`` wakeups, process bootstraps, interrupts) go to
per-priority FIFO *now-buckets* — plain deques, no heap churn — while
only real timers touch the heap.  Bucket entries have the heap's entry
shape and always carry the current time, so :meth:`Environment._pop`
merges the two by comparing the heads: the delivery order is exactly the
``(time, priority, seq)`` order a single heap would produce
(``tests/simkernel/test_schedule_spec.py`` checks it against a plain
``heapq`` model).

:meth:`Environment.run` delivers events in one inline loop while the
probe is off.  With a probe on, it calls :meth:`Environment.step` for
every event instead, so each event is one profiler scope.

A cancelled entry (:attr:`Event._cancelled`) is skipped at pop time
without advancing the clock or counting as a processed event, which is
what lets timers be re-armed into the *same* tick without double
delivery (see ``RearmableTimer``).

:meth:`Environment.at_instant_end` registers a callback that runs once
nothing more is due at the current time and before the clock moves.  It
is not an event: it takes no sequence number and does not count in
``events_processed``.  A component that changes several times in one
instant (the fabric) settles there once; the timer it arms then uses a
sequence number reserved (:meth:`Environment.reserve_seq`) at the last
change, so the entry sorts where an arm made at that change would have.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.obs.probe import NULL_PROBE, Probe

__all__ = [
    "Environment",
    "Event",
    "Process",
    "StopSimulation",
    "PENDING",
    "URGENT",
    "NORMAL",
]

#: Sentinel for an event that has not been triggered yet.
PENDING = object()

#: Scheduling priority for kernel-internal wakeups (delivered first).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

_INF = math.inf


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` early."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    Life-cycle: *pending* → *triggered* (scheduled, value known) →
    *processed* (callbacks ran).  An event can succeed with a value or fail
    with an exception; a failed event re-raises inside every waiting process
    unless it was marked :attr:`defused`.

    Events are the hottest allocation in the simulator, so the class is
    slotted.  The ``flow`` slot exists solely so the fabric can hang the
    owning :class:`~repro.netsim.flows.NetFlow` off a completion event
    (read back with ``getattr(ev, "flow", None)``); it stays unset for
    every other event.  The four causal slots below stay unset too
    unless causal recording is on: the probe fills them
    (``repro.obs.probe``) and only the causal recorder reads them, with
    ``getattr``.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_ok",
        "defused",
        "_cancelled",
        "created_at",
        "triggered_at",
        "succeeded_by",
        "_causal",
        "flow",
    )

    #: Simulation time the event was created and triggered, and the name
    #: of the process that succeeded it, if any.
    created_at: float
    triggered_at: float
    succeeded_by: str
    #: ``(resource_class, detail)`` from ``Probe.causal_tag``.
    _causal: tuple[str, dict[str, Any]]

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: A failed event whose exception was consumed (e.g. by a condition)
        #: sets this to avoid the "unhandled failure" crash.
        self.defused = False
        #: A cancelled event is silently discarded at pop time instead of
        #: being delivered (no clock advance, no processed count).
        self._cancelled = False
        p = env.probe
        if p.enabled and p.stamps:
            p.event_created(self)

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled for delivery."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception when it failed)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        p = env.probe
        if p.enabled and p.stamps:
            p.event_triggered(self)
        env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        env = self.env
        p = env.probe
        if p.enabled and p.stamps:
            p.event_triggered(self)
        env._schedule(self, NORMAL)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed the callback runs immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    # -- composition ------------------------------------------------------
    def __or__(self, other: "Event") -> "Event":
        return AnyOf(self.env, [self, other])

    def __and__(self, other: "Event") -> "Event":
        return AllOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = (
            "pending"
            if not self.triggered
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Process(Event):
    """A running generator coroutine.

    A process *is* an event: it triggers when the generator returns (value =
    return value) or raises (failure).  Other processes can therefore
    ``yield proc`` to join it.
    """

    __slots__ = ("_generator", "name", "_target", "_wait_begin", "started_at")

    def __init__(self, env: "Environment", generator: Generator, name: str = "") -> None:
        super().__init__(env)
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        self._wait_begin: Optional[float] = None
        self.started_at = env.now
        # A process parked on an event that no queue holds is otherwise
        # reachable only through its own reference cycle, and the garbage
        # collector would close its generator mid-run, running ``finally``
        # blocks that change the simulation.
        env._unfinished.add(self)
        p = env.probe
        if p.enabled:
            p.process_start(self.name)
        # Bootstrap: resume the generator at the current time.
        init = Event(env)
        init.callbacks.append(self._resume)
        init._ok = True
        init._value = None
        env._schedule(init, URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`~repro.simkernel.events.Interrupt` into the process.

        The interrupt is delivered asynchronously (at the current simulation
        time, before any later event).  Interrupting a finished process is an
        error; interrupting a process that is about to resume anyway delivers
        the interrupt first.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self.name} has already terminated")
        if self._generator is self.env.active_process_generator:
            raise RuntimeError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        event.callbacks.append(self._resume)
        self.env._schedule(event, URGENT)

    def _finish(self, outcome: str) -> None:
        """The generator ended: drop the environment's hold and report."""
        self.env._unfinished.discard(self)
        p = self.env.probe
        if p.enabled:
            p.process_finish(self.name, self.started_at, outcome)

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # The slots rather than the public properties: this runs once per
        # process wakeup, and a delivered event is always triggered.
        if self._value is not PENDING:
            # A stale wakeup (e.g. the process was interrupted and finished
            # before its old target fired).  Nothing to do.
            return
        env = self.env
        p = env.probe
        if p.enabled:
            # The wait that just ended.  ``_target`` is what the process was
            # actually waiting on; on an interrupt the delivered ``event`` is
            # the interrupt carrier, but the time was still spent on
            # ``_target``, so prefer it for attribution.
            p.process_resume(
                self.name, self._wait_begin,
                self._target if self._target is not None else event,
            )
        # Reset outside the probe guard: the wait is over whether or not
        # anyone recorded it, and probe blocks must stay observe-only.
        self._wait_begin = None
        env._active = self
        gen = self._generator
        while True:
            # Detach from the old target so stale triggers are ignorable.
            target = self._target
            if target is not None:
                if target.callbacks is not None:
                    try:
                        target.callbacks.remove(self._resume)
                    except ValueError:
                        pass
                self._target = None
            try:
                if event._ok:
                    next_ev = gen.send(event._value)
                else:
                    # Mark the exception as consumed by this process.
                    event.defused = True
                    next_ev = gen.throw(event._value)
            except StopIteration as exc:
                env._active = None
                self.succeed(exc.value)
                self._finish("ok")
                return
            except BaseException as exc:
                env._active = None
                self.fail(exc)
                self._finish("failed")
                return

            if not isinstance(next_ev, Event):
                env._active = None
                err = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_ev!r}"
                )
                self.fail(err)
                env._unfinished.discard(self)
                return

            if next_ev.callbacks is None:
                # Already processed: loop and deliver synchronously.
                event = next_ev
                continue
            next_ev.callbacks.append(self._resume)
            self._target = next_ev
            self._wait_begin = env.now
            env._active = None
            return

    def __repr__(self) -> str:
        return f"<Process {self.name} {'alive' if self.is_alive else 'done'}>"


class Environment:
    """The simulation clock and event queue.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (seconds).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulation time in seconds.  A plain attribute: it is
        #: read on every event; only event delivery and ``run(until=T)``
        #: move it.
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        #: Now-buckets: FIFOs of ``(time, priority, seq, event)`` entries
        #: due at the *current* time, one per priority class.
        self._bucket_urgent: deque[tuple[float, int, int, Event]] = deque()
        self._bucket_normal: deque[tuple[float, int, int, Event]] = deque()
        self._seq = 0
        self._active: Optional[Process] = None
        #: The one instrumentation hook (``repro.obs.probe``): every
        #: simulation event is reported through it.  ``NULL_PROBE`` (all
        #: backends off) by default; ``repro.obs.Observability.install``
        #: replaces it.
        self.probe: Probe = NULL_PROBE
        #: Lifetime count of processed events; the figure-level benchmark
        #: (benchmarks/e2e) reports it as ``simkernel.events``.
        #: Cancelled entries are skipped, not processed — they don't count.
        self.events_processed = 0
        #: Callbacks to run once nothing more is due now (at_instant_end).
        self._at_end: list[Callable[[], None]] = []
        #: Every process whose generator has not ended (see Process).
        self._unfinished: set[Process] = set()

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active

    @property
    def active_process_generator(self) -> Optional[Generator]:
        return self._active._generator if self._active is not None else None

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a pending :class:`Event`."""
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start ``generator`` as a :class:`Process` at the current time."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def any_of(self, events: Iterable[Event]) -> Event:
        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> Event:
        return AllOf(self, list(events))

    # -- scheduling --------------------------------------------------------
    def reserve_seq(self) -> int:
        """Take the next sequence number without scheduling anything; pass
        it to :meth:`_schedule` later to sort the event as if it had been
        scheduled now."""
        self._seq += 1
        return self._seq

    def at_instant_end(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` once nothing more is due at the current time,
        before the clock moves (see :meth:`step`)."""
        self._at_end.append(callback)

    def _schedule(self, event: Event, priority: int, delay: float = 0.0,
                  seq: Optional[int] = None) -> None:
        # One chained comparison, False for NaN and infinities as well as
        # for negative delays: a NaN time would break the heap order.
        if not 0.0 <= delay < _INF:
            raise ValueError(f"delay must be finite and non-negative, "
                             f"got {delay}")
        if seq is None:
            self._seq += 1
            seq = self._seq
            if delay == 0.0:
                # Due *now*: a FIFO append preserves the (time, priority,
                # seq) order the heap would have produced, at deque cost.
                bucket = (self._bucket_urgent if priority == URGENT
                          else self._bucket_normal)
                bucket.append((self.now, priority, seq, event))
                if self.probe.enabled:
                    self.probe.event_queued(now_bucket=True)
                return
        # A reserved number is older than the buckets' tails, so even a
        # zero delay goes to the heap, whose merge orders it exactly.
        heapq.heappush(self._queue, (self.now + delay, priority, seq, event))
        if self.probe.enabled:
            self.probe.event_queued(now_bucket=False)

    def _pop(self) -> tuple[float, int, int, Event]:
        """Pop the globally next queue entry, possibly a cancelled one
        (empty queue: ``IndexError``).

        The queue-merge rule, written only here: the urgent bucket
        shadows the normal one, and the heap head goes first only when it
        sorts before the bucket head, which is due now: when it is due
        now too and has a smaller ``(priority, seq)``.
        """
        bucket = self._bucket_urgent or self._bucket_normal
        queue = self._queue
        if bucket and not (queue and queue[0] < bucket[0]):
            return bucket.popleft()
        return heapq.heappop(queue)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none; the
        current time while instant-end callbacks are pending."""
        if self._bucket_urgent or self._bucket_normal or self._at_end:
            return self.now
        return self._queue[0][0] if self._queue else _INF

    def step(self) -> None:
        """Pop one queue entry and deliver it (empty queue: ``IndexError``).

        When instant-end callbacks are pending and no entry is due at the
        current time, the step runs them, in registration order, instead
        of popping; one registered while they run waits for the next
        instant end.
        A cancelled entry is dropped without delivering, advancing the
        clock or counting as processed — callers that loop on the queue
        re-check emptiness, so a skip is just a cheap no-op iteration.
        With the probe on, the whole step is one ``kernel.step`` profiler
        scope; the try/finally keeps the scope stack balanced when a
        callback raises (``StopSimulation`` travels through here).
        :meth:`run` with the probe off does the same work in one loop.
        """
        probe = self.probe
        on = probe.enabled
        if on:
            probe.step_begin()
        try:
            queue = self._queue
            if self._at_end and not (
                    self._bucket_urgent or self._bucket_normal
                    or (queue and queue[0][0] <= self.now)):
                callbacks, self._at_end = self._at_end, []
                for callback in callbacks:
                    callback()
                return
            heap_size = len(queue)
            when, _prio, _seq, event = self._pop()
            from_heap = len(queue) < heap_size
            if event._cancelled:
                if on:
                    probe.step_skipped(from_heap)
                return
            self.now = when
            self.events_processed += 1
            callbacks, event.callbacks = event.callbacks, None
            assert callbacks is not None
            if on:
                probe.step_dispatch(self, from_heap, len(callbacks))
            for cb in callbacks:
                cb(event)
            if event._ok is False and not event.defused:
                # An unhandled failure stops the simulation loudly: silently
                # dropping exceptions would mask bugs in experiment code.
                exc = event._value
                raise exc
        finally:
            if on:
                probe.scope_end()

    def _deliver(self, stop_at: float) -> None:
        """Deliver every entry due up to ``stop_at`` with the probe off:
        :meth:`step`'s work, entry after entry, in one loop."""
        queue = self._queue
        bucket_urgent = self._bucket_urgent
        bucket_normal = self._bucket_normal
        pop = self._pop
        heappop = heapq.heappop
        while True:
            if bucket_urgent or bucket_normal:
                when, _prio, _seq, event = pop()
            elif self._at_end and not (queue and queue[0][0] <= self.now):
                callbacks, self._at_end = self._at_end, []
                for callback in callbacks:
                    callback()
                continue
            elif queue and queue[0][0] <= stop_at:
                when, _prio, _seq, event = heappop(queue)
            else:
                return
            if event._cancelled:
                continue
            self.now = when
            self.events_processed += 1
            waiting, event.callbacks = event.callbacks, None
            assert waiting is not None
            for cb in waiting:
                cb(event)
            if event._ok is False and not event.defused:
                raise event._value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to queue exhaustion), a number (run up
        to that simulation time; ``inf`` runs to exhaustion, NaN is
        rejected) or an :class:`Event` (run until it fires and return its
        value).  The probe is read once, here: a probe installed while
        the run is under way takes effect at the next ``run()``.
        """
        stop_at = _INF
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                return stop_event.value
            stop_event.callbacks.append(self._stop_cb)
        else:
            stop_at = float(until)
            if math.isnan(stop_at):
                raise ValueError("until must be a time, got NaN")
            if stop_at < self.now:
                raise ValueError(
                    f"until={stop_at} lies before the current time {self.now}"
                )

        try:
            if self.probe.enabled:
                # One step() per event: each is one profiler scope.  Bucket
                # entries are always due at the current time, which run()
                # has already admitted (now <= stop_at); step() ends the
                # instant before the clock moves, and before run() stops.
                while (self._bucket_urgent or self._bucket_normal
                       or self._at_end
                       or (self._queue and self._queue[0][0] <= stop_at)):
                    self.step()
            else:
                self._deliver(stop_at)
        except StopSimulation as stop:
            return stop.value
        if stop_event is not None:
            if not stop_event.triggered:
                raise RuntimeError(
                    "run() event never fired and the event queue is empty"
                )
            return stop_event.value
        if stop_at != _INF:
            self.now = stop_at
        return None

    @staticmethod
    def _stop_cb(event: Event) -> None:
        if event.ok:
            raise StopSimulation(event.value)
        event.defused = True
        raise event.value


# Bound here, not at the top: ``events`` subclasses ``Event`` and imports
# this module first.
from repro.simkernel.events import AllOf, AnyOf, Interrupt, Timeout  # noqa: E402
