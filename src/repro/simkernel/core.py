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
only real timers touch the heap.  Because bucket entries always carry the
current timestamp and the heap is only consulted when its head is due,
the merged delivery order is exactly the ``(time, priority, seq)`` order
a single heap would produce (``tests/simkernel/test_schedule_spec.py``
checks it against a plain ``heapq`` model).

A cancelled entry (:attr:`Event._cancelled`) is skipped at pop time
without advancing the clock or counting as a processed event, which is
what lets timers be re-armed into the *same* tick without double
delivery (see ``RearmableTimer``).
"""

from __future__ import annotations

import heapq
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
    every other event.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_ok",
        "created_at",
        "defused",
        "_cancelled",
        "triggered_at",
        "succeeded_by",
        "_causal",
        "flow",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self.created_at = env.now
        #: A failed event whose exception was consumed (e.g. by a condition)
        #: sets this to avoid the "unhandled failure" crash.
        self.defused = False
        #: A cancelled event is silently discarded at pop time instead of
        #: being delivered (no clock advance, no processed count).
        self._cancelled = False
        #: Simulation time the event triggered (``None`` while pending) and
        #: the name of the process that called :meth:`succeed`, if any.  The
        #: causal recorder (``repro.obs.causal``) reads them to reconstruct
        #: happens-before edges.
        self.triggered_at: Optional[float] = None
        self.succeeded_by: Optional[str] = None
        #: Optional ``(resource_class, detail_dict)`` set by
        #: :func:`repro.obs.causal.annotate` at byte-moving call sites.
        self._causal: Optional[tuple[str, dict[str, Any]]] = None

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
        self.triggered_at = self.env.now
        active = self.env._active
        if active is not None:
            self.succeeded_by = active.name
        self.env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.triggered_at = self.env.now
        self.env._schedule(self, NORMAL)
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
        from repro.simkernel.events import AnyOf

        return AnyOf(self.env, [self, other])

    def __and__(self, other: "Event") -> "Event":
        from repro.simkernel.events import AllOf

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
        from repro.simkernel.events import Interrupt

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

    def _trace_finish(self, outcome: str) -> None:
        p = self.env.probe
        if p.enabled:
            p.process_finish(self.name, self.started_at, outcome)

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if not self.is_alive:
            # A stale wakeup (e.g. the process was interrupted and finished
            # before its old target fired).  Nothing to do.
            return
        p = self.env.probe
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
        self.env._active = self
        gen = self._generator
        while True:
            # Detach from the old target so stale triggers are ignorable.
            if self._target is not None and self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:
                    pass
            self._target = None
            try:
                if event.ok:
                    next_ev = gen.send(event.value)
                else:
                    # Mark the exception as consumed by this process.
                    event.defused = True
                    next_ev = gen.throw(event.value)
            except StopIteration as exc:
                self.env._active = None
                self.succeed(exc.value)
                self._trace_finish("ok")
                return
            except BaseException as exc:
                self.env._active = None
                self.fail(exc)
                self._trace_finish("failed")
                return

            if not isinstance(next_ev, Event):
                self.env._active = None
                err = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_ev!r}"
                )
                self.fail(err)
                return

            if next_ev.callbacks is None:
                # Already processed: loop and deliver synchronously.
                event = next_ev
                continue
            next_ev.callbacks.append(self._resume)
            self._target = next_ev
            self._wait_begin = self.env.now
            self.env._active = None
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
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        #: Now-buckets: FIFOs of ``(seq, event)`` entries due at the
        #: *current* time, one per priority class.
        self._bucket_urgent: deque[tuple[int, Event]] = deque()
        self._bucket_normal: deque[tuple[int, Event]] = deque()
        self._seq = 0
        self._active: Optional[Process] = None
        #: The one instrumentation hook (``repro.obs.probe``): every
        #: simulation event is reported through it.  ``NULL_PROBE`` (all
        #: backends off) by default; ``repro.obs.Observability.install``
        #: replaces it.
        self.probe: Probe = NULL_PROBE
        #: Lifetime count of processed events; the benchmark harness
        #: (benchmarks/trajectory.py) divides by wall-clock for events/sec.
        #: Cancelled entries are skipped, not processed — they don't count.
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

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
        from repro.simkernel.events import Timeout

        return Timeout(self, delay, value)

    def any_of(self, events: Iterable[Event]) -> Event:
        from repro.simkernel.events import AnyOf

        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> Event:
        from repro.simkernel.events import AllOf

        return AllOf(self, list(events))

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        if delay == 0.0:
            # Due *now*: a FIFO append preserves the (time, priority, seq)
            # order the heap would have produced, at deque cost.
            bucket = (self._bucket_urgent if priority == URGENT
                      else self._bucket_normal)
            bucket.append((self._seq, event))
            if self.probe.enabled:
                self.probe.event_queued(now_bucket=True)
            return
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))
        if self.probe.enabled:
            self.probe.event_queued(now_bucket=False)

    def _next_entry(self) -> tuple[float, Event]:
        """Pop the globally next queue entry (bucket-aware).

        Raises ``IndexError`` when both buckets and the heap are empty.
        The returned entry may be cancelled; :meth:`step` filters.
        """
        bu = self._bucket_urgent
        bn = self._bucket_normal
        head = bu[0] if bu else (bn[0] if bn else None)
        if head is None:
            when, _prio, _seq, event = heapq.heappop(self._queue)
            if when < self._now:
                raise AssertionError("event scheduled in the past")
            return when, event
        queue = self._queue
        if queue:
            # Bucket entries are all due at the current time; a heap entry
            # wins only if it is also due now and sorts strictly earlier by
            # (priority, seq).  Urgent bucket entries shadow the normal
            # bucket entirely (same time, smaller priority).
            t, prio, seq, _ev = queue[0]
            bucket_key = (URGENT, head[0]) if bu else (NORMAL, head[0])
            if t <= self._now and (prio, seq) < bucket_key:
                heapq.heappop(queue)
                return t, _ev
        _seq2, event = bu.popleft() if bu else bn.popleft()
        return self._now, event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._bucket_urgent or self._bucket_normal:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Pop one queue entry and deliver it (empty queue: ``IndexError``).

        A cancelled entry is dropped without delivering, advancing the
        clock or counting as processed — callers that loop on the queue
        re-check emptiness, so a skip is just a cheap no-op iteration.
        With the probe on, the whole step is one ``kernel.step`` profiler
        scope; the try/finally keeps the scope stack balanced when a
        callback raises (``StopSimulation`` travels through here).
        """
        probe = self.probe
        on = probe.enabled
        # Which queue the entry comes from, judged before the pop.
        from_heap = on and not (self._bucket_urgent or self._bucket_normal)
        if on:
            probe.step_begin()
        try:
            when, event = self._next_entry()
            if event._cancelled:
                if on:
                    probe.step_skipped(from_heap)
                return
            self._now = when
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

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to queue exhaustion), a number (run up
        to that simulation time) or an :class:`Event` (run until it fires and
        return its value).
        """
        stop_at = float("inf")
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
            if stop_at < self._now:
                raise ValueError(
                    f"until={stop_at} lies before the current time {self._now}"
                )

        try:
            while True:
                if self._bucket_urgent or self._bucket_normal:
                    # Bucket entries are always due at the current time,
                    # which run() has already admitted (now <= stop_at).
                    self.step()
                elif self._queue and self._queue[0][0] <= stop_at:
                    self.step()
                else:
                    break
        except StopSimulation as stop:
            return stop.value
        if stop_event is not None:
            if not stop_event.triggered:
                raise RuntimeError(
                    "run() event never fired and the event queue is empty"
                )
            return stop_event.value
        if stop_at != float("inf"):
            self._now = stop_at
        return None

    @staticmethod
    def _stop_cb(event: Event) -> None:
        if event.ok:
            raise StopSimulation(event.value)
        event.defused = True
        raise event.value
