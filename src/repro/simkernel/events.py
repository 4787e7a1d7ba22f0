"""Timeouts, condition events, interrupts and re-armable timers."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.simkernel.core import _INF, NORMAL, PENDING, Environment, Event

__all__ = ["Timeout", "Condition", "AnyOf", "AllOf", "Interrupt",
           "RearmableTimer"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    :attr:`cause` carries whatever the interrupter passed.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class Timeout(Event):
    """An event that fires a fixed ``delay`` after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: Environment, delay: float, value: Any = None) -> None:
        # False for NaN and infinities as well as for negative delays.
        if not 0.0 <= delay < _INF:
            raise ValueError(f"delay must be finite and non-negative, "
                             f"got {delay}")
        super().__init__(env)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay=self.delay)

    def succeed(self, value: Any = None) -> Event:  # pragma: no cover
        raise RuntimeError("a Timeout triggers itself")

    def fail(self, exception: BaseException) -> Event:  # pragma: no cover
        raise RuntimeError("a Timeout triggers itself")


class RearmableTimer:
    """A single-shot timer that can be cancelled and re-armed cheaply.

    The fabric and fluid resources re-aim their "next completion" wakeup
    every time the job set changes.  Historically each re-aim abandoned
    the old :class:`Timeout` in the queue (guarded by a monotonically
    increasing token) — the stale entry was still popped, clock-advanced
    and counted, and a cancel + re-arm into the *same* tick could fire a
    guard-passing duplicate.  This class instead marks the superseded
    event ``_cancelled`` so the kernel drops it at pop time: exactly one
    live entry per timer, never delivered twice.

    ``callback`` is invoked with no arguments when the armed deadline is
    reached and the timer has not been cancelled or re-armed since.
    """

    __slots__ = ("env", "_callback", "_pending")

    def __init__(self, env: Environment, callback: Callable[[], None]) -> None:
        self.env = env
        self._callback = callback
        self._pending: Optional[Event] = None

    @property
    def armed(self) -> bool:
        """True while a wakeup is scheduled."""
        return self._pending is not None

    def arm(self, delay: float, seq: Optional[int] = None) -> None:
        """Schedule (or move) the wakeup to ``delay`` seconds from now, at
        ``seq`` when given (a number from ``Environment.reserve_seq``)."""
        self.cancel()
        event = Event(self.env)
        event._ok = True
        event._value = None
        assert event.callbacks is not None
        event.callbacks.append(self._fire)
        self.env._schedule(event, NORMAL, delay, seq)
        self._pending = event

    def cancel(self) -> None:
        """Drop the pending wakeup, if any.  Idempotent."""
        if self._pending is not None:
            self._pending._cancelled = True
            self._pending = None

    def _fire(self, event: Event) -> None:
        if event is not self._pending:
            # Belt over the kernel's braces: a cancelled entry should have
            # been dropped at pop time and never reach its callbacks.
            return  # pragma: no cover
        self._pending = None
        self._callback()

    def __repr__(self) -> str:
        state = "armed" if self._pending is not None else "idle"
        return f"<RearmableTimer {state} at {id(self):#x}>"


class Condition(Event):
    """Waits for a boolean combination of child events.

    The condition's value is a dict mapping each *triggered* child event to
    its value at the moment the condition fired.  A failing child fails the
    whole condition (and the child's exception is marked defused, since the
    condition consumes it).
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: Environment,
        evaluate: Callable[[list[Event], int], bool],
        events: list[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must share one environment")

        if not self._events:
            self.succeed({})
            return

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.add_callback(self._check)

    # Both read the slots behind the public properties: a condition is
    # checked once per child event, and every child it sees has been
    # delivered, so it is triggered.
    def _collect_values(self) -> dict[Event, Any]:
        # Processed (callbacks already ran), not triggered: a Timeout
        # knows its value at construction, long before it actually fires.
        return {e: e._value for e in self._events
                if e.callbacks is None and e._ok}

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        return count > 0 or not events

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        return count == len(events)


class AnyOf(Condition):
    """Fires when the first of ``events`` fires."""

    __slots__ = ()

    def __init__(self, env: Environment, events: list[Event]) -> None:
        super().__init__(env, Condition.any_events, events)


class AllOf(Condition):
    """Fires when every one of ``events`` has fired."""

    __slots__ = ()

    def __init__(self, env: Environment, events: list[Event]) -> None:
        super().__init__(env, Condition.all_events, events)
