"""Discrete-event simulation kernel.

A deliberately small, deterministic event-driven kernel in the style of
SimPy: simulated *processes* are Python generators that ``yield`` events;
the :class:`Environment` owns a priority queue of scheduled events and
advances virtual time from one event to the next.

Design notes
------------
* Two-phase event lifecycle: an event is first *triggered*
  (:meth:`Event.succeed` / :meth:`Event.fail`), which schedules it on the
  environment queue; it is *processed* when popped, at which point its
  callbacks run. This matches SimPy semantics and guarantees that all
  state mutations made by the triggering process are visible before any
  waiter resumes.
* Deterministic ordering: the queue is keyed by
  ``(time, priority, sequence)``. Two events scheduled for the same time
  and priority always process in schedule order, so simulations are
  exactly reproducible.
* Virtual time is a ``float`` in **nanoseconds** by convention throughout
  the library (see :mod:`repro.rdma.latency`), although the kernel itself
  is unit-agnostic.

Scheduler (see DESIGN.md §11)
-----------------------------
The queue is one binary heap (C ``heapq``) of ``(time, key, event)``
with the fused key ``(priority << 60) | sequence``. The sequence is
unique, so no two entries compare equal before the event is reached and
pop order is exactly ``(time, priority, sequence)``. Times are compared
as the floats they were scheduled with, which is what lets
:meth:`Environment.timeout_at` keep the analytic verb fast path
bit-identical to the event path. The queue is small (one pending
wake-up per client at most), so the heap's two C calls per event beat
any Python-level structure.

Two allocation optimizations ride on top:

* The dominant wait pattern — exactly one process yielding an event — is
  stored in the :attr:`Event._waiter` slot instead of a callbacks-list
  append, avoiding a bound-method allocation per wait. Dispatch resumes
  the waiter first, then the callbacks list, which preserves the
  subscription order the seed kernel produced. :meth:`Environment.run`
  resumes the sole waiter of a successful event itself when there are
  no callbacks and no ``trace_hook``; everything else goes through
  ``_dispatch``.
* :meth:`Environment.timeout` recycles fired ``Timeout`` objects through
  a small freelist. Only pool-created timeouts whose callbacks list was
  still empty at dispatch are recycled, so any timeout subscribed to by a
  condition (``a | b``) or held for post-hoc ``.value`` inspection via
  callbacks is never reused. Contract: do not re-yield or re-inspect a
  plain ``env.timeout()`` event after it has been processed — use
  ``env.event()`` for shared rendezvous points.
"""

from __future__ import annotations

from collections.abc import Generator, Iterable
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError

__all__ = [
    "PENDING",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "StopSimulation",
    "Environment",
    "ConditionValue",
    "AllOf",
    "AnyOf",
]


class _Pending:
    """Unique sentinel marking an event that has not been triggered."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


#: Sentinel value stored in :attr:`Event._value` while untriggered.
PENDING = _Pending()

#: Queue priorities: urgent events (process resumptions) run before
#: normal ones at the same timestamp; low runs last.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

#: Fused ordering key: ``(priority << _PRIO_SHIFT) | seq``. Priorities are
#: 0..2 and the sequence counter never approaches 2**60, so comparing the
#: fused int is identical to comparing ``(priority, seq)`` and the key is
#: globally unique.
_PRIO_SHIFT = 60
_NORMAL_KEY = PRIORITY_NORMAL << _PRIO_SHIFT

#: Upper bound on the recycled-Timeout freelist.
_FREELIST_CAP = 256

_INF = float("inf")


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at its ``until``
    event; carries the event's value."""

    def __init__(self, value: Any) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process may catch it and continue; ``cause`` carries
    the object passed to :meth:`Process.interrupt`.
    """

    @property
    def cause(self) -> Any:
        return self.args[0]


class Event:
    """An occurrence at a point in simulated time that processes can wait on.

    Events carry a *value* (delivered to waiting processes) or an
    *exception* (raised inside waiting processes). They trigger at most
    once.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_waiter", "on_abandon")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event when it is processed. ``None``
        #: once processed (used as the "already processed" flag).
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False
        #: The single process waiting on this event, when that process is
        #: the *only* subscriber (the dominant pattern). Resumed before the
        #: callbacks list, preserving subscription order.
        self._waiter: Optional["Process"] = None
        #: Invoked when the last waiter detaches before the event
        #: triggered (e.g. the waiting process was interrupted). Wait
        #: queues use this to cancel the abandoned reservation so items
        #: and grants are never delivered to dead processes.
        self.on_abandon: Optional[Callable[[], None]] = None

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception and is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only meaningful once triggered."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, *, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value`` (processed at the
        current simulation time)."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, *, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror another (triggered) event's outcome onto this one."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def defused(self) -> None:
        """Mark a failed event as handled so the kernel will not escalate
        its exception to :meth:`Environment.step`."""
        self._defused = True

    # -- composition -------------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "pending"
            if self._value is PENDING
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically ``delay`` time units after
    creation."""

    __slots__ = ("delay", "_pooled")

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._pooled = False
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)


def _fresh_timeout(env: "Environment") -> Timeout:
    """A poolable :class:`Timeout` for ``env``, built without the
    ``__init__`` chain; the caller sets its outcome and schedules it."""
    ev = Timeout.__new__(Timeout)
    ev.env = env
    ev._waiter = None
    ev._pooled = True
    return ev


class Initialize(Event):
    """Internal: first resumption of a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._waiter = process
        self._ok = True
        self._value = None
        env.schedule(self, priority=PRIORITY_URGENT)


class _InterruptEvent(Event):
    """Internal: carries an interrupt's cause to the target process."""

    __slots__ = ("cause",)

    def __init__(self, env: "Environment", cause: Any) -> None:
        super().__init__(env)
        self.cause = cause


class Process(Event):
    """Wraps a generator and drives it through the event loop.

    The process itself is an :class:`Event` that triggers when the
    generator returns (value = the generator's return value) or raises
    (the process fails with that exception).
    """

    __slots__ = ("_generator", "_target", "_spawned", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> None:
        self._bind(env, generator, name)
        Initialize(env, self)

    def _bind(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"process() requires a generator, got {generator!r}"
            )
        Event.__init__(self, env)
        self._generator = generator
        #: The event this process is currently waiting on (None when the
        #: process is active, finished, or not yet started).
        self._target: Optional[Event] = None
        #: True for :meth:`Environment.spawn`: a successful end nobody
        #: waits on is not scheduled.
        self._spawned = False
        self.name = name or getattr(generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process that is about to resume is allowed and the interrupt
        wins (delivered first).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        if self is self.env._active_process:
            raise SimulationError(
                f"cannot interrupt {self!r} from within itself"
            )
        # A not-yet-started process may be interrupted: the interrupt
        # event is scheduled after the pending Initialize (same time,
        # both urgent, FIFO), so it lands right after the first yield.
        interrupt_ev = _InterruptEvent(self.env, cause)
        interrupt_ev.callbacks.append(self._resume_interrupt)
        interrupt_ev._ok = True
        interrupt_ev._value = None
        self.env.schedule(interrupt_ev, priority=PRIORITY_URGENT)

    # -- kernel plumbing ---------------------------------------------------
    def _unsubscribe(self) -> None:
        """Detach from the event we were waiting on (after an interrupt)."""
        target = self._target
        if target is not None and target.callbacks is not None:
            if target._waiter is self:
                target._waiter = None
            else:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
            if (
                target._waiter is None
                and not target.callbacks
                and target.on_abandon is not None
            ):
                target.on_abandon()
        self._target = None

    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:  # finished in the meantime; drop silently
            return
        self._unsubscribe()
        assert isinstance(event, _InterruptEvent)
        self._step(Interrupt(event.cause), throw=True)

    def _resume(self, event: Event) -> None:
        self._target = None
        if event._ok:
            self._step(event._value, throw=False)
        else:
            event._defused = True
            self._step(event._value, throw=True)

    def _step(self, value: Any, *, throw: bool) -> None:
        env = self.env
        env._active_process = self
        try:
            if throw:
                target = self._generator.throw(value)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            env._active_process = None
            self._ok = True
            self._value = stop.value
            if self._spawned and self._waiter is None and not self.callbacks:
                # Nobody can observe this end: mark it processed in place.
                self.callbacks = None
                return
            env.schedule(self, priority=PRIORITY_URGENT)
            return
        except Interrupt as exc:
            # The generator re-raised (or did not catch) an interrupt:
            # treat like any other failure.
            env._active_process = None
            self._ok = False
            self._value = exc
            self._defused = True
            env.schedule(self, priority=PRIORITY_URGENT)
            return
        except BaseException as exc:
            env._active_process = None
            self._ok = False
            self._value = exc
            env.schedule(self, priority=PRIORITY_URGENT)
            return
        env._active_process = None

        if not isinstance(target, Event):
            raise SimulationError(
                f"{self.name} yielded a non-event: {target!r}"
            )
        if target.env is not env:
            raise SimulationError(
                f"{self.name} yielded an event from a different environment"
            )
        if target.callbacks is None:
            # Already processed: resume immediately (at the current time,
            # urgent priority) with its recorded outcome.
            resume = Event(env)
            resume._waiter = self
            resume._ok = target._ok
            resume._value = target._value
            if not target._ok:
                target._defused = True
            env.schedule(resume, priority=PRIORITY_URGENT)
            self._target = resume
        elif target._waiter is None and not target.callbacks:
            target._waiter = self
            self._target = target
        else:
            target.callbacks.append(self._resume)
            self._target = target


class ConditionValue:
    """Ordered mapping of the events that triggered inside a condition."""

    __slots__ = ("events",)

    def __init__(self, events: list[Event]) -> None:
        self.events = events

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(event)
        return event._value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def values(self) -> list[Any]:
        return [ev._value for ev in self.events]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ConditionValue {self.values()!r}>"


class _Condition(Event):
    """Common machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._done: list[Event] = []
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("condition spans multiple environments")
        if not self._events:
            self.succeed(ConditionValue([]))
            return
        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        # (an empty-events condition already succeeded above)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done.append(event)
        if self._satisfied():
            self.succeed(ConditionValue(list(self._done)))

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every constituent event has succeeded; fails fast on
    the first failure."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._done) == len(self._events)


class AnyOf(_Condition):
    """Triggers when the first constituent event succeeds."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._done) >= 1


class Environment:
    """Owns the event queue and the current simulation time.

    The queue is one binary heap keyed ``(time, priority, sequence)``
    (see the module docstring); :attr:`events_scheduled` /
    :attr:`events_processed` count queue traffic so consumers can report
    events-per-op.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now`.
    """

    __slots__ = (
        "now",
        "_seq",
        "_active_process",
        "trace_hook",
        "_queue",
        "_free_timeouts",
        "events_scheduled",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulation time: a plain attribute, written only by this
        #: kernel as it pops events (staticcheck rule DT006).
        self.now = float(initial_time)
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: Optional callable ``(time, event)`` invoked as each event is
        #: processed; used by :mod:`repro.sim.trace`.
        self.trace_hook: Optional[Callable[[float, Event], None]] = None
        # Heap of (time, (priority << _PRIO_SHIFT) | seq, event). Mutated
        # in place only — run() aliases it.
        self._queue: list[tuple[float, int, Event]] = []
        self._free_timeouts: list[Timeout] = []
        #: Total events ever placed on the queue.
        self.events_scheduled = 0

    @property
    def events_processed(self) -> int:
        """Total events ever popped from the queue. Exact without a
        per-event count: an event leaves the queue only by being popped,
        so this is what was scheduled minus what is still queued."""
        return self.events_scheduled - len(self._queue)

    # -- clock -------------------------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        if not delay < _INF:  # NaN, +inf: what schedule() would reject
            raise SimulationError(f"cannot schedule {delay!r} from now")
        free = self._free_timeouts
        ev = free.pop() if free else _fresh_timeout(self)
        ev.callbacks = []
        ev._defused = False
        ev.on_abandon = None
        ev._ok = True
        ev._value = value
        ev.delay = delay
        # schedule(ev, delay), inlined.
        self._seq = seq = self._seq + 1
        self.events_scheduled += 1
        heappush(self._queue, (self.now + delay, _NORMAL_KEY | seq, ev))
        return ev

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` that fires at *absolute* time ``when``.

        Used by the analytic fast path: scheduling at the exact float an
        event-path timeout chain would have produced (rather than
        ``now + (when - now)``) keeps the two paths bit-identical.
        """
        if when < self.now:
            raise SimulationError(f"timeout_at({when!r}) is in the past")
        free = self._free_timeouts
        ev = free.pop() if free else _fresh_timeout(self)
        ev.callbacks = []
        ev._defused = False
        ev.on_abandon = None
        ev._ok = True
        ev._value = value
        ev.delay = when - self.now
        self.schedule_at(ev, when)
        return ev

    def process(
        self, generator: Generator[Event, Any, Any], name: str | None = None
    ) -> Process:
        return Process(self, generator, name=name)

    def spawn(
        self, generator: Generator[Event, Any, Any], name: str | None = None
    ) -> Process:
        """Start ``generator`` as a process inside the caller's step.

        Its first step runs now, before ``spawn`` returns, with no
        ``Initialize`` event; the caller is the active process again
        afterwards. A spawned process that returns while nobody waits on
        it is marked processed without a completion event. A failure is
        still scheduled, so an unhandled one escalates from :meth:`run`.
        """
        proc = Process.__new__(Process)
        proc._bind(self, generator, name)
        proc._spawned = True
        caller = self._active_process
        try:
            proc._step(None, throw=False)
        finally:
            self._active_process = caller
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        """Place a triggered event on the queue ``delay`` from now."""
        # One comparison chain rejects the past, NaN and ±inf: a NaN at the
        # heap top is never <= stop_at and would hide every event behind it.
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"cannot schedule {delay!r} from now")
        self._seq = seq = self._seq + 1
        self.events_scheduled += 1
        heappush(
            self._queue, (self.now + delay, priority << _PRIO_SHIFT | seq, event)
        )

    def schedule_at(
        self, event: Event, when: float, priority: int = PRIORITY_NORMAL
    ) -> None:
        """Place a triggered event on the queue at absolute time ``when``."""
        if not self.now <= when < _INF:
            raise SimulationError(f"cannot schedule at {when!r} (now={self.now!r})")
        self._seq = seq = self._seq + 1
        self.events_scheduled += 1
        heappush(self._queue, (when, priority << _PRIO_SHIFT | seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        queue = self._queue
        return queue[0][0] if queue else _INF

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise SimulationError("step(): empty schedule")
        self.now, _, event = heappop(self._queue)
        self._dispatch(event)

    def _dispatch(self, event: Event) -> None:
        """Run one popped event's waiter/callbacks; recycle pooled timeouts."""
        if self.trace_hook is not None:
            self.trace_hook(self.now, event)
        callbacks = event.callbacks
        event.callbacks = None  # marks processed
        waiter = event._waiter
        if waiter is not None:
            event._waiter = None
            waiter._target = None
            if event._ok:
                waiter._step(event._value, throw=False)
            else:
                event._defused = True
                waiter._step(event._value, throw=True)
        if callbacks:
            for callback in callbacks:
                callback(event)
        elif type(event) is Timeout and event._pooled:
            # Sole-waiter (or waiterless) pooled timeout: nothing can
            # observe it any more, so recycle the object.
            free = self._free_timeouts
            if len(free) < _FREELIST_CAP:
                free.append(event)
        if not event._ok and not event._defused:
            # Nobody handled the failure: escalate to the driver of run().
            raise event._value

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the queue drains;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until it is processed and return its
          value (raising if it failed).
        """
        if until is None:
            stop_at = _INF
        elif isinstance(until, Event):
            if until.callbacks is None:
                if not until._ok:
                    raise until._value
                return until._value
            until.callbacks.append(self._stop_on)
            stop_at = _INF
        else:
            stop_at = float(until)
            if stop_at < self.now:
                raise SimulationError(
                    f"until={stop_at!r} is in the past (now={self.now!r})"
                )
        queue = self._queue
        dispatch = self._dispatch
        free = self._free_timeouts
        try:
            while queue and queue[0][0] <= stop_at:
                self.now, _, event = heappop(queue)
                waiter = event._waiter
                if (
                    waiter is None
                    or not event._ok
                    or event.callbacks
                    or self.trace_hook is not None
                ):
                    dispatch(event)
                    continue
                # Sole waiter of a successful event: _dispatch's waiter
                # branch and timeout recycling, without the call (the
                # saved call is measured in DESIGN §11).
                event.callbacks = None
                event._waiter = None
                waiter._target = None
                waiter._step(event._value, throw=False)
                if (
                    type(event) is Timeout
                    and event._pooled
                    and len(free) < _FREELIST_CAP
                ):
                    free.append(event)
        except StopSimulation as stop:
            return stop.value
        if isinstance(until, Event):
            raise SimulationError(
                "run() ran out of events before its target event triggered"
            )
        if until is not None:
            self.now = stop_at
        return None

    @staticmethod
    def _stop_on(event: Event) -> None:
        if not event._ok:
            event._defused = True
            raise event._value
        raise StopSimulation(event._value)
