"""Shared-resource primitives for the simulation kernel.

Three primitives cover everything the RDMA/NVM models need:

* :class:`Resource` — a counted resource (e.g. a server CPU core, a NIC
  DMA engine). Processes ``yield resource.request()`` and later
  ``resource.release(req)``; requests queue FIFO.
* :class:`Store` — an unbounded (or bounded) FIFO of Python objects with
  blocking ``get``/``put``; used for receive queues and mailboxes.
* :class:`FilterStore` — a store whose getters wait for the oldest item
  matching a predicate (an RPC response among notifications).

All wait queues are strictly FIFO, preserving the kernel's determinism.
A queued waiter's ``on_abandon`` hook (which closes over its own event)
is cleared the moment it is served, so a served wait and the item it
carries are freed by refcount instead of waiting for the cycle collector.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import Any, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Environment, Event

__all__ = ["Request", "Resource", "Store", "FilterStore"]


def _discard(queue, entry) -> None:
    """Remove an abandoned waiter from a wait queue (no-op if gone)."""
    try:
        queue.remove(entry)
    except ValueError:
        pass


class Request(Event):
    """Event returned by :meth:`Resource.request`; succeeds when granted.

    Usable as a context manager inside a process::

        with resource.request() as req:
            yield req
            ... hold the resource ...
        # released on exit
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with FIFO request queueing."""

    __slots__ = ("env", "capacity", "_users", "_waiting")

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._waiting: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of grants currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._waiting)

    def request(self) -> Request:
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed()
        else:
            self._waiting.append(req)
            req.on_abandon = lambda: _discard(self._waiting, req)
        return req

    def release(self, request: Request) -> None:
        """Release a held (or still-queued) request."""
        if request in self._users:
            self._users.remove(request)
            self._grant_next()
        else:
            # Cancelling a queued request is allowed (e.g. timeout races).
            try:
                self._waiting.remove(request)
            except ValueError:
                raise SimulationError(
                    "release() of a request that holds nothing"
                ) from None

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            nxt.on_abandon = None
            self._users.add(nxt)
            nxt.succeed()

    def try_acquire(self) -> Optional[Request]:
        """Take a free unit at once, with no grant event; ``None`` when
        every unit is held (the caller then waits in line with
        :meth:`acquire`). A request is only queued while every unit is
        held, so this never jumps the line. The returned request is
        already processed and is released like any other grant."""
        if len(self._users) >= self.capacity:
            return None
        req = Request(self)
        req._value = None
        req.callbacks = None
        self._users.add(req)
        return req

    def acquire(self) -> Generator[Event, Any, Request]:
        """``yield from``-style helper: wait for and return a grant.

        Interrupt-safe: if the waiting process is interrupted (or any
        exception is thrown into it), the request is cancelled/released
        so the resource can never leak a grant to a dead process — vital
        for crash handling, where in-flight server work is interrupted
        while queued for the CPU or NIC.
        """
        req = self.request()
        try:
            yield req
        except BaseException:
            try:
                self.release(req)
            except SimulationError:
                pass  # already released; nothing held
            raise
        return req


class Store:
    """FIFO object store with blocking get/put.

    ``capacity`` bounds the number of queued items; ``put`` on a full
    store blocks until space frees up. With the default infinite
    capacity ``put`` always succeeds immediately. A getter whose waiting
    process is interrupted cancels itself (via the event's abandon hook),
    so items are never delivered to dead processes.
    """

    __slots__ = ("env", "capacity", "items", "_getters", "_putters")

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError(f"store capacity must be > 0, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event succeeds once it is stored."""
        ev = Event(self.env)
        if self._getters:
            # Hand straight to the longest-waiting getter.
            getter = self._getters.popleft()
            getter.on_abandon = None
            getter.succeed(item)
            ev.succeed()
        elif len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def put_nowait(self, item: Any) -> bool:
        """Non-blocking put: True when stored or handed to a getter,
        False when the store is full. Unlike :meth:`put` this creates
        no event, so hot producers that never block (e.g. completion
        queues) pay nothing for the confirmation they don't read."""
        if self._getters:
            getter = self._getters.popleft()
            getter.on_abandon = None
            getter.succeed(item)
            return True
        if len(self.items) < self.capacity:
            self.items.append(item)
            return True
        return False

    def get(self) -> Event:
        """Remove and return the oldest item; blocks while empty."""
        ev = Event(self.env)
        if self.items:
            ev.succeed(self.items.popleft())
            self._admit_putters()
        else:
            self._getters.append(ev)
            ev.on_abandon = lambda: _discard(self._getters, ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self.items:
            item = self.items.popleft()
            self._admit_putters()
            return True, item
        return False, None

    def _admit_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            ev, item = self._putters.popleft()
            self.items.append(item)
            ev.succeed()


class FilterStore:
    """Unbounded store whose getters select items with a predicate.

    Used for receive queues where a process must wait for *its* message
    (e.g. an RPC response) while unrelated messages (e.g. log-cleaning
    notifications) queue up for other consumers. Getters are served FIFO
    among those whose predicate matches; unmatched items stay queued.
    """

    __slots__ = ("env", "items", "_getters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: list[Any] = []
        self._getters: deque[tuple[Event, Optional[Any]]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Insert ``item``; wakes the first *live* waiting getter that
        matches (abandoned getters are pruned, never fed)."""
        for idx, (ev, pred) in enumerate(self._getters):
            if pred is None or pred(item):
                del self._getters[idx]
                ev.on_abandon = None
                ev.succeed(item)
                return
        self.items.append(item)

    def get(self, predicate: Optional[Any] = None) -> Event:
        """Wait for the oldest item matching ``predicate`` (or any item)."""
        ev = Event(self.env)
        for idx, item in enumerate(self.items):
            if predicate is None or predicate(item):
                del self.items[idx]
                ev.succeed(item)
                return ev
        entry = (ev, predicate)
        self._getters.append(entry)
        ev.on_abandon = lambda: _discard(self._getters, entry)
        return ev

    def try_get(self, predicate: Optional[Any] = None) -> tuple[bool, Any]:
        """Non-blocking matched get."""
        for idx, item in enumerate(self.items):
            if predicate is None or predicate(item):
                del self.items[idx]
                return True, item
        return False, None

