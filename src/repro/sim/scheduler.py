"""Event scheduler and virtual clock.

A single :class:`Scheduler` instance drives one simulation run.  Events
are callbacks scheduled at absolute virtual times; ties are broken by a
monotone sequence number so runs are fully deterministic regardless of
hash seeds or dict ordering.

The design is intentionally minimal — callbacks, not coroutines.  The
commit protocols in this library are message-driven state machines, and
plain ``on_message`` callbacks mirror their published pseudo-code (the
coordinator / participant event tables of Fig. 5 and Fig. 8) far more
directly than generator-based processes would.

Hot-path notes: every simulated message goes through this queue, and
the randomized studies run hundreds of thousands of events per sweep.
Heap entries are therefore plain ``(time, seq, handle)`` tuples — tuple
comparison is C-level and ``seq`` is unique, so handles are never
compared — and :attr:`Scheduler.pending` is a live counter maintained
on push / cancel / fire rather than an O(n) queue scan.  Events that
can never be cancelled (message deliveries, which make up nearly all
events in protocol runs) can skip the :class:`EventHandle` allocation
entirely via :meth:`Scheduler.call_fixed`, which stores a bare
``(fn, args)`` tuple in the heap entry instead.  The clock,
:attr:`Scheduler.now`, is a plain attribute that only this module
writes (a guard test holds every other module to that): the network,
the nodes and the tracer's callers read it on every event, and an
attribute load is all a read costs.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the heap entry stays in the queue but is
    skipped when popped.  ``fired`` distinguishes "ran" from "cancelled"
    for assertions in tests.  A handle that has fired or been cancelled
    lets go of ``fn`` and ``args``: handles outlive their event in timer
    tables, and a callback is usually a bound method of whatever owns
    the table.
    """

    __slots__ = ("fn", "args", "time", "cancelled", "fired", "label", "_scheduler")

    def __init__(
        self,
        fn: Callable[..., None],
        args: tuple[Any, ...],
        time: float,
        label: str = "",
    ) -> None:
        self.fn = fn
        self.args = args
        self.time = time
        self.cancelled = False
        self.fired = False
        self.label = label
        self._scheduler: "Scheduler | None" = None

    def cancel(self) -> None:
        """Prevent the event from running (no-op if it already ran)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        self.fn = self.args = None
        if self._scheduler is not None:
            self._scheduler._pending -= 1

    @property
    def active(self) -> bool:
        """True while the event is still pending."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        name = self.label or getattr(self.fn, "__name__", None) or repr(self.fn)
        return f"<EventHandle {name} @{self.time} {state}>"


class Scheduler:
    """Virtual-time event queue.

    Typical use::

        sched = Scheduler()
        sched.call_at(5.0, deliver, msg)
        handle = sched.call_after(2.0, timeout_fires)
        handle.cancel()
        sched.run()          # runs to quiescence
        sched.now            # final virtual time

    The scheduler never advances time on its own: :meth:`run`,
    :meth:`run_until` and :meth:`step` pop events in order and set the
    clock to each event's timestamp before invoking it.
    """

    def __init__(self) -> None:
        # (time, seq, handle) tuples; seq is unique so comparison never
        # reaches the handle.
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        #: current virtual time; written by this class and nobody else
        self.now = 0.0
        self._events_run = 0
        self._pending = 0
        self._max_events = 10_000_000

    @property
    def events_run(self) -> int:
        """Number of events executed so far (determinism fingerprint)."""
        return self._events_run

    @property
    def pending(self) -> int:
        """Number of scheduled events still active — O(1)."""
        return self._pending

    def call_at(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``.

        Scheduling in the past is a programming error and raises
        ``ValueError`` rather than silently reordering history.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        handle = EventHandle(fn, args, time, label=label)
        handle._scheduler = self
        self._seq += 1
        self._pending += 1
        heapq.heappush(self._queue, (time, self._seq, handle))
        return handle

    def call_after(
        self,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``fn(*args)`` after a relative ``delay >= 0``."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.call_at(self.now + delay, fn, *args, label=label)

    def call_fixed(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule a *non-cancellable* event at absolute time ``time``.

        The hot-path sibling of :meth:`call_at`: no :class:`EventHandle`
        is allocated, the heap entry carries a bare ``(fn, args)`` tuple.
        Used by the network for message deliveries, which are never
        cancelled (a crash drops the message at delivery time instead).
        """
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        self._seq += 1
        self._pending += 1
        heapq.heappush(self._queue, (time, self._seq, (fn, args)))

    def call_fixed_after(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule a *non-cancellable* event after a relative ``delay >= 0``.

        The hot-path sibling of :meth:`call_after`, as :meth:`call_fixed`
        is of :meth:`call_at`: no :class:`EventHandle` is allocated.  Used
        for timers that are armed once and never cancelled (failure-plan
        actions, fire-immediately protocol timers); ``pending`` and
        ``events_run`` accounting is identical to the handle-carrying path.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.call_fixed(self.now + delay, fn, *args)

    def call_fixed_until(
        self, time: float, deadline: float, fn: Callable[..., None], *args: Any
    ) -> bool:
        """Deadline-gated :meth:`call_fixed`: schedule only before ``deadline``.

        Returns True if the event was scheduled, False if ``time`` is at
        or past ``deadline`` (nothing is scheduled, no handle exists).
        This is the open-loop traffic engine's admission hook: a
        self-re-arming arrival chain calls this with its stream's end
        time and simply stops being scheduled when the service window
        closes — no sentinel events, no cancellation sweep.
        """
        if time >= deadline:
            return False
        self.call_fixed(time, fn, *args)
        return True

    def step(self) -> bool:
        """Run the single next pending event.

        Returns:
            True if an event ran, False if the queue was empty.
        """
        queue = self._queue
        while queue:
            time, _seq, handle = heapq.heappop(queue)
            if type(handle) is tuple:
                # call_fixed entry: not cancellable, no flags to update.
                self.now = time
                self._pending -= 1
                self._events_run += 1
                if self._events_run > self._max_events:
                    raise RuntimeError(
                        f"simulation exceeded {self._max_events} events; "
                        "likely a livelock (retry loop without progress)"
                    )
                handle[0](*handle[1])
                return True
            if handle.cancelled:
                # counter already decremented at cancel()
                continue
            self.now = time
            handle.fired = True
            self._pending -= 1
            self._events_run += 1
            if self._events_run > self._max_events:
                raise RuntimeError(
                    f"simulation exceeded {self._max_events} events; "
                    "likely a livelock (retry loop without progress)"
                )
            fn = handle.fn
            args = handle.args
            handle.fn = handle.args = None
            fn(*args)
            return True
        return False

    def clear(self) -> None:
        """Drop every queued event; handles still pending read cancelled.

        The cluster's release path (:meth:`Cluster.close
        <repro.db.cluster.Cluster.close>`): queued callbacks are bound
        methods of the network, the sites and the engines, so an emptied
        queue is what lets a finished installation fall by refcount.
        The clock and ``events_run`` are untouched.
        """
        for _time, _seq, handle in self._queue:
            if type(handle) is not tuple:
                handle.cancelled = True
                handle.fn = handle.args = None
        self._queue.clear()
        self._pending = 0

    def run(self) -> float:
        """Run until the queue drains; returns the final virtual time."""
        while self.step():
            pass
        return self.now

    def run_until(self, deadline: float) -> float:
        """Run all events with ``time <= deadline``; advance clock to deadline.

        Events scheduled beyond the deadline stay queued, so a run can be
        resumed (used by experiments that inject failures mid-protocol and
        by the re-entrancy benchmarks).
        """
        while self._queue:
            time, _seq, handle = self._queue[0]
            if type(handle) is not tuple and handle.cancelled:
                heapq.heappop(self._queue)
                continue
            if time > deadline:
                break
            self.step()
        self.now = max(self.now, deadline)
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Scheduler now={self.now} pending={self.pending}>"
