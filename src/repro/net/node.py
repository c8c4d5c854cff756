"""Message-driven actor base class.

A :class:`Node` is one site's network persona: it registers handlers by
message type, sends messages, and owns the timers armed through
:meth:`Node.set_timer`, which are automatically cancelled when the site
crashes (a crashed site must not act).  The database
:class:`~repro.db.site.Site` and the protocol engines build on this
class.

The protocol engines' timers are not node timers.  A watchdog,
election or termination window and a coordinator's vote or ack window
is one :meth:`Scheduler.call_at <repro.sim.scheduler.Scheduler.call_at>`
registered only in the engine (see :mod:`repro.protocols.base`); it
never passes through :meth:`Node.set_timer` or :meth:`Node._guarded`.
A crash reaches them through :meth:`on_crash` — the site's hook calls
the engine's, which cancels them — and a forced leave through
:meth:`CommitProtocolEngine.cancel_timers
<repro.protocols.base.CommitProtocolEngine.cancel_timers>`.
:meth:`Node.set_timer` stays the node-level API for everything else.

Handlers bind on first delivery.  A protocol engine does not register
its fifteen handlers when it is built; it hands the node its class's
``mtype -> method name`` table (:meth:`Node.bind_on_delivery`) and the
node registers a type — through :meth:`Node.on`, still one handler per
type — the first time a message of that type arrives.  A 32-site
installation of which a dozen sites ever hear three or four types
creates a few dozen bound methods, not 480.  A handler registered
explicitly with :meth:`Node.on` before the first delivery wins over the
table; a type in neither is traced ``unhandled`` and ignored.

Engines, like handlers, bind on first delivery.  A node may reserve a
table for an owner it has not built yet (``bind_on_delivery(None,
names)``); the first delivery of one of its types asks
:meth:`Node.build_late_owner` for the owner, which binds itself.  A
database site reserves its engine class's table that way, so a site no
message reaches never builds its engine (see :mod:`repro.db.site`).

What a node binds once.  The tracer and the scheduler are fixed for
the network's lifetime, so a node takes both when it is built:
:attr:`Node.now`, :meth:`Node.trace` and :meth:`Node.set_timer` read
the clock as ``self._scheduler.now`` — two attribute loads — and a
node timer is one :meth:`Scheduler.call_at
<repro.sim.scheduler.Scheduler.call_at>` after the node's own
liveness and negative-delay checks.  A node builds no
:class:`~repro.net.message.Message`: :meth:`Node.send` is a
:meth:`Network.fanout <repro.net.network.Network.fanout>` to one
destination, as :meth:`Node.broadcast` and :meth:`Node.multicast` are
to many, so every message is built and judged in that one place.

What a node builds on first use.  Its handler table and its timer list
are built by their first entry — the first :meth:`Node.on` (which the
first delivery of a tabled type calls) and the first
:meth:`Node.set_timer`, which no protocol engine calls.  Until then the
node reads a shared, read-only empty table (a ``MappingProxyType``)
and the empty tuple, so readers take no branch and a write that skips
the first-use step raises instead of reaching another node.  A crash's
:meth:`Node.cancel_timers` and :meth:`Node.close` put the shared empties
back.  Most sites of a WAN storm never hear a message, and none arms a
node timer, so neither table is ever built for them.

Crash semantics follow the paper's model:

* ``crash()`` flips ``alive``, cancels every pending node timer and
  runs :meth:`on_crash` (where an engine cancels its own); the network
  then drops traffic in both directions.
* ``recover()`` flips ``alive`` back and invokes :meth:`on_recover`,
  where subclasses reconstruct state from durable storage (the WAL).
  Volatile state does *not* survive.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.common.errors import SiteDownError
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network
    from repro.sim.scheduler import EventHandle


#: the tables of a node that has bound nothing: shared by every such
#: node and read-only, so a write that skips the first-use step raises
#: instead of reaching another node
_NO_HANDLERS: Mapping[str, Callable[[Message], None]] = MappingProxyType({})
_NO_NAMES: Mapping[str, str] = MappingProxyType({})
_NO_TIMERS: Sequence["EventHandle"] = ()
_MIN_PRUNE = 64


class Node:
    """One network endpoint with typed message handlers and safe timers."""

    def __init__(self, node_id: int, network: "Network") -> None:
        self.node_id = node_id
        self.network = network
        self.alive = True
        self._handlers: Mapping[str, Callable[[Message], None]] = _NO_HANDLERS
        # handlers not bound yet: method names on _late_owner by mtype
        self._late_owner: object = None
        self._late_names: Mapping[str, str] = _NO_NAMES
        self._timers: Sequence["EventHandle"] = _NO_TIMERS
        self._prune_at = _MIN_PRUNE  # len(_timers) that triggers a prune
        # the tracer and the scheduler are fixed for the network's
        # lifetime; bound here, every trace(), set_timer() and clock
        # read is attribute loads, not a chain of properties
        self._tracer = network.tracer
        self._scheduler = network.scheduler
        network.register(self)

    # ------------------------------------------------------------------
    # handler registration / dispatch
    # ------------------------------------------------------------------

    def on(self, mtype: str, handler: Callable[[Message], None]) -> None:
        """Register the handler for a message type (one handler per type)."""
        handlers = self._handlers
        if mtype in handlers:
            raise ValueError(f"node {self.node_id}: duplicate handler for {mtype!r}")
        if handlers is _NO_HANDLERS:  # the first binding builds the table
            self._handlers = {mtype: handler}
        else:
            handlers[mtype] = handler

    def bind_on_delivery(self, owner: object | None, names: Mapping[str, str]) -> None:
        """Let ``owner``'s methods handle the types in ``names``, lazily.

        ``names`` maps a message type to the name of the ``owner``
        method that handles it; it is shared (one table per protocol), never
        copied.  Nothing is registered now: :meth:`deliver` calls
        :meth:`on` with the bound method the first time a type arrives.
        ``owner`` None reserves the table for an owner not built yet:
        the first delivery of one of its types gets it from
        :meth:`build_late_owner`, which binds it here.  One owner per
        node.
        """
        if self._late_owner is not None:
            raise ValueError(f"node {self.node_id}: duplicate handler table")
        self._late_owner = owner
        self._late_names = names

    def build_late_owner(self) -> object:
        """Build the owner of a table reserved with ``owner`` None; it
        must bind itself through :meth:`bind_on_delivery`.  A plain
        node builds none: a subclass that reserves a table overrides
        this."""
        raise ValueError(f"node {self.node_id}: no owner for its handler table")

    def deliver(self, msg: Message) -> None:
        """Called by the network when a message arrives.

        Unhandled message types are traced and ignored rather than
        raising: a recovered site legitimately receives stragglers for
        protocols it no longer tracks.
        """
        if not self.alive:  # defensive; the network already filters
            return
        mtype = msg.mtype
        handler = self._handlers.get(mtype)
        if handler is None:
            name = self._late_names.get(mtype)
            if name is None:
                self._tracer.record(
                    self._scheduler.now, self.node_id, "unhandled", msg.txn, mtype=mtype
                )
                return
            # first delivery of this type: register it like any other
            # handler, then dispatch whatever ``on`` stored
            owner = self._late_owner
            if owner is None:
                owner = self.build_late_owner()
            self.on(mtype, getattr(owner, name))
            handler = self._handlers[mtype]
        handler(msg)

    # ------------------------------------------------------------------
    # sending and timing
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._scheduler.now

    def send(self, dst: int, mtype: str, txn: str = "", **payload: Any) -> None:
        """Send one message: a :meth:`Network.fanout
        <repro.net.network.Network.fanout>` to ``(dst,)``.  Raises
        :class:`SiteDownError` if this site is down."""
        if not self.alive:
            raise SiteDownError(f"site {self.node_id} is down")
        self.network.fanout(self.node_id, (dst,), mtype, txn, payload)

    def broadcast(self, dsts: list[int], mtype: str, txn: str = "", **payload: Any) -> None:
        """Send the same message to every destination (excluding self).

        Routed through :meth:`Network.fanout
        <repro.net.network.Network.fanout>`, which hoists the per-source
        connectivity work out of the per-destination loop.  Raises
        :class:`SiteDownError` if this site is down.
        """
        if not self.alive:
            raise SiteDownError(f"site {self.node_id} is down")
        self.network.fanout(
            self.node_id,
            [dst for dst in dsts if dst != self.node_id],
            mtype,
            txn,
            payload,
        )

    def multicast(self, dsts: Iterable[int], mtype: str, txn: str = "", **payload: Any) -> None:
        """Send the same message to every destination, self included.

        The protocol engines' fan-out primitive (vote requests, PREPARE,
        decisions, termination polls): a coordinator is usually also a
        participant and must deliver its own copy as a local message.
        Same :meth:`Network.fanout <repro.net.network.Network.fanout>`
        hot path as :meth:`broadcast`; the payload dict is shared across
        the fan-out, which is safe because messages are immutable by
        contract.  Raises :class:`SiteDownError` if this site is down.
        """
        if not self.alive:
            raise SiteDownError(f"site {self.node_id} is down")
        self.network.fanout(self.node_id, dsts, mtype, txn, payload)

    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any, label: str = "") -> "EventHandle":
        """Schedule a callback that is cancelled if this site crashes first."""
        if not self.alive:
            raise SiteDownError(f"site {self.node_id} is down")
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        sched = self._scheduler
        handle = sched.call_at(
            sched.now + delay, self._guarded, fn, args, label=label or f"timer@{self.node_id}"
        )
        timers = self._timers
        if timers is _NO_TIMERS:  # the first timer builds the list
            self._timers = [handle]
            return handle
        timers.append(handle)
        if len(timers) > self._prune_at:
            # drop fired / cancelled handles; the next prune waits until
            # the list has doubled past the live ones, so a site holding
            # many active timers filters O(1) entries per set_timer
            self._timers = live = [t for t in timers if t.active]
            self._prune_at = max(_MIN_PRUNE, 2 * len(live))
        return handle

    def _guarded(self, fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        """Run a timer callback only while alive (belt over crash-cancel)."""
        if self.alive:
            fn(*args)

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose volatile state: cancel timers, stop acting."""
        self.alive = False
        self.cancel_timers()
        self.on_crash()

    def cancel_timers(self) -> None:
        """Cancel every pending timer of this node."""
        for timer in self._timers:
            timer.cancel()
        self._timers = _NO_TIMERS
        self._prune_at = _MIN_PRUNE

    def recover(self) -> None:
        """Come back up; subclasses rebuild from durable state."""
        self.alive = True
        self.on_recover()

    def close(self) -> None:
        """Let go of everything that points back at this node's owners.

        Part of :meth:`Cluster.close <repro.db.cluster.Cluster.close>`:
        the handler table and the late-binding owner hold the engine,
        the timer list holds callbacks bound to this node.  The node
        handles nothing afterwards.
        """
        self._handlers = _NO_HANDLERS
        self._late_owner = None
        self._late_names = _NO_NAMES
        self._timers = _NO_TIMERS

    def on_crash(self) -> None:
        """Hook for subclasses (default: nothing)."""

    def on_recover(self) -> None:
        """Hook for subclasses (default: nothing)."""

    def trace(self, category: str, txn: str = "", **detail: Any) -> None:
        """Record a trace event attributed to this site; ``detail`` is
        handed to the tracer as the row's dict, not copied."""
        self._tracer.record(self._scheduler.now, self.node_id, category, txn, detail)

    def __repr__(self) -> str:
        status = "up" if self.alive else "DOWN"
        return f"<Node {self.node_id} {status}>"
