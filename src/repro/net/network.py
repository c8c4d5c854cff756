"""The network: routing, partitions, loss, crash-awareness, tracing.

``Network`` is the single facade the rest of the library talks to:

* protocol engines call :meth:`fanout` (through their node);
* the failure injector calls :meth:`crash_site`, :meth:`recover_site`,
  :meth:`set_partition`, :meth:`heal`, :meth:`set_link_loss`;
* the analysis layer reads :attr:`partition` and :meth:`active_sites`.

Semantics (matching the paper's fault model):

* A message to / from a crashed site is dropped.  Crashed sites receive
  nothing, ever — recovery does not replay in-flight traffic (a crashed
  site reconstructs from its write-ahead log, not from the wire).
* A message across a partition boundary is dropped.  Connectivity is
  evaluated at *delivery* time as well as send time, so a message in
  flight when the partition forms is lost — this is exactly how the
  two-coordinator scenario of Example 3 arises.
* Directed links can be lossy (probability ``p``), independently of
  partitions; ``p = 1`` models a severed link.
* A *degraded* site is slow, not dead (the gray-failure model): every
  message it sends or receives samples its delivery delay as usual and
  the result is stretched by the site's multiplicative factor (factors
  compose when both endpoints are degraded).  Local deliveries stay
  immediate and the RNG draw sequence is untouched, so a run with no
  degradations is byte-identical to one where the overlay code does
  not exist.
* A site can *leave* gracefully (:meth:`deregister`): it is removed
  from the universe without losing durable state — messages in flight
  to it drop as ``departed-in-flight``, distinct from any crash
  reason.

Hot paths (the randomized studies push 10^5+ messages per run):

* **One send path, connectivity evaluated per epoch.**  Every message
  is judged by one body, :meth:`fanout`: :meth:`send` and
  :meth:`Node.send <repro.net.node.Node.send>` are fan-outs to one
  destination.  Each destination passes the same checks in the same
  order: unknown destination, sender down, filtered, link loss,
  partitioned, then the delay draw.  Filters and link loss are
  consulted only while one exists, and the loss RNG is drawn only for
  a link with ``0 < p < 1``.  The partition check reads a
  per-*connectivity-epoch* cache of each source's reachable peers.  An
  epoch is bumped — and the cache busted — by every event
  that can change who may talk to whom or who is alive:
  ``set_partition``, ``heal``, ``crash_site``, ``recover_site``,
  ``register``, ``deregister`` and ``place_with``.  Each delivery is
  one non-cancellable event carrying its send's epoch: if the epoch
  still holds on arrival nothing can have changed and the message is
  delivered; otherwise — or when the destination was down at send time
  (epoch ``-1``, which never matches) — the destination and the
  partition are checked again, so drop reasons
  (``partitioned-in-flight``, ``destination-down``) are exact.
* **Partition views are interned.**  Storm-heavy failure plans apply
  the same group layout over and over; building a
  :class:`~repro.net.partitions.PartitionView` re-validates the groups
  and rebuilds every component ``frozenset`` each time.  The network
  keeps a view cache keyed by the normalized group signature —
  repeated ``set_partition`` calls (and every ``heal``) reuse the
  cached view, whose memoized ``sorted_components()`` also serves the
  ``partition`` trace record.  The cache is cleared whenever the site
  universe changes (``register`` / ``deregister``).
* **Registration is O(1) on a healed network.**  ``register`` adds the
  node, bumps the epoch once and marks the connectivity view stale;
  the universal-component view is built on first use
  (:attr:`Network.partition`), so building an N-site installation
  constructs one view, not N.  Only a register (or deregister) *under
  an active partition* rebuilds the view at once, because the existing
  components must be carried over and the newcomer lands as a
  singleton.
* **The wire is counted; message rows are opt-in.**  Besides ``sent``
  / ``delivered`` / ``dropped``, the network keeps
  :attr:`~Network.sent_by_type` (``mtype -> count``, bumped once per
  :meth:`fanout` by the destinations it handled) and
  :attr:`~Network.dropped_by` (``reason -> count``).  Per-message
  ``send`` / ``deliver`` / ``drop`` trace rows are written only when
  the tracer keeps them (``Tracer(messages=True)``, which a cluster
  builds from its ``message_rows`` switch): the switch is read once,
  here at construction, and each row then goes through the tracer's
  one-call fast path (:meth:`Tracer.record_send` and friends).
* **A message is built in one place, with plain slot stores.**
  :meth:`fanout` constructs one :class:`~repro.net.message.Message` per
  destination and nothing else in the library constructs one; its
  constructor is six slot stores, and a fan-out shares one payload dict.
* **The clock is an attribute load.**  ``fanout``, the deliveries and
  ``_drop`` read :attr:`Scheduler.now
  <repro.sim.scheduler.Scheduler.now>` off the scheduler this network
  holds — a plain attribute, read once per ``fanout``; no property sits
  between an event and the time it happens at.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.net.delays import DelayModel, FixedDelay
from repro.net.message import Message
from repro.net.partitions import PartitionView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node
    from repro.sim.rng import RngRegistry
    from repro.sim.scheduler import Scheduler
    from repro.sim.trace import Tracer

GLOBAL_SITE = -1  # trace attribution for network-wide events


class LivePeers:
    """``site in peers``: ``site`` is up and shares a source's component.

    The membership test :meth:`Network.reachable_from` applies, one site
    at a time and without building a list — what a quorum planner walks
    its ranked copies against.  Read it at once: it holds the source's
    component of the connectivity epoch it was made in.
    """

    __slots__ = ("_component", "_nodes")

    def __init__(self, component: frozenset[int], nodes: dict[int, "Node"]) -> None:
        self._component = component
        self._nodes = nodes

    def __contains__(self, site: object) -> bool:
        return site in self._component and self._nodes[site].alive


class Network:
    """Simulated point-to-point network over registered nodes."""

    def __init__(
        self,
        scheduler: "Scheduler",
        tracer: "Tracer",
        rng: "RngRegistry",
        delay_model: DelayModel | None = None,
    ) -> None:
        self._scheduler = scheduler
        self._tracer = tracer
        self._rng = rng.stream("net")
        self._delay_model = delay_model or FixedDelay(1.0)
        self._nodes: dict[int, "Node"] = {}
        # None = healed and not built yet (see the ``partition`` property)
        self._view: PartitionView | None = None
        self._link_loss: dict[tuple[int, int], float] = {}
        # gray-failure latency overlay: site -> multiplicative factor
        # (absent = 1.0); consulted only when non-empty, so historical
        # runs never touch it.
        self._degraded: dict[int, float] = {}
        self._filters: list[Callable[[Message], bool]] = []
        self._observers: list[Callable[[str], None]] = []
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        #: messages sent, by type, in the order each type was first sent
        self.sent_by_type: dict[str, int] = {}
        #: messages dropped, by reason
        self.dropped_by: dict[str, int] = {}
        # write send / deliver / drop trace rows (read once, here)
        self._message_rows = tracer.messages
        # connectivity-epoch cache (see module docstring): the epoch
        # counts connectivity/liveness changes; _sendable maps a source
        # to the frozenset of sites in its component under the current
        # epoch.
        #: the connectivity epoch (bumps on partition, heal, crash,
        #: recover and register): a plain attribute, so the engines read
        #: it without a call; only this class moves it
        self.epoch = 0
        self._sendable: dict[int, frozenset[int]] = {}
        # interned partition views, keyed by normalized group signature
        # (None = the healed view); cleared when the universe changes.
        self._view_cache: dict[tuple[tuple[int, ...], ...] | None, PartitionView] = {}

    # ------------------------------------------------------------------
    # registration and topology
    # ------------------------------------------------------------------

    def register(self, node: "Node") -> None:
        """Add a node to the universe (one epoch bump per call).

        An active partition is preserved: the existing components stay
        exactly as they are and the new node starts as a singleton
        component (a site joining mid-partition cannot conjure links to
        anyone — use :meth:`place_with` to land it in a component).  On
        a healed network the node simply joins the universal component,
        whose view is built on first use.
        """
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        groups = self._partitioned_groups()
        self._nodes[node.node_id] = node
        # unlisted sites become singletons, so the new node lands alone
        self._universe_changed(groups)

    def deregister(self, site: int) -> None:
        """Remove a node from the universe (graceful leave, not a crash).

        The departing site keeps its durable state and is excised from
        its partition component (empty components vanish; a healed
        network stays healed over the survivors).  Messages still in
        flight to it drop as ``departed-in-flight`` — a reason distinct
        from every crash-path reason, so counters tell a leave from a
        failure.  Lossy-link entries and any degradation overlay
        touching the site are cleaned up with it.
        """
        if site not in self._nodes:
            raise ValueError(f"unknown site {site}")
        groups = self._partitioned_groups()
        if groups is not None:
            groups = tuple(
                kept
                for members in groups
                if (kept := tuple(s for s in members if s != site))
            )
        del self._nodes[site]
        self._universe_changed(groups)
        self._degraded.pop(site, None)
        stale = [pair for pair in self._link_loss if site in pair]
        for pair in stale:
            del self._link_loss[pair]
        self._tracer.record(self._scheduler.now, site, "leave")

    def place_with(self, site: int, near: int) -> None:
        """Move ``site`` into ``near``'s partition component.

        The elastic-membership hook: a site joining mid-partition is
        registered as a singleton, then placed into the component it is
        physically wired to.  A no-op when the two already share a
        component (in particular on a healed network).
        """
        view = self.partition
        component = view.component_of(near)  # raises on unknown near
        if site in component:
            return
        view.component_of(site)  # raises on unknown site
        groups = []
        for members in view.sorted_components():
            kept = [s for s in members if s != site]
            if near in members:
                kept.append(site)
            if kept:
                groups.append(tuple(kept))
        self._view = self._interned_view(tuple(groups))
        self._bump_epoch()
        self._tracer.record(
            self._scheduler.now, GLOBAL_SITE, "place", moved=site, near=near
        )

    def close(self) -> None:
        """Forget every node, observer and filter (the network is done).

        Part of :meth:`Cluster.close <repro.db.cluster.Cluster.close>`:
        the node table is one half of the node <-> network cycle,
        observers and filters are callbacks that may hold anything.
        Counters and the last connectivity view stay readable.
        """
        self._nodes.clear()
        self._observers.clear()
        self._filters.clear()

    def _bump_epoch(self) -> None:
        """Invalidate the reachable-peer cache after a connectivity change."""
        self.epoch += 1
        self._sendable.clear()

    def _partitioned_groups(self) -> tuple[tuple[int, ...], ...] | None:
        """The active partition's components (``None`` when healed)."""
        view = self._view
        if view is None or not view.is_partitioned:
            return None
        return tuple(tuple(c) for c in view.sorted_components())

    def _universe_changed(self, groups: Sequence[Sequence[int]] | None) -> None:
        """The site set changed: re-anchor the view on the new universe.

        Interned views are universe-specific, so the cache goes.  A
        partition's ``groups`` are rebuilt over the new universe at
        once (sites in no group become singletons); a healed network
        only marks its view stale.
        """
        self._view_cache.clear()
        self._view = None if groups is None else self._interned_view(groups)
        self._bump_epoch()

    def _interned_view(self, groups: Sequence[Sequence[int]] | None) -> PartitionView:
        """The interned partition view for ``groups``.

        ``None`` means fully connected (the healed view).  The key is
        the group layout verbatim — an equivalent layout written in a
        different order is a harmless cache miss, and validation of a
        *new* layout still happens inside the ``PartitionView``
        constructor on first sight.
        """
        # tuple() is identity on tuples, so pre-normalized plans
        # (FailureInjector actions) build their key without re-copying
        # any group.
        key = None if groups is None else tuple(map(tuple, groups))
        view = self._view_cache.get(key)
        if view is None:
            view = self._view_cache[key] = PartitionView(self._nodes, groups)
        return view

    @property
    def scheduler(self) -> "Scheduler":
        """The scheduler this network runs on."""
        return self._scheduler

    @property
    def tracer(self) -> "Tracer":
        """The run's trace recorder."""
        return self._tracer

    @property
    def T(self) -> float:
        """Longest end-to-end propagation delay (paper's ``T``)."""
        return self._delay_model.max_delay

    @property
    def sites(self) -> list[int]:
        """All registered site ids, sorted."""
        return sorted(self._nodes)

    def node(self, site: int) -> "Node":
        """The node object for ``site``."""
        return self._nodes[site]

    @property
    def partition(self) -> PartitionView:
        """Current connectivity view (a stale healed view is built here)."""
        view = self._view
        if view is None:
            view = self._view = self._interned_view(None)
        return view

    @property
    def healed(self) -> bool:
        """No partition, no lossy link and no message filter: the fault
        model loses nothing between two live sites."""
        return not self.partition.is_partitioned and not self._link_loss and not self._filters

    def active_sites(self, among: Iterable[int] | None = None) -> list[int]:
        """Sites that are currently up (optionally restricted to ``among``)."""
        pool = self._nodes if among is None else among
        return sorted(s for s in pool if s in self._nodes and self._nodes[s].alive)

    def reachable_from(self, src: int, among: Iterable[int] | None = None) -> list[int]:
        """Active sites in ``src``'s component (optionally within ``among``).

        Includes ``src`` itself when alive.  This is the population a
        newly elected coordinator can poll in phase 1 of a termination
        protocol.

        Raises:
            ValueError: ``src`` is not a registered site.
        """
        nodes = self._nodes
        if src not in nodes:
            raise ValueError(f"unknown site {src}")
        live = [s for s in (nodes if among is None else among) if s in nodes and nodes[s].alive]
        if not live:
            return live
        # one component lookup per call, not one reachable() per site
        component = self.partition.component_of(src)
        return sorted(s for s in live if s in component)

    def live_peers(self, src: int) -> LivePeers:
        """The live sites ``src`` can reach now, as a membership test.

        ``site in network.live_peers(src)`` agrees with ``site in
        network.reachable_from(src)``, but the component comes from the
        per-epoch reachable-peer cache :meth:`fanout` keeps, and
        nothing is sorted.

        Raises:
            ValueError: ``src`` is not a registered site.
        """
        peers = self._sendable.get(src)
        if peers is None:
            peers = self._sendable[src] = self.partition.component_of(src)
        return LivePeers(peers, self._nodes)

    # ------------------------------------------------------------------
    # fault control (called by the FailureInjector and by tests)
    # ------------------------------------------------------------------

    def subscribe(self, observer: Callable[[str], None]) -> None:
        """Register a connectivity-change observer.

        Observers fire after every partition / heal / recovery event,
        and after a slow site is restored or a link's loss lowered, with
        the event name.  The database cluster uses this to re-kick
        termination for transactions that blocked in an earlier
        connectivity epoch — the paper's "wait for the failures to
        recover" made operational — and, on a ``"restore"``, to retry
        the ones blocked while the site was slow or the link lossy.
        """
        self._observers.append(observer)

    def _notify(self, event: str) -> None:
        for observer in self._observers:
            observer(event)

    def crash_site(self, site: int) -> None:
        """Crash a node: volatile state lost, timers cancelled."""
        self._nodes[site].crash()
        self._bump_epoch()
        self._tracer.record(self._scheduler.now, site, "crash")

    def recover_site(self, site: int) -> None:
        """Recover a node from its durable state."""
        self._nodes[site].recover()
        self._bump_epoch()
        self._tracer.record(self._scheduler.now, site, "recover")
        self._notify("recover")

    def set_partition(self, groups: Sequence[Sequence[int]]) -> None:
        """Split the network into the given disjoint components."""
        view = self._view = self._interned_view(groups)
        self._bump_epoch()
        self._tracer.record(
            self._scheduler.now,
            GLOBAL_SITE,
            "partition",
            groups=view.sorted_components(),
        )
        self._notify("partition")

    def heal(self) -> None:
        """Restore full connectivity (and clear per-link loss)."""
        self._view = self._interned_view(None)
        self._link_loss.clear()
        self._bump_epoch()
        self._tracer.record(self._scheduler.now, GLOBAL_SITE, "heal")
        self._notify("heal")

    def degrade_site(self, site: int, factor: float) -> None:
        """Stretch every message delay to/from ``site`` by ``factor``.

        The gray slow-site fault: the site stays alive, keeps voting and
        keeps its timers — only its wire latency stretches.  Factors do
        not stack; a second call replaces the first.  ``factor=1.0`` is
        an exact no-op (the overlay entry is removed, so the hot paths
        never even multiply).
        """
        if site not in self._nodes:
            raise ValueError(f"unknown site {site}")
        if factor <= 0.0:
            raise ValueError(f"degradation factor must be positive, got {factor}")
        if factor == 1.0:
            self._degraded.pop(site, None)
        else:
            self._degraded[site] = factor
        self._tracer.record(self._scheduler.now, site, "degrade", factor=factor)

    def restore_site(self, site: int) -> None:
        """Remove ``site``'s latency-degradation overlay (if any), and
        tell the observers (a ``"restore"`` event)."""
        if site not in self._nodes:
            raise ValueError(f"unknown site {site}")
        self._degraded.pop(site, None)
        self._tracer.record(self._scheduler.now, site, "restore")
        self._notify("restore")

    def set_link_loss(self, src: int, dst: int, p: float) -> None:
        """Set the drop probability of the directed link ``src -> dst``.

        Lowering it is a repair, as restoring a slow site is: the
        observers hear a ``"restore"`` event, so a flapping link's heal
        retries what its cut blocked."""
        for site in (src, dst):
            if site not in self._nodes:
                raise ValueError(f"unknown site {site}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability {p} outside [0, 1]")
        before = self._link_loss.get((src, dst), 0.0)
        if p == 0.0:
            self._link_loss.pop((src, dst), None)
        else:
            self._link_loss[(src, dst)] = p
        if p < before:
            self._notify("restore")

    def add_filter(self, pred: Callable[[Message], bool]) -> None:
        """Install a message filter; messages with ``pred(msg) == True`` drop.

        Filters are the scalpel for counterexample scenarios ("lose every
        message from site2 to site5 of type X"); random loss is the
        blunt instrument for sweeps.
        """
        self._filters.append(pred)

    def clear_filters(self) -> None:
        """Remove all installed message filters."""
        self._filters.clear()

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------

    def send(self, msg: Message) -> None:
        """Transmit ``msg``: a fan-out to its one destination.

        :meth:`fanout` judges it and builds the message that travels
        (so ``msg`` itself is not the object delivered).
        """
        self.fanout(msg.src, (msg.dst,), msg.mtype, msg.txn, msg.payload)

    def fanout(
        self,
        src: int,
        dsts: Iterable[int],
        mtype: str,
        txn: str = "",
        payload: dict | None = None,
    ) -> None:
        """Transmit one message per destination, subject to the fault model.

        The one body that judges a send: :meth:`send`, :meth:`Node.send
        <repro.net.node.Node.send>`, :meth:`Node.broadcast
        <repro.net.node.Node.broadcast>` and :meth:`Node.multicast
        <repro.net.node.Node.multicast>` all come here, and the
        protocol engines route vote requests, PREPAREs, decisions and
        termination polls through it.  Each destination gets its own
        :class:`~repro.net.message.Message` with its own ``msg_id``,
        dropped (counted by reason) when the destination is unknown,
        the sender is down, a filter matches, the link loses it, or the
        partition separates the pair at send time — checked in that
        order, destination by destination, so the loss RNG is drawn
        exactly as a loop of single sends draws it.  It is dropped
        again at delivery time if the destination crashed or left, or
        the partition changed, while it was in flight.  The
        sender-liveness check, the reachable-peer set and the virtual
        clock are read once per call — no events run between the
        per-destination sends, so none of them can change mid-loop.
        The payload dict is shared across the fan-out — messages are
        immutable by contract.  The call adds the destinations it
        handled to :attr:`sent` and to ``mtype``'s :attr:`sent_by_type`
        count, and writes one ``send`` row per destination only when the
        tracer keeps message rows.
        """
        payload = payload if payload is not None else {}
        nodes = self._nodes
        rows = self._message_rows
        record_send = self._tracer.record_send
        sched = self._scheduler
        drop = self._drop
        src_node = nodes.get(src)
        src_down = src_node is not None and not src_node.alive
        filters = self._filters
        link_loss = self._link_loss
        peers = self._sendable.get(src)
        sample = self._delay_model.sample
        rng = self._rng
        degraded = self._degraded
        epoch = self.epoch
        deliver = self._deliver
        now = sched.now
        sent = 0
        for dst in dsts:
            sent += 1
            if rows:
                record_send(now, src, txn, mtype, dst)
            msg = Message(src, dst, mtype, txn, payload)
            dst_node = nodes.get(dst)
            if dst_node is None:
                drop(msg, "unknown-destination")
                continue
            if src_down:
                drop(msg, "sender-down")
                continue
            if filters and any(pred(msg) for pred in filters):
                drop(msg, "filtered")
                continue
            if link_loss:
                p = link_loss.get((src, dst))
                if p is not None and (p >= 1.0 or rng.random() < p):
                    drop(msg, "link-loss")
                    continue
            if peers is None:
                # component_of raises on an unknown source
                peers = self._sendable[src] = self.partition.component_of(src)
            if dst not in peers:
                drop(msg, "partitioned")
                continue
            # a local message has no propagation delay, but is still a
            # separate scheduler event so handlers never re-enter each other
            delay = 0.0 if src == dst else sample(rng, src, dst)
            if degraded and delay:
                delay *= degraded.get(src, 1.0) * degraded.get(dst, 1.0)
            # deliveries are never cancelled, so no EventHandle is needed; a
            # destination down now must be re-checked on arrival (-1 is no epoch)
            sched.call_fixed(now + delay, deliver, dst_node, msg, epoch if dst_node.alive else -1)
        if sent:
            self.sent += sent
            by_type = self.sent_by_type
            by_type[mtype] = by_type.get(mtype, 0) + sent

    def _deliver(self, node: "Node", msg: Message, epoch: int) -> None:
        """Deliver ``msg`` to ``node``, the destination it was sent to.

        While the connectivity epoch is still the send's and the node
        is up, nothing can have changed since the send-time checks.
        Otherwise — an epoch change in flight, a destination down at
        send time, or one that died through a side door that bypassed
        :meth:`crash_site` — the destination and the partition are
        checked again, so drop reasons stay exact.
        """
        if epoch != self.epoch or not node.alive:
            node = self._nodes.get(msg.dst)
            if node is None:
                # destination deregistered (graceful leave) while in flight
                self._drop(msg, "departed-in-flight")
                return
            if not node.alive:
                self._drop(msg, "destination-down")
                return
            # a departed *sender* has no component in the current view;
            # its in-flight tail delivers like a crashed sender's would
            # (leave must never be harsher than crash)
            if msg.src in self._nodes and not self.partition.reachable(msg.src, msg.dst):
                self._drop(msg, "partitioned-in-flight")
                return
        self.delivered += 1
        if self._message_rows:
            self._tracer.record_deliver(self._scheduler.now, msg.dst, msg.txn, msg.mtype, msg.src)
        node.deliver(msg)

    def _drop(self, msg: Message, reason: str) -> None:
        self.dropped += 1
        by_reason = self.dropped_by
        by_reason[reason] = by_reason.get(reason, 0) + 1
        if self._message_rows:
            self._tracer.record_drop(self._scheduler.now, msg.src, msg.txn, msg.mtype, msg.dst, reason)
