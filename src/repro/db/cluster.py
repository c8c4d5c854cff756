"""The cluster facade — a whole distributed database in one object.

:class:`Cluster` wires together every substrate for one simulation run:
scheduler, tracer, RNG, network, sites (storage + locks + protocol
engine), failure injection, and the analysis hooks.  All examples,
tests and benchmarks drive the system through this class.

Protocol selection is by name:

=========  ==============================================  ===========
name       protocol                                        termination
=========  ==============================================  ===========
``2pc``    two-phase commit (Fig. 1)                       cooperative
``3pc``    three-phase commit (Fig. 2)                     Skeen [15]
``skq``    Skeen's site-quorum protocol [16]               site votes
``qtp1``   the paper's commit protocol 1 (Fig. 9)          Fig. 5
``qtp2``   the paper's commit protocol 2 (Fig. 9)          Fig. 8
``qtpp``   the §5 primary-copy commit protocol             Fig. 5 (§5)
=========  ==============================================  ===========
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Container, Iterable, Mapping, NamedTuple

from repro.analysis.availability import AvailabilityReport, availability_snapshot
from repro.analysis.consistency import ConsistencyReport, check_atomicity, read_decisions
from repro.common.errors import ConfigurationError, QuorumUnreachableError, SiteDownError
from repro.concurrency.serializability import CommittedTxn
from repro.common.ids import make_txn_id
from repro.db.site import EngineFactory, Site
from repro.db.transactions import InteractiveTransaction
from repro.db.txn import TxnHandle
from repro.net.delays import DelayModel
from repro.net.network import Network
from repro.protocols.base import CommitProtocolEngine
from repro.protocols.qtp.commit import QuorumCommitEngine
from repro.protocols.qtp.generalized import PrimaryTerminationRule
from repro.protocols.qtp.quorums import TerminationRule1, TerminationRule2
from repro.protocols.skeen import SkeenQuorumRule
from repro.protocols.threepc import ThreePCEngine, ThreePCTerminationRule
from repro.protocols.twopc import CooperativeTerminationRule, TwoPCEngine
from repro.replication.accessor import QuorumPlanner, ReadResult
from repro.replication.catalog import ReplicaCatalog
from repro.replication.missing_writes import MissingWritesTracker
from repro.sim.failures import FailureInjector, FailurePlan, JoinSite, LeaveSite
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer

#: protocol name -> engine class, and the termination rule built from
#: the cluster's explicit commit / abort quorums and number of sites (a
#: rule holds no per-site or per-epoch state: one serves every engine,
#: joiners too).  Only skq reads them: explicit quorums pin Vc/Va
#: globally (the paper's Example 1 setup); otherwise they adapt per
#: transaction to its participants.
_PROTOCOLS = {
    "2pc": (TwoPCEngine, lambda vc, va, n_sites: CooperativeTerminationRule()),
    "3pc": (ThreePCEngine, lambda vc, va, n_sites: ThreePCTerminationRule()),
    "skq": (CommitProtocolEngine, SkeenQuorumRule),
    "qtp1": (QuorumCommitEngine, lambda vc, va, n_sites: TerminationRule1()),
    "qtp2": (QuorumCommitEngine, lambda vc, va, n_sites: TerminationRule2()),
    "qtpp": (QuorumCommitEngine, lambda vc, va, n_sites: PrimaryTerminationRule()),
}

PROTOCOL_NAMES = tuple(_PROTOCOLS)


class RunVerdicts(NamedTuple):
    """A finished run's verdicts (:meth:`Cluster.verdicts`)."""

    outcomes: dict[str, str]
    history: list[CommittedTxn]
    in_doubt: dict[str, list[int]]


def _weakly(method: Callable[..., None]) -> Callable[..., None]:
    """``method`` of a cluster, callable without keeping the cluster alive.

    What a cluster owns must not point back at it (see :class:`Cluster`):
    the network's observer table, the failure injector and the scheduler
    queue get this instead of the bound method.  Only cold paths go
    through it — connectivity changes and membership actions.
    """
    ref = weakref.WeakMethod(method)

    def call(*args: Any) -> None:
        bound = ref()
        if bound is None:
            raise ReferenceError("the cluster this callback belonged to is gone")
        bound(*args)

    return call


class Cluster:
    """A simulated distributed database running one commit protocol.

    Building one costs O(sites + copies) and builds no commit engine:
    the site -> hosted-items placement is computed once from the
    catalog, every site registers on the network in O(1) with its WAL,
    store and lock table, and a site's engine — with the termination
    rule every engine shares — is built by the cluster's
    :class:`~repro.db.site.EngineFactory` on the site's first delivery
    or when it first coordinates; no message handler is bound before its
    first delivery either.  A run pays for the sites and message types
    it touches, not for the installation's size: a 32-site WAN storm
    reaches about eight of its sites, and its cluster builds in about
    three quarters of the time it took with every engine built (less
    still with the cyclic collector running: 32 engines and their hooks
    were 64 of the 476 objects a fresh cluster gave it to track then).
    A site allocates only what every site needs (see
    :mod:`repro.db.site`): a fresh 32-site cluster now gives the
    collector 300 objects to track, not 411, and raises its
    generation-0 allocation count by 422, not 726 — under the 700 that
    sets off a collection, so building a storm's cluster no longer does
    by itself (CPython 3.11-3.12; 3.13's threshold is 2 000).

    **Ownership.**  A cluster owns its scheduler, network, sites and
    engines; they do not outlive it — keep the cluster if you keep a
    site.  Ownership points down only: nothing a cluster owns holds a
    strong reference back to it (the network's connectivity observer,
    the injector's membership handler and the leave-drain poll reach it
    through a weak reference), while the cycles the hot path needs stay
    strong (node <-> network, site <-> engine <-> hooks, handler and
    timer tables -> engine methods).  :meth:`close` cuts those in one
    place and runs by itself when the last outside reference drops, so
    a finished installation falls by reference count, at once, and the
    cyclic collector has nothing of it to find.  The one way to defeat
    this is a callback of your own, left on the scheduler queue, that
    refers to the cluster (a driver cut short mid-run): that cluster
    waits for the collector, or for an explicit :meth:`close`.

    Measured on the end-to-end benchmark, one pass each, before -> after
    clusters died by reference count (and ``import repro`` stopped
    loading a graph library for one acyclicity test):

    ===========================  ================  ================  ===============
    per pass                     wan_termination   closed_heavy      open_service
    ===========================  ================  ================  ===============
    collector share of the pass  20.6% -> 7.1%     14.2% -> 6.3%     11.3% -> 4.6%
    collections, gen 0/1/2       913/83/7 ->       550/49/4 ->       592/53/4 ->
                                 485/44/4          477/43/3          459/41/3
    objects it reclaims          563 843 -> 0      181 927 -> 0      158 241 -> 0
    one cluster dropped: freed   22 of 1 124 ->    6 of 56 271 ->
    by reference count           958 of 958        53 942 of 53 942
    ===========================  ================  ================  ===============

    ``import repro``: 0.19 s -> 0.09 s, collector-tracked objects at
    rest 34 954 -> 12 225.

    A live cluster gives the collector less to walk once a decided
    transaction keeps only its durable state (no timer table, no copied
    participant list, no done round's tallies, no trace key per
    ``(category, txn)``, no event handle per closed-loop arrival).  Seed
    1, full scale, Python 3.11.7 (shares: the mean of two passes),
    before -> after:

    ===========================  ================  ================  ===============
    per pass                     wan_termination   closed_heavy      open_service
    ===========================  ================  ================  ===============
    collections, gen 0/1/2       457/41/3 ->       165/15/1 ->       202/18/1 ->
                                 456/41/3          110/10/0          144/13/1
    collector share of the pass  9.3% -> 8.9%      5.5% -> 3.8%      4.7% -> 4.0%
    ===========================  ================  ================  ===============

    Once a site allocates only what it uses, a 32-site build stays under
    the generation-0 threshold.  Seed 0, full scale, Python 3.11.7 (the
    collector's time read from ``gc.callbacks``; the mean of two passes),
    before -> after:

    ===========================  ================  ================  ===============
    per pass                     wan_termination   closed_heavy      open_service
    ===========================  ================  ================  ===============
    collections, gen 0/1/2       456/41/3 ->       115/10/0 ->       149/13/1 ->
                                 94/8/0            114/10/0          153/13/1
    collector share of the pass  9.1% -> 1.4%      3.6% -> 3.8%      4.1% -> 4.1%
    ===========================  ================  ================  ===============

    ``open_service``'s few extra collections are the copies its writes
    replace: a replaced per-copy value used to be freed, lowering the
    allocation count, and the shared initial value never is.
    """

    #: nothing to release until ``__init__`` has built the owned parts
    _closed = True

    def __init__(
        self,
        catalog: ReplicaCatalog,
        protocol: str = "qtp1",
        seed: int = 0,
        delay_model: DelayModel | None = None,
        extra_sites: Iterable[int] = (),
        commit_quorum: int | None = None,
        abort_quorum: int | None = None,
        enforce_ignore_rules: bool = True,
        message_rows: bool = False,
    ) -> None:
        """Build a cluster.

        Args:
            catalog: replica placement, quorum sizes and primaries — the
                first membership epoch.
            protocol: one of :data:`PROTOCOL_NAMES` (``qtpp`` is the §5
                generalization over the primary-copy strategy; it reads
                each item's primary from the catalog).
            seed: run seed (drives delays, loss, workload randomness).
            delay_model: message latency model; default FixedDelay(1).
            extra_sites: sites hosting no copies (pure coordinators).
            commit_quorum: for ``skq`` (one vote per site): explicit Vc
                (default: adaptive majority over each transaction's
                participants).
            abort_quorum: for ``skq``: explicit Va.
            enforce_ignore_rules: pass False only to reproduce
                Example 3's broken variant.
            message_rows: keep a ``send`` / ``deliver`` / ``drop`` trace
                row per message (a message-sequence chart, or a test
                that reads the wire row by row, needs them).  Off, the
                trace keeps every protocol fact and the network counts
                the wire (:meth:`message_counts`,
                ``network.dropped_by``); a query that names a message
                category then raises
                :class:`~repro.common.errors.MessageRowsOffError`.
        """
        if protocol not in PROTOCOL_NAMES:
            raise ConfigurationError(
                f"unknown protocol {protocol!r}; choose from {PROTOCOL_NAMES}"
            )
        #: the current placement (a join or a leave swaps in the next),
        #: its quorum planner, and every placement so far by epoch: a
        #: transaction keeps its own
        self.catalog = catalog
        self.planner = QuorumPlanner(catalog)
        self.epochs: dict[int, ReplicaCatalog] = {catalog.epoch: catalog}
        self.protocol = protocol
        self.scheduler = Scheduler()
        self.tracer = Tracer(messages=message_rows)
        self.rng = RngRegistry(seed)
        self.network = Network(self.scheduler, self.tracer, self.rng, delay_model)
        self.sites: dict[int, Site] = {}
        #: sites that left gracefully (kept for post-run inspection —
        #: their WALs and stores survive the decommission by design).
        self.departed: dict[int, Site] = {}
        #: sites that began a graceful leave and are still draining:
        #: they no longer count towards skq's site total
        self._draining: set[int] = set()
        self._closed = False  # from here on close() has something to release
        hosted = catalog.items_by_site()
        site_ids = sorted(hosted.keys() | set(extra_sites))
        engine_cls, build_rule = _PROTOCOLS[protocol]
        rule = build_rule(commit_quorum, abort_quorum, len(site_ids))
        self._engines = EngineFactory(protocol, engine_cls, rule, catalog, self.epochs, enforce_ignore_rules)
        for site_id in site_ids:
            self.sites[site_id] = Site(site_id, self.network, hosted.get(site_id, ()), self._engines)
        self.injector = FailureInjector(
            self.scheduler, self.network, membership=_weakly(self._apply_membership)
        )
        self.network.subscribe(_weakly(self._on_connectivity_change))
        self._txns: dict[str, TxnHandle] = {}
        self._read_footprints: dict[str, dict[str, int]] = {}
        self._readonly_committed: list[CommittedTxn] = []
        self.missing_writes = MissingWritesTracker()
        self._counter = 0

    def close(self) -> None:
        """Release the installation: cut every cycle the run needed.

        Empties the scheduler queue, the network's node, observer and
        filter tables and each site's handler table, late-binding owner,
        timer list and engine link; everything the cluster owned then
        falls by reference count.  Runs by itself when the last outside
        reference to the cluster drops, so no driver has to call it;
        idempotent, and safe on a cluster whose construction failed.
        Afterwards only durable state (WALs, stores, the trace, the
        network counters) is left to read.
        """
        if self._closed:
            return
        self._closed = True
        for site in (*self.sites.values(), *self.departed.values()):
            site.close()
        self.network.close()
        self.scheduler.clear()

    __del__ = close

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------

    def update(
        self,
        origin: int,
        writes: Mapping[str, Any],
        txn_id: str | None = None,
    ) -> TxnHandle:
        """Submit an update transaction and start its commit procedure.

        A write-only :meth:`transaction`: each item of ``writes`` is
        staged with :meth:`InteractiveTransaction.write
        <repro.db.transactions.InteractiveTransaction.write>` and the
        transaction submitted, so an update takes the one write path
        an interactive transaction takes.  Gifford semantics: the
        participants are the *reachable* hosts of the writeset copies,
        and they must muster ``w(x)`` votes for every written item
        (unreachable copies go stale; version numbers mask them at read
        time).  New version numbers are resolved from the reachable
        copies (max observed + 1).  The commit protocol then runs
        asynchronously — call :meth:`run` to let it play out and
        :meth:`outcome` / :meth:`states` to inspect the result.

        Raises:
            QuorumUnreachableError: the origin's partition lacks a
                write quorum for some written item.
            SiteDownError: the origin is down (crashed, or left);
                nothing was registered or logged.
        """
        txn = self.transaction(origin, txn_id)
        site = self.sites.get(origin)
        if site is None or not site.alive:
            raise SiteDownError(f"site {origin} is down")
        for item, value in writes.items():
            txn.write(item, value)
        return txn.submit()

    def write_target(
        self, planner: QuorumPlanner, live: Container[int], item: str, base: int | None = None
    ) -> tuple[list[int], int]:
        """Where a write of ``item`` goes, and the version it installs.

        The one write-quorum rule, applied by
        :meth:`InteractiveTransaction.submit
        <repro.db.transactions.InteractiveTransaction.submit>` (and so
        by :meth:`update`): the write goes to every copy in ``live`` (in
        ranked order), which must muster ``w(x)`` votes, and installs
        one past ``base`` — the version the transaction read — or, when
        it read none, one past the newest of those copies.

        Raises:
            QuorumUnreachableError: ``live`` lacks ``w(x)`` votes.
        """
        hosts = planner.write_hosts(item, live)
        if base is None:
            sites = self.sites
            return hosts, QuorumPlanner.next_version(sites[s].store.read(item).version for s in hosts)
        return hosts, base + 1

    def admit(self, catalog: ReplicaCatalog, items: list[str], participants: list[int]) -> None:
        """The commit-quorum rule of submission: a transaction writing
        ``items`` is admitted only if its ``participants`` pass the
        cluster's termination rule
        (:meth:`TerminationRule.admits
        <repro.protocols.base.TerminationRule.admits>`) — under qtp2,
        ``r(x)`` votes of some written item; under qtpp, every written
        item's primary (§5: only the primary's partition may write it).
        Applied by :meth:`InteractiveTransaction.submit
        <repro.db.transactions.InteractiveTransaction.submit>`.

        Raises:
            QuorumUnreachableError: the transaction could never commit.
        """
        rule = self._engines.rule
        if not rule.admits(items, participants, catalog):
            raise QuorumUnreachableError(", ".join(items), f"{rule.name} commit", 0, 1)

    def transaction(self, origin: int, txn_id: str | None = None) -> "InteractiveTransaction":
        """Open an interactive transaction (quorum reads + staged writes).

        Every call takes the next ordinal of this cluster's counter,
        whether or not ``txn_id`` names the transaction; without one the
        id is built from the origin and that ordinal, so identically
        seeded runs produce identical transaction ids (the experiment
        harness compares runs by id).  See
        :class:`repro.db.transactions.InteractiveTransaction`.
        """
        self._counter += 1
        return InteractiveTransaction(self, origin, txn_id or make_txn_id(origin, self._counter))

    @property
    def submitted(self) -> Mapping[str, TxnHandle]:
        """Every transaction handed to the commit protocol, by id, in
        submission order (a live view: read it, do not mutate it)."""
        return self._txns

    def register_submitted(self, handle: TxnHandle, reads: Mapping[str, int]) -> None:
        """Record a submitted transaction and its read footprint (a
        write-only one, as every :meth:`update` is, has none to keep)."""
        self._txns[handle.txn] = handle
        if reads:
            self._read_footprints[handle.txn] = dict(reads)

    def record_footprint(self, txn: str, reads: Mapping[str, int], writes: Mapping[str, int]) -> None:
        """Record a read-only transaction that committed client-side."""
        self._readonly_committed.append(CommittedTxn(txn, dict(reads), dict(writes)))

    def verdicts(self) -> RunVerdicts:
        """From one read of the run's decision rows
        (:func:`~repro.analysis.consistency.read_decisions`): every
        submitted transaction's outcome (:meth:`outcomes`), the
        committed history (:meth:`committed_history`) and, for each
        transaction that has any, its live participants still in doubt
        (:meth:`live_undecided`)."""
        txns = self._txns
        outcomes, undecided = read_decisions(self.tracer, {txn: h.participants for txn, h in txns.items()})
        history = list(self._readonly_committed)
        for txn, outcome in outcomes.items():
            if outcome == "commit" or outcome == "mixed":
                writes = {item: version for item, (__, version) in txns[txn].writes.items()}
                history.append(CommittedTxn(txn, dict(self._read_footprints.get(txn, {})), writes))
        in_doubt = {txn: live for txn, sites in undecided.items() if (live := self._in_doubt(txn, sites))}
        return RunVerdicts(outcomes, history, in_doubt)

    def committed_history(self) -> list[CommittedTxn]:
        """The committed footprints, for 1SR checking: the read-only ones,
        then each submitted one some participant decided to commit."""
        return self.verdicts().history

    def read(self, origin: int, item: str) -> ReadResult:
        """Quorum-read an item from the origin's partition.

        Copies locked by undecided transactions are unusable (factor 1
        of the paper's availability analysis); the remaining reachable
        copies must muster ``r(x)`` votes (factor 2).

        Raises:
            QuorumUnreachableError: when the origin's partition cannot
                assemble a read quorum of unlocked copies.
        """
        planner = self.planner
        blocked = self.blocked_map()
        hosting = self.network.reachable_from(origin, planner.catalog.sites_of(item))
        usable = [
            s
            for s in hosting
            if not self.sites[s].locks.is_locked(item, blocked.get(s, set()))
        ]
        quorum = planner.plan_read(item, usable)
        replies = {s: self.sites[s].store.read(item) for s in quorum}
        return planner.resolve_read(item, replies)

    # ------------------------------------------------------------------
    # missing-writes adaptation (Eager & Sevcik [5]; cited in paper §2)
    # ------------------------------------------------------------------

    def sync_missing_writes(self) -> None:
        """Refresh the missing-writes bookkeeping from copy versions.

        The real scheme piggybacks missing-write lists on transactions;
        here an oracle pass compares each copy's version against the
        item's newest installed version — equivalent information,
        obtained from the simulator's global view.  Call after running
        the simulation and before :meth:`fast_read`.
        """
        for item in self.catalog.item_names:
            hosts = self.catalog.sites_of(item)
            versions = {s: self.sites[s].store.read(item).version for s in hosts}
            newest = max(versions.values())
            for site, version in versions.items():
                if version < newest:
                    # the copy missed every write up to `newest`
                    self.missing_writes.record_write(item, newest, [site], [])
                else:
                    self.missing_writes.record_repair(item, site, newest)

    def fast_read(self, origin: int, item: str) -> tuple[Any, int]:
        """Read with the missing-writes fast path.

        Returns ``(value, copies_consulted)``.  While no copy of the
        item has missing writes, *any single copy* is current and one
        suffices (``copies_consulted == 1``); otherwise this falls back
        to a full quorum read.  The benchmark for experiment E15
        measures the saving.
        """
        if self.missing_writes.read_one_allowed(item):
            hosting = self.network.reachable_from(origin, self.catalog.sites_of(item))
            blocked = self.blocked_map()
            for site in hosting:
                if not self.sites[site].locks.is_locked(item, blocked.get(site, set())):
                    return self.sites[site].store.read(item).value, 1
            raise QuorumUnreachableError(item, "read", 0, 1)
        result = self.read(origin, item)
        return result.value, len(result.quorum)

    def repair(self, item: str) -> int:
        """Bring stale reachable copies current (read-repair).

        Returns the number of copies refreshed.  Clearing the last
        stale copy re-enables the read-one fast path for the item.
        """
        hosts = self.catalog.sites_of(item)
        live = [s for s in hosts if self.sites[s].alive]
        if not live:
            return 0
        newest_site = max(live, key=lambda s: self.sites[s].store.read(item).version)
        newest = self.sites[newest_site].store.read(item)
        refreshed = 0
        for site in live:
            copy = self.sites[site].store.read(item)
            if copy.version < newest.version:
                self.sites[site].store.write(item, newest.value, newest.version)
                refreshed += 1
            self.missing_writes.record_repair(item, site, newest.version)
        return refreshed

    # ------------------------------------------------------------------
    # simulation control
    # ------------------------------------------------------------------

    def run(self) -> float:
        """Run the simulation to quiescence; returns final virtual time."""
        return self.scheduler.run()

    def run_until(self, deadline: float) -> float:
        """Run the simulation up to a virtual-time deadline."""
        return self.scheduler.run_until(deadline)

    def arm_failures(self, plan: FailurePlan) -> None:
        """Schedule a failure plan for this run."""
        self.injector.arm(plan)

    def _on_connectivity_change(self, event: str) -> None:
        # a storm changes connectivity under 32 engines of which a
        # handful hold an undecided transaction; the rest have nothing
        # to re-arm
        for site in self.sites.values():
            if site.alive and site.engine is not None and site.engine.undecided:
                if event == "restore":
                    site.engine.retry_blocked()
                else:
                    site.engine.kick()

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------

    def join_site(
        self,
        site_id: int,
        copies: Mapping[str, int] | None = None,
        near: int | None = None,
    ) -> Site:
        """Register a brand-new site mid-run (elastic membership).

        Makes the next catalog current — this one plus the site's
        ``copies``, quorums re-derived majority-style (see
        :meth:`ReplicaCatalog.admit_site
        <repro.replication.catalog.ReplicaCatalog.admit_site>`) — then
        builds the full database stack for the site — WAL, replica
        store, lock manager and a protocol engine running this cluster's
        protocol, built on the site's first delivery like every other
        site's — and registers it on the network.  An active partition
        is preserved: the site joins as a singleton component unless
        ``near`` names the site it is wired to, in which case it lands
        in ``near``'s component.

        Joined copies receive a component-local state transfer (the
        newest reachable version; stale start at version 0 otherwise,
        which version masking already handles), so the join never
        *lowers* availability inside its component.  Commit protocols
        need no special case — later transactions simply see a new
        reachable participant with catalog votes, while one in flight
        keeps the quorums of the epoch it started in.

        Raises:
            ConfigurationError: duplicate site id, unknown items, or a
                join the catalog / quorum rule rejects.  A rejected
                join leaves the cluster unchanged.
        """
        if site_id in self.sites:
            raise ConfigurationError(f"site {site_id} already exists")
        if near is not None and near not in self.sites:
            raise ConfigurationError(f"cannot join near unknown site {near}")
        copies = dict(copies or {})
        catalog = self.catalog.admit_site(site_id, copies)
        self._engines.rule.check_total(len(self.sites) - len(self._draining) + 1)
        self._enter_epoch(catalog)
        # registers on the network; its engine is built on first use
        site = Site(site_id, self.network, sorted(copies), self._engines)
        self.sites[site_id] = site
        if near is not None:
            self.network.place_with(site_id, near)
        # component-local state transfer for the joined copies
        for item in sorted(copies):
            reachable = self.network.reachable_from(site_id, catalog.sites_of(item))
            best = None
            for host in reachable:
                if host == site_id:
                    continue
                record = self.sites[host].store.read(item)
                if best is None or record.version > best.version:
                    best = record
            if best is not None and best.version > 0:
                site.store.write(item, best.value, best.version)
        self.tracer.record(
            self.scheduler.now,
            site_id,
            "join",
            copies=sorted(copies),
            component=sorted(self.network.partition.component_of(site_id)),
        )
        return site

    def leave_site(
        self,
        site_id: int,
        drain_interval: float | None = None,
        drain_polls: int = 8,
    ) -> None:
        """Gracefully decommission a site mid-run (the dual of join).

        Three phases, all at virtual time:

        1. **Hand-off** — the next catalog, without the site's copies
           (quorum votes re-derived majority-style over the survivors,
           see :meth:`ReplicaCatalog.evict_site
           <repro.replication.catalog.ReplicaCatalog.evict_site>`),
           becomes current, so no later transaction enlists it; its
           newest versions are pushed to the staler reachable surviving
           hosts first, so the hand-off never loses an installed write
           inside its component.
        2. **Drain** — while the site still acts for some transaction
           (see :meth:`Site.in_flight <repro.db.site.Site.in_flight>`)
           it stays registered (its votes and locks keep serving the
           in-flight commit procedures), re-checked every
           ``drain_interval`` virtual seconds up to ``drain_polls``
           times.  A site that cannot drain in budget (e.g. blocked
           behind a partition) departs anyway, traced ``leave-forced``,
           its timers cancelled.
        3. **Deregister** — the network removes the node (messages in
           flight to it drop as ``departed-in-flight``) and the cluster
           moves it to :attr:`departed`.  Unlike a crash, nothing is
           lost and the trace records ``leave``, never ``crash``.

        Raises:
            ConfigurationError: unknown or crashed site, or an eviction
                the catalog rejects (the site holds some item's only
                copy).  A rejected leave changes nothing.
        """
        if site_id not in self.sites:
            raise ConfigurationError(f"cannot leave unknown site {site_id}")
        site = self.sites[site_id]
        if not site.alive:
            raise ConfigurationError(
                f"site {site_id} is down; a graceful leave needs a live site "
                "(crash/recover is the fail-stop path)"
            )
        catalog, evicted = self.catalog.evict_site(site_id)
        self._enter_epoch(catalog)
        self._draining.add(site_id)
        # push the leaver's newest versions to staler reachable survivors
        for item in sorted(evicted):
            record = site.store.read(item)
            if record.version <= 0:
                continue
            for host in self.network.reachable_from(site_id, catalog.sites_of(item)):
                if host == site_id:
                    continue
                copy = self.sites[host].store.read(item)
                if copy.version < record.version:
                    self.sites[host].store.write(item, record.value, record.version)
        self.tracer.record(
            self.scheduler.now, site_id, "leave-begin", items=sorted(evicted)
        )
        interval = drain_interval if drain_interval is not None else max(self.network.T, 1.0)
        if site.in_flight():
            self._poll_drain_after(site_id, interval, drain_polls - 1)
        else:
            self._finish_leave(site_id, forced=False)

    def _enter_epoch(self, catalog: ReplicaCatalog) -> None:
        """Make ``catalog`` current for the transactions begun from now on."""
        self.catalog = catalog
        self.planner = QuorumPlanner(catalog)
        self.epochs[catalog.epoch] = catalog
        self._engines.catalog = catalog  # for the engines built from now on
        for site in self.sites.values():
            if site.engine is not None:
                site.engine.catalog = catalog

    def _poll_drain_after(self, site_id: int, interval: float, polls_left: int) -> None:
        # the queue entry must not hold the cluster (see _weakly)
        self.scheduler.call_fixed_after(
            interval, _weakly(self._drain_poll), site_id, interval, polls_left
        )

    def _drain_poll(self, site_id: int, interval: float, polls_left: int) -> None:
        """Phase 2 of :meth:`leave_site`: one drain check of the leaver."""
        busy = self.sites[site_id].in_flight()
        if busy and polls_left > 0:
            self._poll_drain_after(site_id, interval, polls_left - 1)
            return
        self._finish_leave(site_id, forced=busy)

    def _finish_leave(self, site_id: int, forced: bool) -> None:
        """Phase 3 of :meth:`leave_site`: deregister the drained site."""
        if forced:
            self.tracer.record(self.scheduler.now, site_id, "leave-forced")
            # a departed site must not act: its node's timers, and the
            # engine's, which the engine alone registers
            site = self.sites[site_id]
            site.cancel_timers()
            if site.engine is not None:
                site.engine.cancel_timers()
        self.network.deregister(site_id)  # traces the canonical "leave"
        self.departed[site_id] = self.sites.pop(site_id)
        self._draining.discard(site_id)

    def _apply_membership(self, action: "JoinSite | LeaveSite") -> None:
        """The failure injector's membership hook (join / leave plans)."""
        if isinstance(action, LeaveSite):
            self.leave_site(action.site)
        else:
            self.join_site(action.site, dict(action.copies), near=action.near)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def T(self) -> float:
        """The network's longest end-to-end delay."""
        return self.network.T

    def states(self, txn: str) -> dict[int, str]:
        """Current local state name of ``txn`` at every live participant."""
        out = {}
        for site_id, site in self.sites.items():
            if site.engine is None or not site.alive:
                continue
            record = site.engine.record(txn)
            if record is not None:
                out[site_id] = record.state.name
        return out

    def outcome(self, txn: str) -> ConsistencyReport:
        """Consistency verdict for one transaction (from the trace)."""
        handle = self._txns.get(txn)
        participants = list(handle.participants) if handle else []
        return check_atomicity(self.tracer, txn, participants)

    def outcomes(self) -> dict[str, str]:
        """``self.outcome(txn).outcome`` of every submitted transaction,
        in submission order."""
        return self.verdicts().outcomes

    def blocked_map(self) -> dict[int, set[str]]:
        """Per-site undecided transactions (their locks block access)."""
        return {sid: site.undecided_txns() for sid, site in self.sites.items()}

    def live_undecided(self, txn: str) -> list[int]:
        """Live participants still in doubt about ``txn``.

        Two exclusions: crashed sites (a down site neither holds usable
        copies nor counts against termination — it catches up at
        recovery), and sites that never durably *joined* the
        transaction (no WAL record at all: the vote-req was lost before
        arrival, so the site holds no locks and has nothing to
        terminate; it can only coexist with an abort or blocked
        outcome, never a commit, since commits need every vote).
        """
        handle = self._txns.get(txn)
        if handle is None:
            return []
        decided = self.tracer.decisions(txn)
        return self._in_doubt(txn, [s for s in handle.participants if s not in decided])

    def _in_doubt(self, txn: str, undecided: Iterable[int]) -> list[int]:
        """Those of ``undecided`` that are live and durably joined ``txn``."""
        sites = self.sites
        return sorted(s for s in undecided if s in sites and sites[s].alive and sites[s].wal.holds(txn))

    def availability(self) -> AvailabilityReport:
        """Current data availability across all partitions."""
        return availability_snapshot(
            catalog=self.catalog,
            partition=self.network.partition,
            lock_managers={sid: s.locks for sid, s in self.sites.items()},
            blocked_txns=self.blocked_map(),
            active_sites={sid for sid, s in self.sites.items() if s.alive},
        )

    def message_counts(self) -> dict[str, int]:
        """Histogram of message types sent so far, in the order each type
        was first sent: the network's ``sent_by_type`` counter, kept
        whether or not the trace keeps message rows."""
        return dict(self.network.sent_by_type)

    def __repr__(self) -> str:
        return (
            f"<Cluster {self.protocol} sites={sorted(self.sites)} "
            f"t={self.scheduler.now:g}>"
        )
