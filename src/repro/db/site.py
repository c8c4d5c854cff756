"""One database site: storage + locks + protocol engine on a network node.

A :class:`Site` composes the substrates built elsewhere:

* a :class:`~repro.storage.wal.WriteAheadLog` (survives crashes),
* a :class:`~repro.storage.store.ReplicaStore` holding this site's
  copies (also durable — it models disk),
* a :class:`~repro.concurrency.locks.LockManager` (volatile; locks of
  undecided transactions are *re-taken* during recovery, because a
  recovered in-doubt transaction still owns its data),
* a :class:`~repro.protocols.base.CommitProtocolEngine` (volatile,
  rebuilt from the WAL on recovery).

:class:`SiteHooks` is the glue: the protocol engine calls it to vote
(take locks), apply a commit (install versions, release locks) and
apply an abort (release locks).

Engines, like handlers, bind on first delivery.  A site is built
without its engine: it reserves its protocol's handler table on
its node (:meth:`Node.bind_on_delivery
<repro.net.node.Node.bind_on_delivery>` with no owner yet), and the
cluster's :class:`EngineFactory` builds the engine the first time a
message of one of those types arrives, or when the site first
coordinates (:meth:`Site.ensure_engine`).  Until then
:attr:`Site.engine` is None, and everything that scans the sites reads
a site without an engine the way it reads one with nothing in flight:
no records, no timers, nothing undecided.  Its WAL is empty — only an
engine writes it — so a crash and a recovery have nothing to rebuild.

What a site allocates at build.  Every site of a WAN storm is built and
about eight ever act, so a site allocates only what every site needs:
itself, its WAL's three row columns, its store's copy table — filled
from the placement in one step, every copy the one shared initial value
(see :mod:`repro.storage.store`) — and its lock table.  Its handler
table and timer list (:mod:`repro.net.node`) and its WAL's decision and
read-side indexes (:mod:`repro.storage.wal`) are built by their first
use; until then each is a shared, read-only empty.  What that saves the
cyclic collector is measured in :class:`~repro.db.cluster.Cluster`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Collection, Mapping

from repro.concurrency.locks import LockManager, LockMode
from repro.net.node import Node
from repro.protocols.base import ProtocolHooks, message_tables
from repro.protocols.states import TxnState
from repro.storage.recovery import replay_data
from repro.storage.store import ReplicaStore
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network
    from repro.protocols.base import CommitProtocolEngine, TerminationRule
    from repro.replication.catalog import ReplicaCatalog


class SiteHooks(ProtocolHooks):
    """Database-layer callbacks for the commit protocol engine."""

    def __init__(self, site: "Site") -> None:
        self._site = site

    def vote(self, txn: str, writes: Mapping[str, tuple[Any, int]]) -> bool:
        """Vote yes iff every locally hosted writeset copy locks now.

        Partial acquisitions are rolled back before voting no, so a
        refused transaction leaves no residue.
        """
        site = self._site
        hosted = [item for item in sorted(writes) if site.store.hosts(item)]
        for item in hosted:
            if not site.locks.try_acquire(txn, item, LockMode.EXCLUSIVE):
                site.locks.release_all(txn)
                site.trace("vote-no", txn, item=item, reason="lock-conflict")
                return False
        return True

    def apply_commit(self, txn: str, writes: Mapping[str, tuple[Any, int]]) -> None:
        """Install the committed versions on hosted copies; unlock."""
        site = self._site
        for item in sorted(writes):
            if not site.store.hosts(item):
                continue
            value, version = writes[item]
            if site.store.read(item).version < version:
                site.wal.apply(txn, item, value, version)
                site.store.write(item, value, version)
        site.locks.release_all(txn)

    def apply_abort(self, txn: str) -> None:
        """Discard the transaction's claim on this site; unlock."""
        self._site.locks.release_all(txn)


class EngineFactory:
    """How one cluster builds its sites' commit engines.

    One per cluster, shared by its sites: the protocol's name (its
    engines' message namespace) and handler table, its engine class,
    its termination rule (one serves every engine: a rule holds no
    per-site or per-epoch state), the current catalog — the owner swaps
    in the next one, so an engine built after a membership change
    starts its transactions in the current epoch — and every epoch's
    catalog.  It holds nothing that points back at the cluster, so a
    site keeps it without keeping the cluster alive.
    """

    __slots__ = ("family", "handler_table", "engine_cls", "rule", "catalog", "epochs", "enforce_ignore_rules")

    def __init__(
        self,
        family: str,
        engine_cls: "type[CommitProtocolEngine]",
        rule: "TerminationRule",
        catalog: "ReplicaCatalog",
        epochs: Mapping[int, "ReplicaCatalog"],
        enforce_ignore_rules: bool,
    ) -> None:
        self.family = family
        self.handler_table = message_tables(family)[1]
        self.engine_cls = engine_cls
        self.rule = rule
        self.catalog = catalog
        self.epochs = epochs
        self.enforce_ignore_rules = enforce_ignore_rules

    def build(self, site: "Site") -> "CommitProtocolEngine":
        """A new engine for ``site`` (it binds itself to the site's node)."""
        return self.engine_cls(
            node=site,
            wal=site.wal,
            catalog=self.catalog,
            epochs=self.epochs,
            rule=self.rule,
            family=self.family,
            hooks=SiteHooks(site),
            enforce_ignore_rules=self.enforce_ignore_rules,
        )


class Site(Node):
    """A database site; create via :class:`~repro.db.cluster.Cluster`."""

    def __init__(
        self,
        site_id: int,
        network: "Network",
        hosted: Collection[str],
        engines: EngineFactory,
    ) -> None:
        """Build the site's stack and host ``hosted`` — its entry of
        :meth:`ReplicaCatalog.items_by_site
        <repro.replication.catalog.ReplicaCatalog.items_by_site>`, which
        the cluster computes once for all its sites.  The engine is
        ``engines``' to build, on first use (see the module docstring)."""
        super().__init__(site_id, network)
        self.wal = WriteAheadLog(site_id)
        self.store = ReplicaStore(site_id, hosted)
        self.locks = LockManager(site_id)
        self.engine: "CommitProtocolEngine | None" = None
        self._engines = engines
        self.bind_on_delivery(None, engines.handler_table)

    def ensure_engine(self) -> "CommitProtocolEngine":
        """The site's commit engine, built now if nothing needed it yet."""
        engine = self.engine
        if engine is None:
            engine = self._engines.build(self)
            self.attach_engine(engine)
        return engine

    def build_late_owner(self) -> "CommitProtocolEngine":
        """The first delivery of an engine message builds the engine."""
        return self.ensure_engine()

    def attach_engine(self, engine: "CommitProtocolEngine") -> None:
        """Install the commit-protocol engine (exactly once)."""
        if self.engine is not None:
            raise ValueError(f"site {self.node_id} already has an engine")
        self.engine = engine

    def close(self) -> None:
        """Drop the engine link too (site <-> engine <-> hooks); the
        WAL, the store and the lock table stay readable."""
        super().close()
        self.engine = None

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------

    def on_crash(self) -> None:
        """Volatile state dies: engine records and the lock table."""
        if self.engine is not None:
            self.engine.on_crash()
        self.locks = LockManager(self.node_id)

    def on_recover(self) -> None:
        """Reconstruct from the WAL.

        Committed writes are replayed into the store; undecided
        transactions get their records (and their locks!) back — an
        in-doubt transaction owns its data across a crash, otherwise a
        crash would quietly break two-phase locking.  A site without an
        engine has an empty WAL, and nothing to rebuild.
        """
        replay_data(self.wal, self.store)
        if self.engine is None:
            return
        undecided = self.engine.rebuild_from_wal()
        for txn in undecided:
            record = self.engine.record(txn)
            if record is None or record.state is TxnState.Q:
                continue  # a Q participant never voted, so it owns no locks
            for item in record.items:
                if self.store.hosts(item):
                    self.locks.try_acquire(txn, item, LockMode.EXCLUSIVE)

    def undecided_txns(self) -> set[str]:
        """Transactions at this site that have not reached a decision."""
        if self.engine is None:
            return set()
        return set(self.engine.undecided)

    def in_flight(self) -> bool:
        """Does this site still act for some transaction?  Either it is
        undecided here, or this site coordinates it and the round's
        vote or ack window has yet to close (closing it sends)."""
        engine = self.engine
        return engine is not None and bool(engine.undecided or engine.open_rounds())
