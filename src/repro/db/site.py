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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.concurrency.locks import LockManager, LockMode
from repro.net.node import Node
from repro.protocols.base import ProtocolHooks
from repro.protocols.states import TxnState
from repro.storage.recovery import replay_data
from repro.storage.store import ReplicaStore
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network
    from repro.protocols.base import CommitProtocolEngine
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


class Site(Node):
    """A database site; create via :class:`~repro.db.cluster.Cluster`."""

    def __init__(
        self,
        site_id: int,
        network: "Network",
        catalog: "ReplicaCatalog",
        hosted: Iterable[str],
    ) -> None:
        """Build the site's stack and host ``hosted`` — its entry of
        :meth:`ReplicaCatalog.items_by_site
        <repro.replication.catalog.ReplicaCatalog.items_by_site>`, which
        the cluster computes once for all its sites."""
        super().__init__(site_id, network)
        self.catalog = catalog
        self.wal = WriteAheadLog(site_id)
        self.store = ReplicaStore(site_id)
        self.locks = LockManager(site_id)
        self.engine: "CommitProtocolEngine | None" = None
        for item in hosted:
            self.store.host(item, value=0, version=0)

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
        crash would quietly break two-phase locking.
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
        return {
            txn for txn, rec in self.engine.records().items() if not rec.decided
        }
