"""Interactive transactions: quorum reads, staged writes, 2PL.

:meth:`Cluster.transaction <repro.db.cluster.Cluster.transaction>`
returns an :class:`InteractiveTransaction` — the client-side object a
user of the database holds while executing:

1. :meth:`InteractiveTransaction.read` plans a Gifford read quorum
   among reachable sites, takes **shared locks** on the quorum's
   copies, and returns the most recent value (version numbers identify
   it).  Reads are strict-2PL: those S locks are held to the decision.
2. :meth:`InteractiveTransaction.write` stages a new value.
3. :meth:`InteractiveTransaction.submit` hands the writeset to the
   commit protocol.  The participant set is the union of the writeset
   hosts and every read-locked site, so the protocol's decision
   releases *all* the transaction's locks — including read locks at
   sites that host none of the written items.

A transaction whose origin site is down (crashed, or left) is refused
before it takes a lock, registers, or writes a log row: :meth:`read`
and :meth:`submit` release whatever it already holds and raise
:class:`TransactionAborted` — the client's site is gone, and so is the
transaction.

Each :meth:`read` and :meth:`submit` reads the cluster's current
placement once (through :attr:`Cluster.planner
<repro.db.cluster.Cluster.planner>`) and plans against the copies live
and reachable from the origin, walking each item's precomputed vote
ranking; nothing is sorted per call.

Lock conflicts surface immediately as :class:`TransactionAborted`
(no waiting): a participant that cannot lock now votes no / a reader
that cannot lock now aborts.  This no-wait policy makes deadlock
impossible by construction (there is never a waits-for edge), at the
cost of aborting under contention — the classical trade-off, chosen
here because the paper's subject is the *commit* path, not contention
management.

Every committed transaction's footprint (item -> version read /
written) is recorded on the cluster, so whole runs can be checked for
one-copy serializability with
:class:`~repro.concurrency.serializability.ConflictGraph`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any

from repro.common.errors import ConfigurationError, ProtocolError, TransactionAborted
from repro.common.ids import make_txn_id
from repro.concurrency.locks import LockMode
from repro.db.txn import TxnHandle
from repro.replication.accessor import QuorumPlanner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.cluster import Cluster
    from repro.net.network import LivePeers


class TxnPhase(enum.Enum):
    """Client-side lifecycle of an interactive transaction."""

    ACTIVE = "active"
    SUBMITTED = "submitted"
    ABORTED = "aborted"
    COMMITTED = "committed"  # read-only fast path only


class InteractiveTransaction:
    """A client-held transaction against one cluster.

    Create via :meth:`Cluster.transaction`; not thread-safe (neither is
    the simulation).
    """

    def __init__(self, cluster: "Cluster", origin: int, txn_id: str | None = None) -> None:
        self._cluster = cluster
        self.origin = origin
        self.txn = txn_id or make_txn_id(origin)
        self.phase = TxnPhase.ACTIVE
        self._reads: dict[str, int] = {}  # item -> version read
        self._read_values: dict[str, Any] = {}
        self._writes: dict[str, Any] = {}
        self._locked_sites: set[int] = set()

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def read(self, item: str) -> Any:
        """Quorum-read ``item`` under a shared lock.

        Returns the most recent value among a read quorum of reachable,
        lockable copies.  Re-reading an item (or reading one this
        transaction already wrote) is served locally — 2PL reads your
        own writes.

        Raises:
            TransactionAborted: a quorum copy is locked by another
                transaction (no-wait policy), or the origin is down —
                the transaction is dead; its locks are already released.
            QuorumUnreachableError: the origin's partition lacks r(x)
                votes; the transaction stays ACTIVE (the caller may try
                other items or abort).
        """
        self._require(TxnPhase.ACTIVE)
        if item in self._writes:
            return self._writes[item]
        if item in self._read_values:
            return self._read_values[item]
        cluster = self._cluster
        live = self._live_peers()
        quorum = cluster.planner.plan_read(item, live)
        sites = cluster.sites
        for site in quorum:
            if not sites[site].locks.try_acquire(self.txn, item, LockMode.SHARED):
                self._release_everywhere()
                self.phase = TxnPhase.ABORTED
                raise TransactionAborted(self.txn, f"read lock conflict on {item!r} at site {site}")
            self._locked_sites.add(site)
        newest = QuorumPlanner.newest([sites[s].store.read(item) for s in quorum])
        self._reads[item] = newest.version
        self._read_values[item] = newest.value
        return newest.value

    def write(self, item: str, value: Any) -> None:
        """Stage a write; it takes effect only if the commit succeeds."""
        self._require(TxnPhase.ACTIVE)
        if item not in self._cluster.catalog:
            raise ConfigurationError(f"unknown item {item!r}")
        self._writes[item] = value

    def submit(self) -> TxnHandle:
        """Hand the transaction to the commit protocol.

        Read-only transactions commit immediately (nothing to make
        atomic); otherwise the origin site's engine runs the cluster's
        commit protocol over writeset hosts plus read-locked sites.
        Drive the simulation (``cluster.run()``) afterwards and inspect
        ``cluster.outcome(...)``.

        Raises:
            QuorumUnreachableError: the origin's partition lacks w(x)
                votes for a written item; the transaction stays ACTIVE.
            TransactionAborted: the origin is down; nothing was
                registered or logged, and the locks are released.
        """
        self._require(TxnPhase.ACTIVE)
        cluster = self._cluster
        if not self._writes:
            self._release_everywhere()
            self.phase = TxnPhase.COMMITTED
            cluster.record_footprint(self.txn, self._reads, {})
            return TxnHandle(self.txn, self.origin, {}, ())
        live = self._live_peers()
        planner = cluster.planner
        versioned: dict[str, tuple[Any, int]] = {}
        write_hosts: set[int] = set()
        for item in sorted(self._writes):
            hosts, version = cluster.write_target(planner, live, item, self._reads.get(item))
            write_hosts.update(hosts)
            versioned[item] = (self._writes[item], version)
        participants = sorted(write_hosts | self._locked_sites)
        handle = TxnHandle(self.txn, self.origin, versioned, tuple(participants))
        self.phase = TxnPhase.SUBMITTED
        cluster.register_submitted(handle, dict(self._reads))
        origin_site = cluster.sites[self.origin]
        if origin_site.engine is None:  # pragma: no cover - sites always get engines
            raise ProtocolError(f"site {self.origin} has no engine")
        origin_site.engine.begin_commit(self.txn, versioned, participants=participants)
        return handle

    def abort(self) -> None:
        """Client-side abort before submit: release everything."""
        self._require(TxnPhase.ACTIVE)
        self._release_everywhere()
        self.phase = TxnPhase.ABORTED

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _require(self, phase: TxnPhase) -> None:
        if self.phase is not phase:
            raise ProtocolError(
                f"transaction {self.txn} is {self.phase.value}, not {phase.value}"
            )

    def _live_peers(self) -> "LivePeers":
        """The copies the origin can use now; refuses a down origin.

        Checked before any lock, registration or log row: a client at a
        crashed (or departed) site must leave nothing behind.
        """
        site = self._cluster.sites.get(self.origin)
        if site is None or not site.alive:
            self._release_everywhere()
            self.phase = TxnPhase.ABORTED
            raise TransactionAborted(self.txn, f"origin site {self.origin} is down")
        return self._cluster.network.live_peers(self.origin)

    def _release_everywhere(self) -> None:
        for site in self._locked_sites:
            self._cluster.sites[site].locks.release_all(self.txn)
        self._locked_sites.clear()

    def __repr__(self) -> str:
        return (
            f"<InteractiveTransaction {self.txn} {self.phase.value} "
            f"reads={sorted(self._reads)} writes={sorted(self._writes)}>"
        )
