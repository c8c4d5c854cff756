"""Per-site lock manager (strict two-phase locking).

Lock compatibility is the classical matrix: shared locks are mutually
compatible; an exclusive lock is compatible with nothing.  Requests
queue FIFO per item; a released lock wakes the longest-waiting
compatible prefix of the queue.

Locks are held until the owning transaction's *decision* (strict 2PL):
the commit protocols release them on COMMIT / ABORT, and a transaction
blocked by the termination protocol keeps its locks — which is
precisely how blocking reduces data availability (paper §1, "locks will
be held on data items accessed by the transaction, rendering those data
items inaccessible").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable


class LockMode(enum.Enum):
    """Lock modes: shared (read) and exclusive (write)."""

    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        """Classical compatibility: only S/S coexist."""
        return self is LockMode.SHARED and other is LockMode.SHARED

    def __str__(self) -> str:
        return self.value


@dataclass
class LockRequest:
    """A queued lock request with an optional grant callback."""

    txn: str
    item: str
    mode: LockMode
    granted: bool = False
    on_grant: Callable[[], None] | None = None


class _ItemLocks:
    """One item's row of the lock table."""

    __slots__ = ("seq", "holders", "queue", "exclusive")

    def __init__(self, seq: int) -> None:
        #: creation number: the entry's place in the table's insertion order
        self.seq = seq
        self.holders: dict[str, LockMode] = {}
        self.queue: list[LockRequest] = []
        #: count of EXCLUSIVE entries in ``holders``, maintained at every
        #: holder mutation.  Compatibility is then two integer tests — S
        #: is grantable iff no exclusive holder, X iff no holder at all —
        #: so the vote-hook probe never allocates a generator over the
        #: holders.
        self.exclusive = 0


class LockManager:
    """Lock table for the copies hosted at one site.

    Besides the per-item table, the manager indexes it by transaction:
    ``txn -> {item: entry}`` for every item the transaction holds or
    waits on, kept at every grant and every queued request, so
    :meth:`release_all` visits only that transaction's items.
    """

    def __init__(self, site: int) -> None:
        self.site = site
        self._items: dict[str, _ItemLocks] = {}
        self._by_txn: dict[str, dict[str, _ItemLocks]] = {}
        self._created = 0

    def _entry(self, item: str) -> _ItemLocks:
        entry = self._items.get(item)
        if entry is None:
            entry = self._items[item] = _ItemLocks(self._created)
            self._created += 1
        return entry

    def _index(self, txn: str, item: str, entry: _ItemLocks) -> None:
        """Note that ``txn`` holds or waits on ``item``."""
        touched = self._by_txn.get(txn)
        if touched is None:
            self._by_txn[txn] = {item: entry}
        else:
            touched[item] = entry

    # ------------------------------------------------------------------
    # acquisition / release
    # ------------------------------------------------------------------

    def acquire(
        self,
        txn: str,
        item: str,
        mode: LockMode,
        on_grant: Callable[[], None] | None = None,
    ) -> bool:
        """Request a lock; returns True if granted immediately.

        Re-acquisition by the current holder is granted in place, with
        S -> X upgrade allowed when the transaction is the *sole* holder.
        If not immediately grantable the request queues and ``on_grant``
        fires when it is eventually granted.
        """
        entry = self._entry(item)
        held = entry.holders.get(txn)
        if held is not None:
            if held is mode or held is LockMode.EXCLUSIVE:
                return True
            if len(entry.holders) == 1:  # sole holder: upgrade S -> X
                entry.holders[txn] = LockMode.EXCLUSIVE
                entry.exclusive += 1
                return True
            request = LockRequest(txn, item, mode, on_grant=on_grant)
            entry.queue.append(request)
            return False
        self._index(txn, item, entry)
        if self._grantable(entry, mode):
            entry.holders[txn] = mode
            entry.exclusive += mode is LockMode.EXCLUSIVE
            return True
        entry.queue.append(LockRequest(txn, item, mode, on_grant=on_grant))
        return False

    def _grantable(self, entry: _ItemLocks, mode: LockMode) -> bool:
        if entry.queue:  # FIFO fairness: nobody jumps the queue
            return False
        if mode is LockMode.SHARED:
            return not entry.exclusive
        return not entry.holders

    def try_acquire(self, txn: str, item: str, mode: LockMode) -> bool:
        """Acquire only if immediately grantable; never queues.

        This is what the commit protocols' vote hook uses: a participant
        that cannot lock the writeset copies right now votes 'no' rather
        than waiting — waiting during the vote would let one in-doubt
        transaction stall another's commit procedure.

        This is the vote hot path: a refused probe allocates nothing —
        a table entry is only created when the lock is actually granted.
        """
        entry = self._items.get(item)
        if entry is None:  # unlocked item: grant installs the entry
            entry = self._items[item] = _ItemLocks(self._created)
            self._created += 1
        else:
            held = entry.holders.get(txn)
            if held is not None:
                if held is mode or held is LockMode.EXCLUSIVE:
                    return True
                if len(entry.holders) == 1:
                    entry.holders[txn] = LockMode.EXCLUSIVE
                    entry.exclusive += 1
                    return True
                return False
            if not self._grantable(entry, mode):
                return False
        entry.holders[txn] = mode
        entry.exclusive += mode is LockMode.EXCLUSIVE
        touched = self._by_txn.get(txn)  # _index, inlined on the hot path
        if touched is None:
            self._by_txn[txn] = {item: entry}
        else:
            touched[item] = entry
        return True

    def release_all(self, txn: str) -> list[str]:
        """Release every lock held by ``txn``; returns the items released.

        Queued requests that become grantable are granted (and their
        ``on_grant`` callbacks invoked) before returning.  Every item
        whose holder set *or* queue changed, and that still has waiters,
        is woken: dropping an ungranted request from the head of a queue
        can unblock the waiters behind it (FIFO fairness kept them
        waiting on a request that will now never be granted), so waking
        only the items the transaction actually held would leave them
        blocked forever.

        Cost: O(items ``txn`` holds or waits on), whatever the size of
        the table — the transaction index names them.  The items come
        back in no particular order.
        """
        touched = self._by_txn.pop(txn, None)
        if touched is None:
            return []
        released = []
        queued = []
        for item, entry in touched.items():
            held = entry.holders.pop(txn, None)
            if held is not None:
                entry.exclusive -= held is LockMode.EXCLUSIVE
                released.append(item)
            if entry.queue:
                entry.queue = [r for r in entry.queue if r.txn != txn]
                if entry.queue:
                    queued.append((entry.seq, item))
        if queued:
            # waiters are woken in the table's order, so grant callbacks
            # fire in the order a scan of the whole table would fire them
            queued.sort()
            for __, item in queued:
                self._wake(item)
        # drop entries left with neither holders nor waiters, so that
        # long sweeps probing many items do not grow the table forever
        table = self._items
        for item, entry in touched.items():
            if not entry.holders and not entry.queue:
                del table[item]
        return released

    def _wake(self, item: str) -> None:
        entry = self._items[item]
        while entry.queue:
            head = entry.queue[0]
            upgrade_ok = (
                head.txn in entry.holders
                and head.mode is LockMode.EXCLUSIVE
                and len(entry.holders) == 1
            )
            fresh_ok = head.txn not in entry.holders and all(
                head.mode.compatible_with(h) for h in entry.holders.values()
            )
            if not (upgrade_ok or fresh_ok):
                break
            entry.queue.pop(0)
            if upgrade_ok:
                entry.exclusive += entry.holders[head.txn] is not LockMode.EXCLUSIVE
            else:
                entry.exclusive += head.mode is LockMode.EXCLUSIVE
            entry.holders[head.txn] = head.mode
            head.granted = True
            if head.on_grant is not None:
                head.on_grant()

    # ------------------------------------------------------------------
    # introspection (availability analysis reads these)
    # ------------------------------------------------------------------

    def holder_modes(self, item: str) -> dict[str, LockMode]:
        """Current holders of ``item`` (txn -> mode)."""
        entry = self._items.get(item)
        return dict(entry.holders) if entry is not None else {}

    def is_locked(self, item: str, blocking_txns: set[str] | None = None) -> bool:
        """Is ``item`` locked — optionally only by the given transactions?

        The availability metric asks "is this copy locked by a *blocked*
        transaction"; passing the blocked set implements that question.
        """
        entry = self._items.get(item)
        if entry is None or not entry.holders:
            return False
        if blocking_txns is None:
            return True
        return any(t in blocking_txns for t in entry.holders)

    def waiting(self, item: str) -> list[LockRequest]:
        """The queued (ungranted) requests for ``item``."""
        entry = self._items.get(item)
        return list(entry.queue) if entry is not None else []

    def held_by(self, txn: str) -> list[str]:
        """All items on which ``txn`` currently holds a lock."""
        touched = self._by_txn.get(txn, {})
        return sorted(i for i, e in touched.items() if txn in e.holders)

    def waits_edges(self) -> list[tuple[str, str]]:
        """(waiter, holder) pairs for the deadlock detector."""
        edges = []
        for entry in self._items.values():
            for request in entry.queue:
                for holder in entry.holders:
                    if holder != request.txn:
                        edges.append((request.txn, holder))
        return edges
