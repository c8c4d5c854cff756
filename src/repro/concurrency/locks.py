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
from dataclasses import dataclass, field
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


@dataclass
class _ItemLocks:
    holders: dict[str, LockMode] = field(default_factory=dict)
    queue: list[LockRequest] = field(default_factory=list)
    #: count of EXCLUSIVE entries in ``holders``, maintained at every
    #: holder mutation.  Compatibility is then two integer tests — S is
    #: grantable iff no exclusive holder, X iff no holder at all — so
    #: the vote-hook probe never allocates a generator over the holders.
    exclusive: int = 0


class LockManager:
    """Lock table for the copies hosted at one site."""

    def __init__(self, site: int) -> None:
        self.site = site
        self._items: dict[str, _ItemLocks] = {}

    def _entry(self, item: str) -> _ItemLocks:
        entry = self._items.get(item)
        if entry is None:
            entry = _ItemLocks()
            self._items[item] = entry
        return entry

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
            entry = _ItemLocks()
            entry.holders[txn] = mode
            entry.exclusive += mode is LockMode.EXCLUSIVE
            self._items[item] = entry
            return True
        held = entry.holders.get(txn)
        if held is not None:
            if held is mode or held is LockMode.EXCLUSIVE:
                return True
            if len(entry.holders) == 1:
                entry.holders[txn] = LockMode.EXCLUSIVE
                entry.exclusive += 1
                return True
            return False
        if self._grantable(entry, mode):
            entry.holders[txn] = mode
            entry.exclusive += mode is LockMode.EXCLUSIVE
            return True
        return False

    def release_all(self, txn: str) -> list[str]:
        """Release every lock held by ``txn``; returns the items released.

        Queued requests that become grantable are granted (and their
        ``on_grant`` callbacks invoked) before returning.  Every item
        whose holder set *or* queue changed is woken: dropping an
        ungranted request from the head of a queue can unblock the
        waiters behind it (FIFO fairness kept them waiting on a request
        that will now never be granted), so waking only the items the
        transaction actually held would leave them blocked forever.
        """
        released = []
        touched = []
        for item, entry in self._items.items():
            changed = False
            held = entry.holders.pop(txn, None)
            if held is not None:
                entry.exclusive -= held is LockMode.EXCLUSIVE
                released.append(item)
                changed = True
            if entry.queue and any(r.txn == txn for r in entry.queue):
                entry.queue = [r for r in entry.queue if r.txn != txn]
                changed = True
            if changed:
                touched.append(item)
        for item in touched:
            self._wake(item)
        # drop entries left with neither holders nor waiters, so that
        # long sweeps probing many items do not grow the table forever
        for item in touched:
            entry = self._items[item]
            if not entry.holders and not entry.queue:
                del self._items[item]
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
        return sorted(i for i, e in self._items.items() if txn in e.holders)

    def waits_edges(self) -> list[tuple[str, str]]:
        """(waiter, holder) pairs for the deadlock detector."""
        edges = []
        for entry in self._items.values():
            for request in entry.queue:
                for holder in entry.holders:
                    if holder != request.txn:
                        edges.append((request.txn, holder))
        return edges
