"""Per-site lock manager (strict two-phase locking, no waiting).

Lock compatibility is the classical matrix: shared locks are mutually
compatible; an exclusive lock is compatible with nothing.  A request is
granted or refused at once: the table has no wait path, so it never
holds a waits-for edge (see :mod:`repro.db.transactions` for why no
caller waits).

Locks are held until the owning transaction's *decision* (strict 2PL):
the commit protocols release them on COMMIT / ABORT, and a transaction
blocked by the termination protocol keeps its locks — which is
precisely how blocking reduces data availability (paper §1, "locks will
be held on data items accessed by the transaction, rendering those data
items inaccessible").
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Any, Mapping


class LockMode(enum.Enum):
    """Lock modes: shared (read) and exclusive (write)."""

    SHARED = "S"
    EXCLUSIVE = "X"


#: the tables of a manager that has granted nothing yet: shared by every
#: such manager and read-only, so a write that skips the first grant's
#: step raises instead of reaching another site's table
_NONE: Mapping[Any, Any] = MappingProxyType({})


class _ItemLocks:
    """One locked item's row of the lock table."""

    __slots__ = ("holders", "exclusive")

    def __init__(self) -> None:
        self.holders: dict[str, LockMode] = {}
        #: count of EXCLUSIVE entries in ``holders``, maintained at every
        #: holder mutation, so the vote-hook probe never allocates a
        #: generator over the holders.
        self.exclusive = 0


class LockManager:
    """Lock table for the copies hosted at one site.

    Only a held item has an entry: a grant installs it and the release
    of its last holder drops it.  Besides the per-item table, the
    manager indexes it by transaction: ``txn -> {item: entry}`` for
    every item the transaction holds, kept at every grant, so
    :meth:`release_all` visits only that transaction's items.  Both
    tables are built by the first grant; until then they are one shared
    read-only empty, as most sites of a large installation never lock.
    """

    def __init__(self, site: int) -> None:
        self.site = site
        self._items: Mapping[str, _ItemLocks] = _NONE
        self._by_txn: Mapping[str, dict[str, _ItemLocks]] = _NONE

    def try_acquire(self, txn: str, item: str, mode: LockMode) -> bool:
        """Grant the lock now, or refuse it; never waits.

        Re-acquisition by the current holder is granted in place, with
        S -> X upgrade allowed when the transaction is the *sole* holder.
        A participant that cannot lock the writeset copies right now
        votes 'no' rather than waiting — waiting during the vote would
        let one in-doubt transaction stall another's commit procedure.

        This is the vote hot path: a refused probe allocates nothing —
        a table entry is only created when the lock is actually granted.
        """
        entry = self._items.get(item)
        if entry is None:  # unlocked item: grant installs the entry
            if self._items is _NONE:  # the first grant builds both tables
                self._items, self._by_txn = {}, {}
            entry = self._items[item] = _ItemLocks()
        else:
            held = entry.holders.get(txn)
            if held is not None:
                if held is mode or held is LockMode.EXCLUSIVE:
                    return True
                if len(entry.holders) == 1:  # sole holder: upgrade S -> X
                    entry.holders[txn] = LockMode.EXCLUSIVE
                    entry.exclusive += 1
                    return True
                return False
            # the entry has a holder: X fits beside none, S beside sharers only
            if mode is LockMode.EXCLUSIVE or entry.exclusive:
                return False
        entry.holders[txn] = mode
        entry.exclusive += mode is LockMode.EXCLUSIVE
        touched = self._by_txn.get(txn)
        if touched is None:
            self._by_txn[txn] = {item: entry}
        else:
            touched[item] = entry
        return True

    # No caller waits, so there is one grant path under two names:
    # benchmarks/e2e/spans.py resolves ``acquire`` from the class body
    # as a layer boundary.
    acquire = try_acquire

    def release_all(self, txn: str) -> list[str]:
        """Release every lock held by ``txn``; returns the items released.

        Cost: O(items ``txn`` holds), whatever the size of the table —
        the transaction index names them.  The items come back in no
        particular order.
        """
        by_txn = self._by_txn
        if by_txn is _NONE:  # nothing granted yet
            return []
        touched = by_txn.pop(txn, None)
        if touched is None:
            return []
        table = self._items
        for item, entry in touched.items():
            entry.exclusive -= entry.holders.pop(txn) is LockMode.EXCLUSIVE
            # drop the entries left without holders, so that long sweeps
            # probing many items do not grow the table forever
            if not entry.holders:
                del table[item]
        return list(touched)

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
        if entry is None:
            return False
        if blocking_txns is None:
            return True
        return any(t in blocking_txns for t in entry.holders)

    def held_by(self, txn: str) -> list[str]:
        """All items on which ``txn`` currently holds a lock."""
        return sorted(self._by_txn.get(txn, ()))
