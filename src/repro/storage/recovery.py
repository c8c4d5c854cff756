"""Crash recovery from the write-ahead log.

After a crash, a site reconstructs two things:

1. **Data** — committed writes are replayed from ``apply`` records into
   the replica store (idempotently: a replayed version that is not newer
   than the stored one is skipped, since the store may already hold it).
   The replay rides the WAL's per-item newest-``apply`` index
   (:meth:`~repro.storage.wal.WriteAheadLog.latest_applies`): only the
   newest version of each touched item is considered, O(items touched)
   instead of O(len(wal)) — heavy-traffic logs hold thousands of
   records but touch a handful of items.  The store ends up exactly
   where an LSN-order replay of every ``apply`` record would leave it;
   only the *count* of installs is smaller (the index jumps straight to
   an item's newest version where a record-by-record replay would walk
   it through each successive one).
2. **Protocol state** — for each transaction with a ``begin`` but no
   decision, the last logged protocol record determines the durable
   local state the site recovers into: ``begin`` -> Q (it never voted,
   so by the paper's termination rules it is safe to treat as initial
   and abort-leaning), ``vote yes`` -> W, ``pc`` -> PC, ``pa`` -> PA.
   A site that recovers in W/PC/PA rejoins the termination protocol.
"""

from __future__ import annotations

from repro.protocols.states import TxnState
from repro.storage.store import ReplicaStore
from repro.storage.wal import WriteAheadLog


def replay_data(wal: WriteAheadLog, store: ReplicaStore) -> int:
    """Re-install committed writes into the store; returns install count.

    Walks the WAL's per-item newest-``apply`` index (see module
    docstring): at most one install per hosted item.
    """
    replayed = 0
    for item, (version, value) in wal.latest_applies().items():
        if not store.hosts(item):
            continue
        if store.read(item).version < version:
            store.write(item, value, version)
            replayed += 1
    return replayed


def recover_protocol_states(wal: WriteAheadLog) -> dict[str, TxnState]:
    """Durable local state of every undecided transaction on this site.

    Returns:
        Mapping txn id -> recovered :class:`TxnState` (one of Q, W, PC,
        PA; decided transactions are not in the map).
    """
    states: dict[str, TxnState] = {}
    for txn in wal.open_txns():
        anchor = wal.last_protocol_record(txn)
        if anchor is None:  # pragma: no cover - open_txns guarantees a begin
            continue
        if anchor.kind == "begin":
            states[txn] = TxnState.Q
        elif anchor.kind == "vote":
            states[txn] = TxnState.W if anchor.payload.get("vote") == "yes" else TxnState.Q
        elif anchor.kind == "pc":
            states[txn] = TxnState.PC
        elif anchor.kind == "pa":
            states[txn] = TxnState.PA
    return states
