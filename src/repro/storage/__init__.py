"""Per-site durable storage substrate (system S4).

Commit protocols are meaningless without a notion of what survives a
crash.  Each site owns:

* a :class:`~repro.storage.wal.WriteAheadLog` — append-only rows of
  forced records, stored by shape and read back as
  :class:`~repro.storage.wal.LogRecord` views; everything written
  before a crash survives it;
* a :class:`~repro.storage.store.ReplicaStore` — the versioned copies
  of data items this site hosts (Gifford's scheme identifies the most
  recent copy by version number);
* :func:`~repro.storage.recovery.recover_protocol_states` — replays the
  WAL after a crash to rebuild each in-flight transaction's durable
  protocol state (the paper's sites log votes, PC/PA entry, and
  decisions so they can rejoin termination after recovery).
"""

from repro.storage.store import ReplicaStore, VersionedValue
from repro.storage.wal import LogRecord, WriteAheadLog
from repro.storage.recovery import recover_protocol_states

__all__ = [
    "LogRecord",
    "ReplicaStore",
    "VersionedValue",
    "WriteAheadLog",
    "recover_protocol_states",
]
