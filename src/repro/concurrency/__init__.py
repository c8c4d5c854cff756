"""Concurrency control substrate (system S5).

Within a site, strict two-phase locking guards the hosted copies; the
lock manager is what turns a *blocked* transaction into *unavailable
data* — the effect the paper's availability argument is about.  The
package also provides a conflict-graph serializability checker used by
the analysis layer to validate whole runs (including cross-partition
runs under the voting strategy).

* :class:`~repro.concurrency.locks.LockManager` — shared/exclusive
  locks, granted or refused at once (no wait queue).
* :class:`~repro.concurrency.serializability.ConflictGraph` — conflict
  serializability check over committed transaction histories.
"""

from repro.concurrency.locks import LockManager, LockMode
from repro.concurrency.serializability import CommittedTxn, ConflictGraph

__all__ = [
    "CommittedTxn",
    "ConflictGraph",
    "LockManager",
    "LockMode",
]
