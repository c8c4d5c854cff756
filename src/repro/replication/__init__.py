"""Weighted-voting replica control — Gifford's scheme [8] (system S6).

Every copy of a data item carries votes.  A transaction must gather
``r(x)`` votes to read item x and ``w(x)`` votes to write it, with

* ``r(x) + w(x) > v(x)``  (reads see the most recent write; a
  partitioned system cannot read x in one component and write it in
  another), and
* ``2 * w(x) > v(x)``    (two writes can never proceed in parallel in
  different components).

The :class:`~repro.replication.catalog.ReplicaCatalog` is also the vote
oracle of the paper's commit/termination protocols: their quorum
predicates ask "how many votes for item x do *these sites* hold?" —
:meth:`~repro.replication.catalog.ReplicaCatalog.votes`.

:mod:`~repro.replication.accessor` implements quorum read / write
planning and version resolution; :mod:`~repro.replication.missing_writes`
implements the Eager & Sevcik adaptive optimisation the paper cites [5].
"""

from repro.replication.accessor import QuorumPlanner, ReadResult
from repro.replication.catalog import CatalogBuilder, ItemConfig, ReplicaCatalog
from repro.replication.missing_writes import MissingWritesTracker

__all__ = [
    "CatalogBuilder",
    "ItemConfig",
    "MissingWritesTracker",
    "QuorumPlanner",
    "ReadResult",
    "ReplicaCatalog",
]
