"""repro — a reproduction of Huang & Li's quorum-based commit and
termination protocols (ICDE 1988).

The library implements, from scratch, everything the paper describes or
depends on: a deterministic discrete-event simulator, a partitionable
lossy network, per-site durable storage with write-ahead logging,
strict two-phase locking, Gifford's weighted-voting replica control,
coordinator election, and five commit-protocol families — 2PC, 3PC,
Skeen's site-quorum protocol, and the paper's quorum-based commit and
termination protocols 1 and 2 — plus the analysis machinery (partition
states, concurrency sets, availability and atomicity checking) needed
to regenerate every figure and example in the paper.

Quickstart::

    from repro import CatalogBuilder, Cluster, FailurePlan

    catalog = (
        CatalogBuilder()
        .replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3)
        .build()
    )
    cluster = Cluster(catalog, protocol="qtp1")
    txn = cluster.update(origin=1, writes={"x": 99})
    cluster.run()
    print(cluster.outcome(txn.txn).describe())
    print(cluster.read(2, "x").value)

See ``examples/`` for partition / failure scenarios and DESIGN.md for
the full system inventory.
"""

from repro.analysis.availability import AvailabilityReport, ItemAvailability
from repro.analysis.consistency import ConsistencyReport, check_atomicity
from repro.analysis.partition_states import (
    PartitionState,
    classify_partition,
    concurrency_sets,
    impossibility_argument,
)
from repro.common.errors import (
    ConfigurationError,
    QuorumUnreachableError,
    ReproError,
    TransactionAborted,
)
from repro.db.cluster import PROTOCOL_NAMES, Cluster
from repro.db.txn import TxnHandle
from repro.net.delays import FixedDelay, UniformDelay
from repro.protocols.states import TxnState
from repro.replication.catalog import CatalogBuilder, ItemConfig, ReplicaCatalog
from repro.sim.failures import FailurePlan

__version__ = "1.0.0"

__all__ = [
    "AvailabilityReport",
    "CatalogBuilder",
    "Cluster",
    "ConfigurationError",
    "ConsistencyReport",
    "FailurePlan",
    "FixedDelay",
    "ItemAvailability",
    "ItemConfig",
    "PROTOCOL_NAMES",
    "PartitionState",
    "QuorumUnreachableError",
    "ReplicaCatalog",
    "ReproError",
    "TransactionAborted",
    "TxnHandle",
    "TxnState",
    "UniformDelay",
    "check_atomicity",
    "classify_partition",
    "concurrency_sets",
    "impossibility_argument",
    "__version__",
]
