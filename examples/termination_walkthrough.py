#!/usr/bin/env python3
"""Watch termination protocol 1 work, message by message.

Renders the full message sequence chart of a run where the coordinator
crashes mid-commit and the network splits: votes, the partial prepare
round, the crash, elections in each partition, the state polls, the
PREPARE-TO-ABORT round, and the final decisions.

Run:  python examples/termination_walkthrough.py
"""

from repro import CatalogBuilder, Cluster, FailurePlan
from repro.sim.msc import message_sequence_chart


def main() -> None:
    catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3).build()
    # the chart draws every message, so the trace keeps a row per message
    cluster = Cluster(catalog, protocol="qtp1", message_rows=True)
    txn = cluster.update(origin=1, writes={"x": 42})
    # coordinator dies after collecting votes; sites {2,3} split from {4}
    cluster.arm_failures(FailurePlan().crash(2.5, 1).partition(2.5, [2, 3], [4]))
    cluster.run()

    print("scenario: coordinator crash at t=2.5 + partition {2,3} | {4}")
    print("protocol: qtp1 (commit protocol 1 + termination protocol 1)")
    print("=" * 64)
    print(message_sequence_chart(cluster.tracer, txn.txn))
    print("=" * 64)
    report = cluster.outcome(txn.txn)
    print(f"outcome: {report.describe()}")
    print(
        "\nsites 2,3 hold r(x)=2 votes, so their partition runs the\n"
        "PREPARE-TO-ABORT round and frees x; site 4 alone has neither\n"
        "quorum and blocks until connectivity returns."
    )


if __name__ == "__main__":
    main()
