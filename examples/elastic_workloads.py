#!/usr/bin/env python3
"""Declarative workloads and elastic membership, end to end.

Three short demonstrations of the `WorkloadSpec` subsystem:

1. **Skew opens contention** — the same heavy-traffic harness under
   uniform vs Zipf item popularity: the skewed stream collides on the
   hot items and the no-wait locking policy shows it immediately.
2. **Read-mostly mixes** — most of the stream rides the read-only
   client-side fast path while the update tail pays the full commit
   protocol.
3. **Elastic join under a storm** — a cluster partitions mid-run, two
   fresh sites join *inside the active partition* (`FailurePlan.join`),
   receive a component-local state transfer, and serve as participants
   of later transactions.

Run:  python examples/elastic_workloads.py
"""

from repro.db.cluster import Cluster
from repro.experiments.workload_scenarios import elastic_join_scenario
from repro.experiments.workload_study import heavy_workload_scenario
from repro.replication.catalog import CatalogBuilder
from repro.sim.failures import FailurePlan
from repro.traffic import run_scenario
from repro.workload.spec import WorkloadSpec


def skew_vs_uniform() -> None:
    print("== 1. Zipf skew vs uniform popularity (same harness, same seed)")
    for label, spec in [
        ("uniform", WorkloadSpec(n_txns=60, mean_spacing=1.2)),
        ("zipf1.6", WorkloadSpec(n_txns=60, mean_spacing=1.2, popularity="zipf", zipf_s=1.6)),
    ]:
        result = run_scenario(heavy_workload_scenario(), "qtp1", 0, workload=spec).result
        print(
            f"  {label:<8} committed={result.committed:<3} "
            f"lock-conflict-aborts={result.client_aborted:<3} "
            f"1SR={result.serializable}"
        )


def read_mostly() -> None:
    print("== 2. A read-mostly mix (80% read-only)")
    spec = WorkloadSpec(n_txns=60, read_fraction=0.8, mean_spacing=1.0)
    result = run_scenario(heavy_workload_scenario(), "qtp1", 0, workload=spec).result
    print(
        f"  reads-committed={result.reads_committed} updates-committed={result.committed} "
        f"client-aborted={result.client_aborted} 1SR={result.serializable}"
    )


def elastic_join() -> None:
    print("== 3. Sites joining through an active partition")
    catalog = (
        CatalogBuilder()
        .replicated_item("x", sites=[1, 2, 3], r=2, w=2)
        .replicated_item("y", sites=[2, 3, 4], r=2, w=2)
        .build()
    )
    cluster = Cluster(catalog, protocol="qtp1", seed=0)
    txn = cluster.update(origin=1, writes={"x": 42})
    plan = (
        FailurePlan()
        .partition(5.0, [1, 2], [3, 4])
        .join(6.0, 7, copies={"x": 1}, near=1)  # lands in {1, 2}
        .heal(10.0)
    )
    cluster.arm_failures(plan)
    cluster.run()
    joined = cluster.sites[7]
    print(f"  join traced: {cluster.tracer.where(category='join')[0].detail}")
    print(f"  x at joined site after state transfer: {joined.store.read('x')}")
    print(f"  catalog votes for x now: v={cluster.catalog.v('x')} w={cluster.catalog.w('x')}")
    follow_up = cluster.update(origin=1, writes={"x": 43})
    cluster.run()
    print(
        f"  follow-up txn participants include joined site: "
        f"{7 in follow_up.participants} "
        f"(outcome={cluster.outcome(follow_up.txn).outcome})"
    )
    storm = run_scenario(elastic_join_scenario(), "qtp1", 0)
    print(f"  storm summary: {storm.counters()}")


def main() -> None:
    skew_vs_uniform()
    read_mostly()
    elastic_join()


if __name__ == "__main__":
    main()
