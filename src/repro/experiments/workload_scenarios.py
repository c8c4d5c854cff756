"""The scenario-diversity drivers (E22–E25) over :class:`WorkloadSpec`.

Four contention regimes the uniform generators cannot reach, each a
:class:`~repro.traffic.Scenario` whose counters the benchmark suite
pins as ``BENCH_*.json`` baselines:

* **E22 skewed contention** (:func:`skewed_contention_scenario`) — Zipf
  item popularity concentrates the stream on a few hot items, so the
  no-wait locking policy and the vote hook fire constantly.  The E18
  scenario with a Zipf spec.
* **E23 read-mostly** (:func:`read_mostly_scenario`) — a read-dominated
  mix: most transactions are read-only (client-side fast path), updates
  still pay the full commit protocol.  The E18 scenario with a
  read-mostly spec.
* **E24 cross-region transactions** (:func:`cross_region_scenario`) — a
  WAN catalog where a slice of the stream originates in regions hosting
  no copy of the item: every quorum those transactions assemble is
  remote, and a region-aligned partition cuts them off entirely.
* **E25 elastic join under storm** (:func:`elastic_join_scenario`) —
  sites join mid-run (``FailurePlan.join``) while partition waves are in
  flight; joined sites land inside an existing component, host copies,
  and become participants of later transactions.

Run any of them with ``run_scenario(scenario, protocol, seed)`` and
read ``.counters()`` off the finished run.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.workload_study import heavy_workload_scenario
from repro.sim.failures import FailurePlan, JoinSite
from repro.traffic import Scenario
from repro.workload.generators import (
    random_catalog,
    random_partition_groups,
    wan_catalog,
    wan_regions,
)
from repro.workload.spec import WorkloadSpec


def _with_reads_committed(run) -> dict:
    """E18's counters plus the read-only fast path's commits."""
    return {**run.result.counters(), "reads_committed": run.result.reads_committed}


def skewed_contention_scenario(
    n_txns: int = 80,
    n_sites: int = 10,
    n_items: int = 8,
    zipf_s: float = 1.4,
    mean_spacing: float = 1.2,
) -> Scenario:
    """E22 as a scenario: Zipf-skewed traffic through E18's partition
    episodes.

    The item picks follow a Zipf law: the hottest item draws an
    outsized share of the stream, so most transactions collide on the
    same copies — ``client_aborted`` (the no-wait policy's lock-conflict
    count) is the contention meter the uniform stream keeps near zero,
    and ``hot_txns`` counts the transactions that wrote the hottest item.
    """
    params = dict(locals())

    def counters(run):
        hot = run.cluster.catalog.item_names[0]
        return {
            **_with_reads_committed(run),
            "hot_txns": sum(1 for txn in run.cluster._txns.values() if hot in txn.writes),
        }

    return dataclasses.replace(
        heavy_workload_scenario(n_sites=n_sites, n_items=n_items),
        name="skewed_contention",
        params=params,
        workload=WorkloadSpec(
            n_txns=n_txns, popularity="zipf", zipf_s=zipf_s, mean_spacing=mean_spacing
        ),
        counters=counters,
    )


def read_mostly_scenario(
    n_txns: int = 100,
    n_sites: int = 10,
    n_items: int = 8,
    read_fraction: float = 0.8,
    mean_spacing: float = 1.0,
) -> Scenario:
    """E23 as a scenario: a read-dominated mix through E18's partition
    episodes.

    Most of the stream is read-only — quorum reads under shared locks,
    committed on the client-side fast path — while the update tail
    still runs the commit protocol.  Measures what read availability a
    client population actually sees while updates hold locks and the
    network partitions.
    """
    params = dict(locals())
    return dataclasses.replace(
        heavy_workload_scenario(n_sites=n_sites, n_items=n_items),
        name="read_mostly",
        params=params,
        workload=WorkloadSpec(
            n_txns=n_txns, read_fraction=read_fraction, mean_spacing=mean_spacing
        ),
        counters=_with_reads_committed,
    )


def cross_region_scenario(
    n_txns: int = 40,
    n_regions: int = 3,
    sites_per_region: int = 4,
    n_items: int = 6,
    region_replication: int = 2,
    cross_region: float = 0.6,
    mean_spacing: float = 2.0,
    partition_window: tuple[float, float] = (20.0, 60.0),
) -> Scenario:
    """E24 as a scenario: direct updates over a WAN catalog, a share of
    them from regions hosting no copy, cut along region lines for
    ``partition_window``: that slice loses its quorums outright
    (``refused``) while the home slice keeps committing."""
    params = dict(locals())
    regions = wan_regions(n_regions, sites_per_region)

    def counters(run):
        cluster = run.cluster
        # undecided at quiescence.  A cross-region coordinator cut
        # off before any participant durably joined leaves a txn
        # nobody can decide — but also nobody holds locks for, so
        # availability is untouched; only undecided txns with live
        # in-doubt participants actually pin data.
        holding = sum(
            bool(cluster.live_undecided(txn))
            for txn, verdict in run.result.txn_outcomes.items()
            if verdict not in ("commit", "abort")
        )
        return {
            **run.engine.tallies,
            "committed": run.result.committed,
            "protocol_aborted": run.result.protocol_aborted,
            "blocked": run.result.blocked,
            "blocked_holding_locks": holding,
            "messages_sent": cluster.network.sent,
            "messages_dropped": cluster.network.dropped,
        }

    return Scenario(
        name="cross_region",
        params=params,
        stream="cross-region",
        catalog=(
            wan_catalog,
            dict(
                n_regions=n_regions,
                sites_per_region=sites_per_region,
                n_items=n_items,
                region_replication=region_replication,
            ),
        ),
        workload=WorkloadSpec(
            n_txns=n_txns,
            footprint=(1, 2),
            cross_region=cross_region,
            mean_spacing=mean_spacing,
        ),
        plan=lambda rng, cluster, first: FailurePlan()
        .partition(partition_window[0], *[list(r) for r in regions])
        .heal(partition_window[1]),
        counters=counters,
        drive="direct",
        regions=regions,
    )


def elastic_join_scenario(
    n_txns: int = 60,
    n_sites: int = 8,
    n_items: int = 6,
    replication: int = 3,
    n_joins: int = 3,
    join_copies: int = 2,
    mean_spacing: float = 1.5,
) -> Scenario:
    """E25 as a scenario: a steady update stream while the network
    splits, ``n_joins`` sites join inside the partition, a second wave
    re-partitions old and new sites together, and the storm heals;
    ``participants_with_joined`` counts transactions enlisting a joiner."""
    params = dict(locals())
    join_ids = list(range(n_sites + 1, n_sites + 1 + n_joins))

    def plan(rng, cluster, first):
        initial = list(cluster.network.sites)
        hot_items = cluster.catalog.item_names[:join_copies]
        first_wave = random_partition_groups(rng, initial, 2)
        storm = FailurePlan()
        storm.partition(15.0, *first_wave)
        for k, joiner in enumerate(join_ids):
            # alternate the joiners across the live components
            near = first_wave[k % len(first_wave)][0]
            storm.join(20.0 + 3.0 * k, joiner, copies={i: 1 for i in hot_items}, near=near)
        second_wave = random_partition_groups(rng, initial + join_ids, 3)
        storm.partition(45.0, *second_wave)
        storm.heal(70.0)
        return storm

    def counters(run):
        cluster, joined = run.cluster, set(join_ids)
        hot_items = cluster.catalog.item_names[:join_copies]
        return {
            **run.result.counters(),
            "joins_applied": sum(1 for a in cluster.injector.applied if isinstance(a, JoinSite)),
            "joined_hosting": sum(
                1 for j in join_ids for i in hot_items if j in cluster.catalog.sites_of(i)
            ),
            "participants_with_joined": sum(
                1 for h in run.engine.handles.values() if joined & set(h.participants)
            ),
            "messages_sent": cluster.network.sent,
            "messages_delivered": cluster.network.delivered,
        }

    # the interactive drive: the spec has no read fraction, so the
    # engine's read fast path is dead and the stream is draw-for-draw
    # the historical update loop
    return Scenario(
        name="elastic_join",
        params=params,
        stream="elastic-join",
        catalog=(random_catalog, dict(n_sites=n_sites, n_items=n_items, replication=replication)),
        workload=WorkloadSpec(n_txns=n_txns, mean_spacing=mean_spacing),
        plan=plan,
        counters=counters,
        mutable=True,
    )

