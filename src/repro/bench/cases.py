"""The default benchmark cases.

Each task function is a module-level callable (so it pickles into pool
workers) that builds its own simulator from its seed and returns its
counters: a dict that is a pure function of the seed and the keywords.
No trial reads a clock — wall time belongs to ``benchmarks/e2e``.

The eleven scenario-driven cases (``heavy_workload`` … ``gray_failure``
below) hold no driver code of their own: each trial is one
:func:`~repro.traffic.run_scenario` call — through
:func:`_scenario_counters` or a public ``run_*`` wrapper — and passes
the driver's shape keywords on as ``**shape``, so defaults live in the
scenario constructors only.

A case is declared in one place, a row of :data:`CASES` at the bottom
of this module: its trial, grid, run count and the trial's keywords at
full and at quick scale.

Representative workloads covered:

* ``scheduler_drain`` — the event-queue hot path: schedule / cancel /
  drain, both handle-carrying and ``call_fixed`` entries.
* ``commit_mix`` — a 2PC / 3PC / QTP commit mix through a mid-run
  partition episode (the paper's protocol spread, E17-flavoured).
* ``heavy_workload`` — E18: Poisson traffic through repeated partition
  episodes (:func:`~repro.experiments.workload_study.heavy_workload_scenario`).
* ``wan_storm`` — E21: 32-site WAN region storms
  (:func:`~repro.workload.scenarios.wan_storm_scenario`).
* ``skewed_contention`` / ``read_mostly`` / ``cross_region_txn`` /
  ``elastic_join`` — E22–E25: the :class:`~repro.workload.spec.WorkloadSpec`
  scenario drivers (Zipf skew, read-dominated mix, cross-region WAN
  transactions, elastic membership under a partition storm), pinned
  from day one (:mod:`repro.experiments.workload_scenarios`).
* ``open_loop_service`` — E26: one open-loop service interval at a
  sustained arrival rate through a partition episode, with streaming
  p50/p99/p999 latency counters
  (:func:`~repro.experiments.service_study.open_loop_scenario`).
* ``ramp_ceiling`` — E26 ramp: step the arrival rate across fresh
  service intervals until the p99 knee or the abort-rate SLO trips;
  pins the discovered throughput ceiling
  (:func:`~repro.experiments.service_study.discover_ceiling`).
* ``rolling_upgrade`` — E27: wave-by-wave graceful leave/rejoin under
  live closed-loop traffic with a retrying client
  (:func:`~repro.experiments.resilience_study.run_rolling_upgrade`).
* ``flash_crowd`` — E28: a piecewise-constant arrival-rate surge
  through the adaptive admission controller
  (:func:`~repro.experiments.resilience_study.run_flash_crowd`).
* ``gray_failure`` — a degraded (slow-not-dead) site plus a flapping
  link under an open-loop service
  (:func:`~repro.experiments.resilience_study.run_gray_failure`).
* ``lock_probe`` — microbench of the vote-hook lock probe against
  heavily shared items: compatibility is two integer tests on the
  exclusive-holder counter, however many readers hold the item.
* ``net_deliver_fanout`` — microbench of the ``Network`` fan-out path
  on the partition-epoch reachable-peer cache, through connected,
  partitioned and crash phases that churn the cache.
* ``wal_append`` — microbench of the WAL append path: the exact
  per-site ``force`` sequences harvested from ``run_heavy_workload``,
  replayed into fresh group-commit/indexed logs.
* ``trace_record`` — microbench of the trace recorder: columnar
  appends, lazy materialization and indexed analysis queries.
* ``partition_churn`` — microbench of storm-heavy partition plans
  against the network's interned ``PartitionView`` cache.
* ``suite_warm_pool`` — microbench of the sweep executor: a campaign
  of small sweeps on one persistent warm pool.
* ``net_fanout_flyweight`` — microbench of the fan-out allocation
  layer: a thin :class:`~repro.net.message.MessageStamp` per
  destination over one shared payload.
* ``zipf_sampling`` — A/B microbench of the Zipf item sampler at a
  ~10^5-item catalog: the historical O(n) cumulative scan
  (``sampler="scan"``) vs the O(1) Walker alias table
  (``sampler="alias"``).  The samplers draw the RNG differently by
  design, so counters differ *across arms* (each arm is deterministic;
  distribution equivalence is pinned by a property test).
* ``recovery_replay`` — microbench of crash recovery's data replay
  over the per-item newest-``apply`` index, on logs harvested from a
  heavy E18 run and replayed at 1x and 4x length (the install counts
  are equal: the replay does not grow with the log).
* ``catalog_memo`` — microbench of per-cell catalog fetches through
  :func:`~repro.workload.generators.memoized_catalog` (state-capture
  memo; the RNG-probe counter pins the caller's stream position after
  every hit).
* ``sweep_streaming`` — A/B microbench of the extreme-scale sweep
  backend at 10^5 cells: the classic accumulate-all-rows path vs the
  streaming ``TeeSink(JsonlSink, ReducerSink)`` pipeline over one
  :class:`~repro.engine.shared.SharedPayload` catalog.  Counters (row
  digest + exact aggregates) are byte-identical across arms.
* ``sweep_resume`` — the same streaming sweep with and without a retry
  policy (``on_error="retry"``, zero faults injected); the artifact SHA
  in the counters is identical across arms.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.bench.suite import BenchCase, BenchSuite
from repro.common.errors import QuorumUnreachableError, TransactionAborted
from repro.concurrency.locks import LockManager, LockMode
from repro.db.cluster import Cluster
from repro.engine.aggregate import CountAcc, MeanAcc, QuantileDigest, RowReducer
from repro.engine.executor import SweepRunner, run_sweep, worker_cache
from repro.engine.shared import SharedPayload
from repro.engine.sink import JsonlSink, ReducerSink, TeeSink, iter_stream_rows
from repro.engine.spec import SweepSpec
from repro.experiments.resilience_study import (
    run_flash_crowd,
    run_gray_failure,
    run_rolling_upgrade,
)
from repro.experiments.service_study import discover_ceiling, open_loop_scenario
from repro.experiments.workload_scenarios import (
    run_cross_region,
    run_elastic_join,
    run_read_mostly,
    run_skewed_contention,
)
from repro.experiments.workload_study import heavy_workload_scenario
from repro.net.network import Network
from repro.net.node import Node
from repro.replay import (
    DEFAULT_CONFIGS,
    cluster_counters,
    fixed_point_ok,
    record_heavy_workload,
    replay_trace,
)
from repro.sim.failures import FailurePlan
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer
from repro.storage.wal import WriteAheadLog
from repro.traffic import run_scenario
from repro.workload.generators import random_catalog, random_partition_groups
from repro.workload.scenarios import wan_storm_scenario


def _scenario_counters(scenario: Any, protocol: str, seed: int) -> dict[str, Any]:
    """One scenario run: its own counters plus the cluster fingerprint
    (network / WAL / scheduler tallies)."""
    run = run_scenario(scenario, protocol, seed)
    return {**run.counters(), **cluster_counters(run.cluster)}


# ----------------------------------------------------------------------
# scheduler drain
# ----------------------------------------------------------------------


def scheduler_drain_trial(seed: int, n_events: int = 20_000) -> dict[str, Any]:
    """Schedule ``n_events`` (hash-scattered times), cancel a third,
    add a ``call_fixed`` batch, drain — the PR 1 scheduler mix plus the
    non-cancellable fast entries deliveries now use."""
    sched = Scheduler()
    handles = [
        sched.call_at(float((i * 2654435761 + seed) % 997), _noop) for i in range(n_events)
    ]
    for handle in handles[::3]:
        handle.cancel()
    for i in range(n_events // 2):
        sched.call_fixed(float((i * 40503 + seed) % 997), _noop)
    sched.run()
    return {
        "events_run": sched.events_run,
        "pending_after": sched.pending,
        "final_now": sched.now,
    }


def _noop() -> None:
    """Scheduler filler event."""


# ----------------------------------------------------------------------
# commit mix
# ----------------------------------------------------------------------


def commit_mix_trial(seed: int, protocol: str, n_txns: int = 16) -> dict[str, Any]:
    """Drive ``n_txns`` single-item updates through one partition
    episode under ``protocol`` and tally outcomes and traffic."""
    registry = RngRegistry(seed)
    rng = registry.stream("commit-mix")
    catalog = random_catalog(rng, n_sites=6, n_items=4, replication=3)
    cluster = Cluster(catalog, protocol=protocol, seed=seed)
    groups = random_partition_groups(rng, cluster.network.sites, 2)
    cluster.arm_failures(FailurePlan().partition(25.0, *groups).heal(60.0))

    outcomes: dict[str, str] = {}

    def submit_one(index: int) -> None:
        item = rng.choice(catalog.item_names)
        origin = rng.choice(catalog.sites_of(item))
        if not cluster.sites[origin].alive:
            return
        try:
            handle = cluster.update(origin, {item: index})
        except (QuorumUnreachableError, TransactionAborted):
            outcomes[f"client-{index}"] = "client-aborted"
            return
        outcomes[handle.txn] = "submitted"

    for i in range(n_txns):
        cluster.scheduler.call_at(1.0 + i * 5.0, submit_one, i)
    cluster.run()

    tally = {"commit": 0, "abort": 0, "blocked": 0, "client-aborted": 0}
    for txn, status in outcomes.items():
        if status == "client-aborted":
            tally["client-aborted"] += 1
            continue
        verdict = cluster.outcome(txn).outcome
        tally[verdict] = tally.get(verdict, 0) + 1
    return {**tally, **cluster_counters(cluster)}


# ----------------------------------------------------------------------
# E18 heavy workload
# ----------------------------------------------------------------------


def heavy_workload_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E18 heavy-traffic run; counters from the workload result plus
    the cluster probe (network / WAL / scheduler tallies)."""
    return _scenario_counters(heavy_workload_scenario(**shape), protocol, seed)


# ----------------------------------------------------------------------
# E21 WAN region storm
# ----------------------------------------------------------------------


def wan_storm_trial(seed: int, protocol: str, heal: bool) -> dict[str, Any]:
    """One E21 region-storm run at full installation scale."""
    return _scenario_counters(wan_storm_scenario(heal=heal), protocol, seed)


# ----------------------------------------------------------------------
# E22–E25 workload-spec scenarios
# ----------------------------------------------------------------------


def skewed_contention_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E22 Zipf-contention run (hot-item conflicts are the point)."""
    return run_skewed_contention(protocol, seed=seed, **shape)


def read_mostly_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E23 read-dominated-mix run."""
    return run_read_mostly(protocol, seed=seed, **shape)


def cross_region_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E24 cross-region WAN-transaction run."""
    return run_cross_region(protocol, seed=seed, **shape)


def elastic_join_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E25 elastic-join-under-storm run."""
    return run_elastic_join(protocol, seed=seed, **shape)


# ----------------------------------------------------------------------
# E26 open-loop service + SLO ramp
# ----------------------------------------------------------------------


def open_loop_service_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E26 open-loop service interval; counters from the service
    result (offered / shed / latency percentiles) plus the cluster
    probe (network / WAL / scheduler tallies)."""
    return _scenario_counters(open_loop_scenario(**shape), protocol, seed)


def ramp_ceiling_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E26 ramp-discovery sweep; counters pin the discovered
    ceiling, what tripped it, and the per-step p99 / committed / shed
    trajectories."""
    return discover_ceiling(protocol, seed=seed, **shape).counters()


# ----------------------------------------------------------------------
# E27/E28 resilience scenarios
# ----------------------------------------------------------------------


def rolling_upgrade_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E27 rolling-upgrade run (graceful leave/rejoin waves under
    live retrying traffic)."""
    return run_rolling_upgrade(protocol, seed=seed, **shape)


def flash_crowd_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E28 flash-crowd run (rate-schedule surge through the
    adaptive admission window)."""
    return run_flash_crowd(protocol, seed=seed, **shape)


def gray_failure_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One gray-failure service run (degraded site + flapping link)."""
    return run_gray_failure(protocol, seed=seed, **shape)


# ----------------------------------------------------------------------
# lock-probe microbench
# ----------------------------------------------------------------------


def lock_probe_trial(
    seed: int, n_readers: int = 400, probes: int = 20_000, n_items: int = 12
) -> dict[str, Any]:
    """Vote-hook lock probes against heavily shared items.

    ``n_readers`` transactions hold shared locks on every item, then a
    prober replays a pre-drawn script of ``try_acquire`` calls (mostly
    shared, a quarter exclusive).  Every probe is answered from the
    item's exclusive-holder counter, so its cost does not grow with
    ``n_readers``.
    """
    rng = RngRegistry(seed).stream("lock-probe")
    manager = LockManager(0)
    items = [f"item-{i}" for i in range(n_items)]
    script = [(rng.choice(items), rng.random() < 0.25) for _ in range(probes)]

    granted = refused = 0
    for reader in range(n_readers):
        for item in items:
            manager.try_acquire(f"reader-{reader}", item, LockMode.SHARED)
    for item, exclusive in script:
        mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
        if manager.try_acquire("prober", item, mode):
            granted += 1
            manager.release_all("prober")
        else:
            refused += 1
    for reader in range(n_readers):
        manager.release_all(f"reader-{reader}")
    return {
        "granted": granted,
        "refused": refused,
        "probes": probes,
        "readers": n_readers,
        "table_empty": not manager._items,
    }


# ----------------------------------------------------------------------
# Network.deliver fan-out microbench
# ----------------------------------------------------------------------


class _Sink(Node):
    """Minimal node that swallows bench pings."""

    def __init__(self, node_id: int, network: Network) -> None:
        super().__init__(node_id, network)
        self.on("bench.ping", _swallow)


def _swallow(msg: Any) -> None:
    """Bench ping handler."""


def net_fanout_trial(seed: int, n_sites: int = 24, rounds: int = 40) -> dict[str, Any]:
    """Broadcast storms through connected, partitioned and crash phases.

    Every storm rides the partition-epoch reachable-peer cache; the
    phase changes (partition, crash, heal, recover) deliberately churn
    the cache so invalidation is part of the pinned behaviour.
    """
    sched = Scheduler()
    network = Network(sched, Tracer(capacity=0), RngRegistry(seed))
    nodes = [_Sink(i, network) for i in range(n_sites)]
    third = n_sites // 3
    everyone = list(range(n_sites))

    def storm() -> None:
        for node in nodes:
            if node.alive:
                node.broadcast(everyone, "bench.ping", "T")
        sched.run()

    for _ in range(rounds):
        # phase 1: fully connected fan-out (the common protocol case,
        # weighted double — most protocol traffic runs unpartitioned)
        storm()
        storm()
        # phase 2: two components — cross-component fan-out drops
        network.set_partition([everyone[: 2 * third], everyone[2 * third :]])
        storm()
        # phase 3: crashes + a three-way split mid-flight
        network.crash_site(0)
        network.crash_site(n_sites - 1)
        network.set_partition([everyone[:third], everyone[third : 2 * third], everyone[2 * third :]])
        storm()
        # phase 4: heal and recover — cache busted again
        network.heal()
        network.recover_site(0)
        network.recover_site(n_sites - 1)
    return {
        "sent": network.sent,
        "delivered": network.delivered,
        "dropped": network.dropped,
        "events_run": sched.events_run,
        "epochs": network.epoch,
    }


# ----------------------------------------------------------------------
# fan-out flyweight microbench
# ----------------------------------------------------------------------


def net_fanout_flyweight_trial(seed: int, n_sites: int = 32, rounds: int = 60) -> dict[str, Any]:
    """Broadcast storms over per-destination stamps.

    Each ``multicast`` stamps one
    :class:`~repro.net.message.MessageStamp` per destination over the
    shared payload; every round drains the scheduler so the delivery
    counters pin the behaviour.  A partitioned phase exercises the drop
    path's stamp handling too.
    """
    sched = Scheduler()
    network = Network(sched, Tracer(capacity=0), RngRegistry(seed))
    nodes = [_Sink(i, network) for i in range(n_sites)]
    everyone = list(range(n_sites))
    half = n_sites // 2

    def storm() -> None:
        for node in nodes:
            node.multicast(everyone, "bench.ping", "T")

    for _ in range(rounds):
        storm()
        storm()
        network.set_partition([everyone[:half], everyone[half:]])
        storm()
        network.heal()
        sched.run()
    return {
        "sent": network.sent,
        "delivered": network.delivered,
        "dropped": network.dropped,
        "events_run": sched.events_run,
    }


# ----------------------------------------------------------------------
# Zipf sampling microbench
# ----------------------------------------------------------------------


def _zipf_bench_catalog(n_items: int) -> Any:
    """A huge synthetic catalog (pure — no RNG, so worker-cacheable).

    Every item shares one frozen copies mapping (three sites, one vote
    each) to keep 10^5 :class:`ItemConfig` rows cheap; names are
    zero-padded so rank order equals name order.
    """
    from repro.replication.catalog import ItemConfig, ReplicaCatalog

    copies = {1: 1, 2: 1, 3: 1}
    return ReplicaCatalog(
        ItemConfig(f"i{i:07d}", copies, 2, 2) for i in range(n_items)
    )


def zipf_sampling_trial(
    seed: int,
    alias: bool,
    n_items: int = 100_000,
    draws: int = 240,
    fp_draws: int = 40,
    zipf_s: float = 1.1,
) -> dict[str, Any]:
    """Draw Zipf item picks and footprints from a very large catalog.

    The ``alias`` grid axis selects the historical cumulative scan
    (``False``, O(n) per draw — and O(n) list copies per footprint) or
    the Walker alias table (``True``, O(1) per draw with
    rejection-on-alias footprints).  Counters are deterministic per arm
    but differ across arms — the two samplers consume the RNG
    differently by design; their *distributions* agree (see
    ``tests/property/test_prop_workload.py``).
    """
    from repro.workload.spec import WorkloadSpec

    catalog = worker_cache(
        ("zipf-bench-catalog", n_items), lambda: _zipf_bench_catalog(n_items)
    )
    rng = RngRegistry(seed).stream("zipf-sampling")
    spec = WorkloadSpec(
        popularity="zipf",
        zipf_s=zipf_s,
        footprint=(2, 4),
        sampler="alias" if alias else "scan",
    )
    compiled = spec.compile(catalog)
    head = 0  # draws landing on the ten hottest ranks
    index_sum = 0
    for _ in range(draws):
        rank = int(compiled.pick_item(rng)[1:])
        index_sum += rank
        head += rank < 10
    fp_items = 0
    fp_index_sum = 0
    for _ in range(fp_draws):
        picked = compiled.pick_items(rng)
        fp_items += len(picked)
        fp_index_sum += sum(int(name[1:]) for name in picked)
    return {
        "draws": draws,
        "head_hits": head,
        "index_sum": index_sum,
        "fp_draws": fp_draws,
        "fp_items": fp_items,
        "fp_index_sum": fp_index_sum,
    }


# ----------------------------------------------------------------------
# recovery replay microbench
# ----------------------------------------------------------------------


def _heavy_wal_sequences(seed: int, n_txns: int, n_sites: int) -> dict[int, list[Any]]:
    """Every site's ``force`` sequence from one deterministic E18 run."""
    run = run_scenario(heavy_workload_scenario(n_txns=n_txns, n_sites=n_sites), "qtp1", seed)
    return {
        sid: [(r.txn, r.kind, dict(r.payload)) for r in site.wal]
        for sid, site in run.cluster.sites.items()
    }


def recovery_replay_trial(
    seed: int,
    n_txns: int = 260,
    n_sites: int = 8,
) -> dict[str, Any]:
    """Replay crash recovery against WALs harvested from a heavy run.

    A deterministic E18 run is executed once per seed and every site's
    ``force`` sequence is harvested; the sequences are then appended
    into fresh logs at 1x and 4x length (the 4x log repeats the
    sequence, modelling a longer history whose re-applied versions are
    stale).  :func:`~repro.storage.recovery.replay_data` then runs
    against fresh version-0 stores; it walks the per-item
    newest-``apply`` index, O(items touched), so the install counts at
    1x and 4x are equal and the checksum counters pin the replayed
    stores.
    """
    from repro.storage.recovery import replay_data
    from repro.storage.store import ReplicaStore

    sequences = _heavy_wal_sequences(seed, n_txns, n_sites)

    def build_wal(sid: int, scale: int) -> WriteAheadLog:
        wal = WriteAheadLog(sid)
        for _ in range(scale):
            for txn, kind, payload in sequences[sid]:
                wal.force(txn, kind, **payload)
        return wal

    def fresh_store(sid: int, wal: WriteAheadLog) -> ReplicaStore:
        store = ReplicaStore(sid)
        for record in wal:
            if record.kind == "apply" and not store.hosts(record.payload["item"]):
                store.host(record.payload["item"], value=0, version=0)
        return store

    counters: dict[str, Any] = {}
    for scale in (1, 4):
        wals = {sid: build_wal(sid, scale) for sid in sequences}
        stores = {sid: fresh_store(sid, wal) for sid, wal in wals.items()}
        installed = sum(replay_data(wals[sid], stores[sid]) for sid in wals)
        checksum = 0
        for sid in sorted(wals):
            for item, versioned in stores[sid].items():
                checksum += versioned.version * 31 + (versioned.value or 0)
        counters[f"wal_records_{scale}x"] = sum(len(w) for w in wals.values())
        counters[f"installed_{scale}x"] = installed
        counters[f"store_checksum_{scale}x"] = checksum
    return counters


# ----------------------------------------------------------------------
# catalog memo microbench
# ----------------------------------------------------------------------


def catalog_memo_trial(
    seed: int,
    n_regions: int = 4,
    sites_per_region: int = 8,
    n_items: int = 48,
    reuses: int = 12,
) -> dict[str, Any]:
    """Fetch one sweep's catalog memoized, once per grid cell.

    Emulates the ``seeding="offset"`` shape: ``reuses`` grid cells each
    re-derive the same named stream for the same seed and need the same
    catalog.  :func:`~repro.workload.generators.memoized_catalog`
    builds it once (a :func:`~repro.workload.generators.wan_catalog`)
    and answers every later cell by state-capture hit.  The RNG probe
    drawn *after* the catalog must be what a fresh build per cell would
    leave — that is the stream-identity contract the memo keeps.
    """
    from repro.workload.generators import memoized_catalog, wan_catalog

    checksum = 0
    probe_sum = 0.0
    key = ("catalog-memo-bench", seed, n_regions, sites_per_region, n_items)

    def build(r: Any) -> Any:
        return wan_catalog(
            r,
            n_regions=n_regions,
            sites_per_region=sites_per_region,
            n_items=n_items,
            region_replication=3,
        )

    for _cell in range(reuses):
        rng = RngRegistry(seed).stream("catalog-memo-bench")
        catalog = memoized_catalog(rng, key, build)
        probe_sum += rng.random()  # stream position after the build
        names = catalog.item_names
        checksum += len(names) + sum(catalog.v(i) for i in names[:8])
    return {
        "reuses": reuses,
        "checksum": checksum,
        "probe_sum": probe_sum,
    }


# ----------------------------------------------------------------------
# WAL append microbench
# ----------------------------------------------------------------------


def wal_append_trial(
    seed: int,
    n_txns: int = 260,
    n_sites: int = 8,
) -> dict[str, Any]:
    """Replay ``run_heavy_workload``'s exact WAL force sequences.

    A heavy E18 run is executed once (deterministic per seed) and every
    site's ``force`` call sequence is harvested from its log; the
    sequences are then replayed into fresh logs, so the counters are
    the WAL append path itself (group-commit accounting plus index
    upkeep) under a real workload's record mix.
    """
    sequences = _heavy_wal_sequences(seed, n_txns, n_sites)
    total_forced = 0
    total_flushes = 0
    kinds: dict[str, int] = {}
    logs = {sid: WriteAheadLog(sid) for sid in sequences}
    for sid, seq in sequences.items():
        wal = logs[sid]
        for txn, kind, payload in seq:
            wal.force(txn, kind, **payload)
    for wal in logs.values():
        total_forced += wal.forced
        total_flushes += wal.flushes
        for record in wal:
            kinds[record.kind] = kinds.get(record.kind, 0) + 1
    return {
        "forced": total_forced,
        "flushes": total_flushes,
        "open_txns": sum(len(w.open_txns()) for w in logs.values()),
        **{f"kind_{k}": v for k, v in sorted(kinds.items())},
    }


# ----------------------------------------------------------------------
# trace recorder microbench
# ----------------------------------------------------------------------

#: message types the synthetic trace mix draws from (protocol-shaped).
_TRACE_MTYPES = (
    "qtp1.vote-req",
    "qtp1.vote",
    "qtp1.prepare",
    "qtp1.ack",
    "qtp1.decision",
    "term.state-req",
    "term.state",
)


def trace_record_trial(
    seed: int,
    n_events: int = 40_000,
    n_sites: int = 24,
    n_txns: int = 48,
    queries: int = 120,
) -> dict[str, Any]:
    """Record a protocol-shaped event mix, then run the analysis queries.

    The mix mirrors a commit run — mostly sends and delivers with txn
    ids, a tail of state transitions, decisions and quorum checks — and
    the query phase asks what the analysis layer asks (``where`` by
    category+site, ``count``, per-txn ``decisions``,
    ``message_counts``).
    """
    rng = RngRegistry(seed).stream("trace-bench")
    tracer = Tracer()
    n_mtypes = len(_TRACE_MTYPES)
    t = 0.0
    for _ in range(n_events):
        t += 0.25
        kind = rng.randrange(100)
        site = rng.randrange(n_sites)
        txn = f"T{rng.randrange(n_txns)}"
        if kind < 35:
            tracer.record_send(
                t, site, txn, _TRACE_MTYPES[rng.randrange(n_mtypes)], rng.randrange(n_sites)
            )
        elif kind < 65:
            tracer.record_deliver(
                t, site, txn, _TRACE_MTYPES[rng.randrange(n_mtypes)], rng.randrange(n_sites)
            )
        elif kind < 72:
            tracer.record_drop(
                t,
                site,
                txn,
                _TRACE_MTYPES[rng.randrange(n_mtypes)],
                rng.randrange(n_sites),
                "partitioned",
            )
        elif kind < 90:
            tracer.record(t, site, "state", txn, src="W", dst="PC")
        elif kind < 96:
            tracer.record(t, site, "decision", txn, outcome="commit" if kind % 2 else "abort")
        else:
            tracer.record(t, site, "quorum", txn, ok=bool(kind % 2))
    query_hits = 0
    cats = ("send", "deliver", "decision", "state", "drop")
    for q in range(queries):
        cat = cats[q % len(cats)]
        query_hits += len(tracer.where(category=cat, site=q % n_sites))
        query_hits += tracer.count(cat)
    decided_sites = 0
    for i in range(n_txns):
        decided_sites += len(tracer.decisions(f"T{i}"))
    histogram = tracer.message_counts()
    return {
        "records": len(tracer),
        "dropped": tracer.dropped,
        "query_hits": query_hits,
        "decided_sites": decided_sites,
        "mtypes": len(histogram),
        "messages_counted": sum(histogram.values()),
    }


# ----------------------------------------------------------------------
# partition churn microbench
# ----------------------------------------------------------------------


def partition_churn_trial(
    seed: int,
    n_sites: int = 64,
    n_plans: int = 6,
    rounds: int = 120,
) -> dict[str, Any]:
    """Replay a storm plan's partition/heal cycle against live views.

    A handful of distinct group layouts recur across many rounds —
    exactly the shape of :func:`region_storm_plan` waves — so after the
    first round every ``set_partition`` is a hit in the network's
    interned view cache, and each partition event also pays its trace
    record (whose component rendering the interned views memoize).
    """
    rng = RngRegistry(seed).stream("churn-bench")
    sched = Scheduler()
    tracer = Tracer()
    network = Network(sched, tracer, RngRegistry(seed))
    for i in range(n_sites):
        _Sink(i, network)
    plans = [
        tuple(tuple(g) for g in random_partition_groups(rng, network.sites, 1 + q % 3))
        for q in range(n_plans)
    ]
    checksum = 0
    for r in range(rounds):
        for plan in plans:
            network.set_partition(plan)
            view = network.partition
            checksum += len(view.components)
            # the questions termination keeps asking under a storm
            src = (r + len(plan)) % n_sites
            checksum += len(view.component_of(src))
            checksum += view.reachable(src, (src + 7) % n_sites)
        network.heal()
    return {
        "epochs": network.epoch,
        "partitions_traced": tracer.count("partition"),
        "heals_traced": tracer.count("heal"),
        "checksum": checksum,
    }


# ----------------------------------------------------------------------
# persistent-pool executor microbench
# ----------------------------------------------------------------------


def _probe_catalog() -> Any:
    """A small pure catalog (no RNG) for the warm-pool probe task."""
    from repro.replication.catalog import CatalogBuilder

    builder = CatalogBuilder()
    for i in range(4):
        builder.replicated_item(f"p{i}", sites=[1, 2, 3], r=2, w=2)
    return builder.build()


def warm_pool_probe(seed: int, n_events: int = 500) -> dict[str, Any]:
    """One small sweep task: a mini scheduler drain over a cached catalog.

    Deliberately light — the ``suite_warm_pool`` case exercises the
    executor, not the task.  The catalog goes through
    :func:`~repro.engine.executor.worker_cache`, so a warm worker
    builds it once across every sweep of the campaign.
    """
    catalog = worker_cache(("bench-probe-catalog",), _probe_catalog)
    sched = Scheduler()
    for i in range(n_events):
        sched.call_fixed(float((i * 2654435761 + seed) % 211), _noop)
    sched.run()
    return {
        "events_run": sched.events_run,
        "items": len(catalog.item_names),
        "final_now": sched.now,
    }


def suite_warm_pool_trial(
    seed: int,
    n_sweeps: int = 6,
    runs_per_sweep: int = 8,
    pool_workers: int = 2,
    probe_events: int = 500,
) -> dict[str, Any]:
    """Run a campaign of small sweeps on one warm pool.

    A single :class:`~repro.engine.executor.SweepRunner` is kept alive
    across the whole campaign — the shape of the bench suite itself,
    whose cases all ride one warm pool under ``--persistent-pool``.
    Counters must be what a process pool created and torn down inside
    every ``run_sweep`` call yields.  In environments where pools
    cannot be created at all (sandboxes, nested pools) the runner
    degrades to serial and the counters stay identical.
    """
    specs = [
        SweepSpec(
            name=f"warm-pool-{i}",
            task=warm_pool_probe,
            grid={},
            runs=runs_per_sweep,
            base_seed=seed * 1009 + i,
            fixed={"n_events": probe_events},
        )
        for i in range(n_sweeps)
    ]
    with SweepRunner(workers=pool_workers) as runner:
        outcomes = [runner.run_sweep(spec) for spec in specs]
    events = 0
    checksum = 0
    tasks = 0
    for outcome in outcomes:
        for result in outcome.results:
            tasks += 1
            events += result.value["events_run"]
            checksum += int(result.value["final_now"]) + result.seed % 997
    return {
        "sweeps": len(outcomes),
        "tasks": tasks,
        "events_run": events,
        "checksum": checksum,
    }


# ----------------------------------------------------------------------
# trace-replay tournament
# ----------------------------------------------------------------------


def trace_replay_trial(
    seed: int, configs: tuple[str, ...], n_txns: int, n_sites: int
) -> dict[str, Any]:
    """Record one E18 heavy-traffic run and replay it against the
    what-if configuration matrix.

    The trace is recorded once; each named configuration then replays
    the identical op + failure stream and contributes its diff-table
    counters.  The ``recorded``
    configuration doubles as the record→replay fixed-point check: its
    ``fixed_point`` counter pins that replaying a recording of config C
    under config C reproduces the original deterministic counters.
    """
    trace = record_heavy_workload("qtp1", seed=seed, n_txns=n_txns, n_sites=n_sites)
    by_name = {c.name: c for c in DEFAULT_CONFIGS}
    counters: dict[str, Any] = {}
    for name in configs:
        row = replay_trace(trace, by_name[name])
        if name == "recorded":
            counters["fixed_point"] = fixed_point_ok(trace, row)
        for key in (
            "committed",
            "protocol_aborted",
            "client_aborted",
            "blocked",
            "skipped_ops",
            "messages_sent",
            "events_run",
            "wal_forced",
        ):
            counters[f"{name}_{key}"] = row[key]
        counters[f"{name}_latency"] = round(row["mean_commit_latency"], 6)
    return counters


# ----------------------------------------------------------------------
# streaming sweep microbench
# ----------------------------------------------------------------------


def streaming_probe_cell(seed: int, catalog: Any, n_items: int) -> dict[str, Any]:
    """One cheap probe row against the shared bench catalog.

    The work per cell is deliberately tiny — a quorum lookup plus a few
    RNG draws — so the case exercises the *engine's* per-row path (task
    dispatch, row encoding, sink write), not a simulator.  ``catalog``
    arrives as a resolved :class:`~repro.engine.shared.SharedPayload`,
    so every one of the 10^5 cells reads the same published object
    instead of re-pickling a 50k-item catalog per task.
    """
    rng = RngRegistry(seed).stream("streaming-probe")
    pick = rng.randrange(n_items)
    return {
        "votes": catalog.v(f"i{pick:07d}"),
        "latency": rng.expovariate(1.0) + 0.5,
        "committed": rng.random() < 0.9,
        "hot": pick < 10,
    }


def _streaming_reducer() -> RowReducer:
    """The aggregate layout both arms of ``sweep_streaming`` fold into."""
    return RowReducer(
        (
            ("latency", "latency", MeanAcc()),
            ("latency_digest", "latency", QuantileDigest(0.0, 20.0)),
            ("committed", "committed", CountAcc()),
            ("votes", "votes", MeanAcc()),
        )
    )


def sweep_streaming_trial(
    seed: int,
    streaming: bool,
    n_cells: int = 2_000,
    n_items: int = 500,
) -> dict[str, Any]:
    """A/B of the classic accumulate-then-aggregate sweep vs streaming.

    Both arms execute the same inner sweep — ``n_cells`` probe rows
    against one :class:`~repro.engine.shared.SharedPayload` catalog
    (published once per process via ``worker_cache``) — and fold the
    same :func:`_streaming_reducer` aggregates:

    * ``streaming=False`` — the historical shape: the default
      ``run_sweep`` keeps every row in RAM, then the reducer folds the
      accumulated list.
    * ``streaming=True`` — the extreme-scale shape: rows flow through
      ``TeeSink(JsonlSink, ReducerSink)``, so aggregation and the
      gzip'd JSONL artifact are built incrementally and no row list
      ever exists; the artifact is then re-counted via
      :func:`~repro.engine.sink.iter_stream_rows` to pin the round
      trip.

    The counters come from the reducer summary plus the order-independent
    row digest, so they are byte-identical across arms and across
    worker counts — that equality is the CI gate on the streaming
    backend.
    """
    import tempfile
    from pathlib import Path

    handle = worker_cache(
        ("streaming-bench-payload", n_items),
        lambda: SharedPayload.publish(
            _zipf_bench_catalog(n_items), label="streaming-bench-catalog"
        ),
    )
    spec = SweepSpec(
        name="bench-sweep-streaming-cells",
        task=streaming_probe_cell,
        grid={},
        runs=n_cells,
        base_seed=seed,
        seeding="offset",
        fixed={"catalog": handle, "n_items": n_items},
    )
    reducer = _streaming_reducer()
    if streaming:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.jsonl.gz"
            run_sweep(spec, sink=TeeSink(JsonlSink(path), ReducerSink(reducer)))
            rows_loaded = sum(1 for _row in iter_stream_rows(path))
    else:
        outcome = run_sweep(spec)
        for result in outcome.results:
            reducer.fold(result)
        rows_loaded = len(outcome.results)
    agg = reducer.summary()
    latency = agg["metrics"]["latency"]
    digest = agg["metrics"]["latency_digest"]
    committed = agg["metrics"]["committed"]["counts"]
    return {
        "rows": agg["rows"],
        "row_digest": agg["digest"],
        "rows_loaded": rows_loaded,
        "latency_mean": round(latency["mean"], 6),
        "latency_sd": round(latency["sd"], 6),
        "latency_p50": round(digest["p50"], 6),
        "latency_p99": round(digest["p99"], 6),
        "committed_true": committed.get("True", 0),
        "committed_false": committed.get("False", 0),
        "votes_mean": round(agg["metrics"]["votes"]["mean"], 6),
    }


def sweep_resume_trial(
    seed: int,
    resilient: bool,
    n_cells: int = 1_000,
    n_items: int = 200,
) -> dict[str, Any]:
    """The same streaming sweep with and without a retry policy.

    Both arms run the same probe sweep into a ``JsonlSink`` artifact
    through the engine's one loop; they differ only by the policy
    handed to it — ``resilient=True`` passes ``on_error="retry"``, with
    **zero faults injected**.  The committed counters include a
    truncated SHA-256 of the artifact bytes, so the baseline itself
    proves a policy that never fires changes no byte.
    """
    import hashlib
    import tempfile
    from pathlib import Path

    handle = worker_cache(
        ("resume-bench-payload", n_items),
        lambda: SharedPayload.publish(
            _zipf_bench_catalog(n_items), label="resume-bench-catalog"
        ),
    )
    spec = SweepSpec(
        name="bench-sweep-resume-cells",
        task=streaming_probe_cell,
        grid={},
        runs=n_cells,
        base_seed=seed,
        seeding="offset",
        fixed={"catalog": handle, "n_items": n_items},
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl.gz"
        if resilient:
            outcome = run_sweep(spec, sink=JsonlSink(path), on_error="retry")
        else:
            outcome = run_sweep(spec, sink=JsonlSink(path))
        artifact_sha = hashlib.sha256(path.read_bytes()).hexdigest()
        rows_loaded = sum(1 for _row in iter_stream_rows(path))
    agg = outcome.aggregate or {}
    resilience = outcome.resilience or {}
    return {
        "rows": agg["rows"],
        "row_digest": agg["digest"],
        "rows_loaded": rows_loaded,
        # identical in both arms by the crash-anywhere property;
        # truncated so the committed JSON stays readable in review
        "artifact_sha": artifact_sha[:16],
        "retried": resilience.get("retried", 0),
        "quarantined": len(resilience.get("quarantined", [])),
    }


# ----------------------------------------------------------------------
# the default suite
# ----------------------------------------------------------------------


class _Row(NamedTuple):
    """One case, declared once: its trial, its sweep shape, and the
    trial's keywords at full (committed baselines) and quick (tests)
    scale."""

    task: Callable[..., dict[str, Any]]
    grid: dict[str, list[Any]]
    runs: int
    full: dict[str, Any]
    quick: dict[str, Any]
    seeding: str = "offset"


#: the registry, in run order: ``BENCH_<name>.json`` is the sweep
#: ``bench-<name>``.  Adding a case is one trial function above plus
#: one row here (then ``bench update``).
CASES: dict[str, _Row] = {
    "scheduler_drain": _Row(
        scheduler_drain_trial, {}, 2, full={"n_events": 20_000}, quick={"n_events": 2_000}, seeding="derived"
    ),
    "commit_mix": _Row(
        commit_mix_trial,
        {"protocol": ["2pc", "3pc", "qtp1", "qtp2"]},
        2,
        full={"n_txns": 16},
        quick={"n_txns": 6},
    ),
    "heavy_workload": _Row(
        heavy_workload_trial,
        {"protocol": ["2pc", "qtp1"]},
        2,
        full={"n_txns": 120, "n_sites": 12},
        quick={"n_txns": 24, "n_sites": 6},
    ),
    "wan_storm": _Row(
        wan_storm_trial, {"protocol": ["qtp1", "qtp2"], "heal": [False, True]}, 1, full={}, quick={}
    ),
    "skewed_contention": _Row(
        skewed_contention_trial, {"protocol": ["2pc", "qtp1"]}, 2, full={"n_txns": 80}, quick={"n_txns": 16}
    ),
    "read_mostly": _Row(
        read_mostly_trial, {"protocol": ["2pc", "qtp1"]}, 2, full={"n_txns": 100}, quick={"n_txns": 20}
    ),
    "cross_region_txn": _Row(
        cross_region_trial, {"protocol": ["qtp1", "qtp2"]}, 2, full={"n_txns": 40}, quick={"n_txns": 10}
    ),
    "elastic_join": _Row(
        elastic_join_trial, {"protocol": ["qtp1", "qtp2"]}, 2, full={"n_txns": 60}, quick={"n_txns": 24}
    ),
    "open_loop_service": _Row(
        open_loop_service_trial,
        {"protocol": ["2pc", "qtp1"]},
        2,
        full={"rate": 1.5, "duration": 120.0, "n_sites": 9},
        quick={"rate": 0.8, "duration": 30.0, "n_sites": 6},
    ),
    "ramp_ceiling": _Row(
        ramp_ceiling_trial,
        {"protocol": ["qtp1", "qtp2"]},
        1,
        full={"rates": [0.5, 1.0, 2.0, 4.0, 8.0], "duration": 60.0},
        quick={"rates": [0.5, 1.5], "duration": 20.0},
    ),
    "rolling_upgrade": _Row(
        rolling_upgrade_trial,
        {"protocol": ["qtp1", "qtp2"]},
        2,
        full={"n_txns": 70, "waves": 3},
        quick={"n_txns": 30, "waves": 2},
    ),
    "flash_crowd": _Row(
        flash_crowd_trial,
        {"protocol": ["2pc", "qtp2"]},
        2,
        full={"duration": 120.0, "surge_start": 40.0, "surge_length": 30.0},
        quick={"duration": 60.0, "surge_start": 20.0, "surge_length": 15.0},
    ),
    "gray_failure": _Row(
        gray_failure_trial,
        {"protocol": ["qtp1", "qtp2"]},
        2,
        full={"rate": 1.5, "duration": 120.0, "episode_start": 30.0, "episode_length": 40.0},
        quick={"rate": 0.8, "duration": 40.0, "episode_start": 10.0, "episode_length": 20.0},
    ),
    "lock_probe": _Row(
        lock_probe_trial,
        {},
        2,
        full={"n_readers": 400, "probes": 20_000},
        quick={"n_readers": 40, "probes": 1_000},
    ),
    "net_deliver_fanout": _Row(net_fanout_trial, {}, 2, full={"rounds": 40}, quick={"rounds": 3}),
    "wal_append": _Row(wal_append_trial, {}, 2, full={"n_txns": 400}, quick={"n_txns": 40}),
    "trace_record": _Row(
        trace_record_trial,
        {},
        2,
        full={"n_events": 40_000, "queries": 120},
        quick={"n_events": 3_000, "queries": 20},
    ),
    "partition_churn": _Row(
        partition_churn_trial, {}, 2, full={"n_sites": 64, "rounds": 120}, quick={"n_sites": 12, "rounds": 6}
    ),
    "suite_warm_pool": _Row(
        suite_warm_pool_trial,
        {},
        2,
        full={"n_sweeps": 6, "runs_per_sweep": 8},
        quick={"n_sweeps": 2, "runs_per_sweep": 3},
    ),
    "net_fanout_flyweight": _Row(
        net_fanout_flyweight_trial,
        {},
        2,
        full={"n_sites": 32, "rounds": 60},
        quick={"n_sites": 10, "rounds": 4},
    ),
    "zipf_sampling": _Row(
        zipf_sampling_trial,
        {"alias": [False, True]},
        2,
        full={"n_items": 100_000, "draws": 240, "fp_draws": 40},
        quick={"n_items": 2_000, "draws": 60, "fp_draws": 10},
    ),
    "recovery_replay": _Row(recovery_replay_trial, {}, 2, full={"n_txns": 260}, quick={"n_txns": 40}),
    "catalog_memo": _Row(catalog_memo_trial, {}, 2, full={"reuses": 12}, quick={"reuses": 4}),
    "trace_replay_tournament": _Row(
        trace_replay_trial,
        {},
        2,
        full={"configs": ["recorded", "2pc", "3pc", "rowa"], "n_txns": 60, "n_sites": 8},
        quick={"configs": ["recorded", "2pc", "3pc", "rowa"], "n_txns": 16, "n_sites": 6},
    ),
    "sweep_streaming": _Row(
        sweep_streaming_trial,
        {"streaming": [False, True]},
        1,
        full={"n_cells": 100_000, "n_items": 50_000},
        quick={"n_cells": 2_000, "n_items": 500},
    ),
    "sweep_resume": _Row(
        sweep_resume_trial,
        {"resilient": [False, True]},
        1,
        full={"n_cells": 50_000, "n_items": 20_000},
        quick={"n_cells": 1_000, "n_items": 200},
    ),
}

#: workload scales a row carries keywords for.
SCALES = ("full", "quick")


def default_suite(scale: str = "full") -> BenchSuite:
    """The registered benchmark suite at ``"full"`` (committed
    baselines) or ``"quick"`` (tests) scale."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    return BenchSuite(
        BenchCase(
            name,
            SweepSpec(
                name="bench-" + name.replace("_", "-"),
                task=row.task,
                grid=row.grid,
                runs=row.runs,
                seeding=row.seeding,
                fixed=getattr(row, scale),
            ),
        )
        for name, row in CASES.items()
    )
