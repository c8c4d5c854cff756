"""The default benchmark cases.

Each task function is a module-level callable (so it pickles into pool
workers) that builds its own simulator from its seed and returns::

    {"counters": {...deterministic...}, "timing": {...wall seconds...}}

The eleven scenario-driven cases (``heavy_workload`` … ``gray_failure``
below) hold no driver code and no clock of their own: each trial is
``_timed(...)`` around one :func:`~repro.traffic.run_scenario` call —
through :func:`_scenario_counters` or a public ``run_*`` wrapper — and
passes the driver's shape keywords on as ``**shape``, so defaults live
in the scenario constructors only.  ``commit_mix``,
``trace_replay_tournament`` and the microbenches time a sub-window.

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
* ``suite_warm_pool`` — A/B microbench of the sweep executor: a pool
  per sweep vs one persistent warm pool across a campaign of sweeps.
* ``net_fanout_flyweight`` — microbench of the fan-out allocation
  layer: one shared :class:`~repro.net.message.MessageTemplate`
  envelope with thin per-destination stamps.  Only the send side is
  timed — that is the path the stamps live on — while delivery still
  runs for counters.
* ``zipf_sampling`` — A/B microbench of the Zipf item sampler at a
  ~10^5-item catalog: the historical O(n) cumulative scan
  (``sampler="scan"``) vs the O(1) Walker alias table
  (``sampler="alias"``).  The samplers draw the RNG differently by
  design, so counters differ *across arms* (each arm is deterministic;
  distribution equivalence is pinned by a property test).
* ``recovery_replay`` — microbench of crash recovery's data replay
  over the per-item newest-``apply`` index, on logs harvested from a
  heavy E18 run and replayed at 1x and 4x length (the committed timing
  rows show the replay staying flat as the log grows).
* ``catalog_memo`` — A/B microbench of per-trial catalog construction
  vs :func:`~repro.workload.generators.memoized_catalog` (state-capture
  memo; the RNG-probe counters prove the caller's stream is identical
  on both arms).
* ``sweep_streaming`` — A/B microbench of the extreme-scale sweep
  backend at 10^5 cells: the classic accumulate-all-rows path vs the
  streaming ``TeeSink(JsonlSink, ReducerSink)`` pipeline over one
  :class:`~repro.engine.shared.SharedPayload` catalog.  Counters (row
  digest + exact aggregates) are byte-identical across arms; the
  committed ``rows_per_sec`` derived timing is the streaming arm's
  throughput.
"""

from __future__ import annotations

import time
from typing import Any, Callable

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


def _timed(run: Callable[..., dict[str, Any]], *args: Any, **kwargs: Any) -> dict[str, Any]:
    """Time one driver call end to end; its return value is the counters."""
    t0 = time.perf_counter()
    counters = run(*args, **kwargs)
    return {"counters": counters, "timing": {"wall_s": time.perf_counter() - t0}}


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
    t0 = time.perf_counter()
    sched.run()
    wall = time.perf_counter() - t0
    return {
        "counters": {
            "events_run": sched.events_run,
            "pending_after": sched.pending,
            "final_now": sched.now,
        },
        "timing": {"wall_s": wall},
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

    t0 = time.perf_counter()
    for i in range(n_txns):
        cluster.scheduler.call_at(1.0 + i * 5.0, submit_one, i)
    cluster.run()
    wall = time.perf_counter() - t0

    tally = {"commit": 0, "abort": 0, "blocked": 0, "client-aborted": 0}
    for txn, status in outcomes.items():
        if status == "client-aborted":
            tally["client-aborted"] += 1
            continue
        verdict = cluster.outcome(txn).outcome
        tally[verdict] = tally.get(verdict, 0) + 1
    counters = {**tally, **cluster_counters(cluster)}
    return {"counters": counters, "timing": {"wall_s": wall}}


# ----------------------------------------------------------------------
# E18 heavy workload
# ----------------------------------------------------------------------


def heavy_workload_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E18 heavy-traffic run; counters from the workload result plus
    the cluster probe (network / WAL / scheduler tallies)."""
    return _timed(_scenario_counters, heavy_workload_scenario(**shape), protocol, seed)


# ----------------------------------------------------------------------
# E21 WAN region storm
# ----------------------------------------------------------------------


def wan_storm_trial(seed: int, protocol: str, heal: bool) -> dict[str, Any]:
    """One E21 region-storm run at full installation scale."""
    return _timed(_scenario_counters, wan_storm_scenario(heal=heal), protocol, seed)


# ----------------------------------------------------------------------
# E22–E25 workload-spec scenarios
# ----------------------------------------------------------------------


def skewed_contention_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E22 Zipf-contention run (hot-item conflicts are the point)."""
    return _timed(run_skewed_contention, protocol, seed=seed, **shape)


def read_mostly_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E23 read-dominated-mix run."""
    return _timed(run_read_mostly, protocol, seed=seed, **shape)


def cross_region_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E24 cross-region WAN-transaction run."""
    return _timed(run_cross_region, protocol, seed=seed, **shape)


def elastic_join_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E25 elastic-join-under-storm run."""
    return _timed(run_elastic_join, protocol, seed=seed, **shape)


# ----------------------------------------------------------------------
# E26 open-loop service + SLO ramp
# ----------------------------------------------------------------------


def open_loop_service_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E26 open-loop service interval; counters from the service
    result (offered / shed / latency percentiles) plus the cluster
    probe (network / WAL / scheduler tallies)."""
    return _timed(_scenario_counters, open_loop_scenario(**shape), protocol, seed)


def ramp_ceiling_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E26 ramp-discovery sweep; counters pin the discovered
    ceiling, what tripped it, and the per-step p99 / committed / shed
    trajectories."""
    return _timed(lambda: discover_ceiling(protocol, seed=seed, **shape).counters())


# ----------------------------------------------------------------------
# E27/E28 resilience scenarios
# ----------------------------------------------------------------------


def rolling_upgrade_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E27 rolling-upgrade run (graceful leave/rejoin waves under
    live retrying traffic)."""
    return _timed(run_rolling_upgrade, protocol, seed=seed, **shape)


def flash_crowd_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E28 flash-crowd run (rate-schedule surge through the
    adaptive admission window)."""
    return _timed(run_flash_crowd, protocol, seed=seed, **shape)


def gray_failure_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One gray-failure service run (degraded site + flapping link)."""
    return _timed(run_gray_failure, protocol, seed=seed, **shape)


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
    ``n_readers``.  The script is drawn before the clock starts.
    """
    rng = RngRegistry(seed).stream("lock-probe")
    manager = LockManager(0)
    items = [f"item-{i}" for i in range(n_items)]
    script = [(rng.choice(items), rng.random() < 0.25) for _ in range(probes)]

    granted = refused = 0
    t0 = time.perf_counter()
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
    wall = time.perf_counter() - t0
    return {
        "counters": {
            "granted": granted,
            "refused": refused,
            "probes": probes,
            "readers": n_readers,
            "table_empty": not manager._items,
        },
        "timing": {"wall_s": wall},
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
    the cache so invalidation cost is part of the measurement.
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

    t0 = time.perf_counter()
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
    wall = time.perf_counter() - t0
    return {
        "counters": {
            "sent": network.sent,
            "delivered": network.delivered,
            "dropped": network.dropped,
            "events_run": sched.events_run,
            "epochs": network.epoch,
        },
        "timing": {"wall_s": wall},
    }


# ----------------------------------------------------------------------
# fan-out flyweight microbench
# ----------------------------------------------------------------------


def net_fanout_flyweight_trial(seed: int, n_sites: int = 32, rounds: int = 60) -> dict[str, Any]:
    """Time the send side of broadcast storms over shared-envelope stamps.

    Each ``multicast`` builds one
    :class:`~repro.net.message.MessageTemplate` and stamps it per
    destination.  Only the ``multicast`` calls are timed — the stamps
    are the allocation layer of the send path, nothing downstream — but
    every round still drains the scheduler so the delivery counters pin
    the behaviour.  A partitioned phase exercises the drop path's stamp
    handling too.
    """
    sched = Scheduler()
    network = Network(sched, Tracer(capacity=0), RngRegistry(seed))
    nodes = [_Sink(i, network) for i in range(n_sites)]
    everyone = list(range(n_sites))
    half = n_sites // 2
    wall = 0.0

    def storm() -> float:
        t0 = time.perf_counter()
        for node in nodes:
            node.multicast(everyone, "bench.ping", "T")
        return time.perf_counter() - t0

    for _ in range(rounds):
        wall += storm()
        wall += storm()
        network.set_partition([everyone[:half], everyone[half:]])
        wall += storm()
        network.heal()
        sched.run()
    return {
        "counters": {
            "sent": network.sent,
            "delivered": network.delivered,
            "dropped": network.dropped,
            "events_run": sched.events_run,
        },
        "timing": {"wall_s": wall},
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
    rejection-on-alias footprints).  Compilation is inside the timed
    region, so the alias arm pays its table build honestly.  Counters
    are deterministic per arm but differ across arms — the two samplers
    consume the RNG differently by design; their *distributions* agree
    (see ``tests/property/test_prop_workload.py``).
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
    t0 = time.perf_counter()
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
    wall = time.perf_counter() - t0
    return {
        "counters": {
            "draws": draws,
            "head_hits": head,
            "index_sum": index_sum,
            "fp_draws": fp_draws,
            "fp_items": fp_items,
            "fp_index_sum": fp_index_sum,
        },
        "timing": {"wall_s": wall},
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
    replays: int = 5,
) -> dict[str, Any]:
    """Replay crash recovery against WALs harvested from a heavy run.

    A deterministic E18 run is executed once per seed and every site's
    ``force`` sequence is harvested; the sequences are then appended
    into fresh logs at 1x and 4x length (the 4x log repeats the
    sequence, modelling a longer history whose re-applied versions are
    stale).  Only :func:`~repro.storage.recovery.replay_data` against
    fresh version-0 stores is timed; it walks the per-item
    newest-``apply`` index, O(items touched), so the install counts at
    1x and 4x are equal and the checksum counters pin the replayed
    stores.
    """
    from repro.storage.recovery import replay_data
    from repro.storage.store import ReplicaStore

    # pure function of (seed, shape), so one harvest run serves every
    # repeat in this worker
    sequences = worker_cache(
        ("recovery-replay-sequences", seed, n_txns, n_sites),
        lambda: _heavy_wal_sequences(seed, n_txns, n_sites),
    )

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
    timing: dict[str, Any] = {}
    total = 0.0
    for scale in (1, 4):
        wals = {sid: build_wal(sid, scale) for sid in sequences}
        installed = 0
        checksum = 0
        wall = float("inf")
        for _ in range(replays):
            stores = {sid: fresh_store(sid, wal) for sid, wal in wals.items()}
            t0 = time.perf_counter()
            installed = sum(replay_data(wals[sid], stores[sid]) for sid in wals)
            wall = min(wall, time.perf_counter() - t0)
        for sid in sorted(wals):
            for item, versioned in stores[sid].items():
                checksum += versioned.version * 31 + (versioned.value or 0)
        counters[f"wal_records_{scale}x"] = sum(len(w) for w in wals.values())
        counters[f"installed_{scale}x"] = installed
        counters[f"store_checksum_{scale}x"] = checksum
        timing[f"wall_{scale}x_s"] = wall
        total += wall
    timing["wall_s"] = total
    return {"counters": counters, "timing": timing}


# ----------------------------------------------------------------------
# catalog memo microbench
# ----------------------------------------------------------------------


def catalog_memo_trial(
    seed: int,
    memo: bool,
    n_regions: int = 4,
    sites_per_region: int = 8,
    n_items: int = 48,
    reuses: int = 12,
) -> dict[str, Any]:
    """Rebuild one sweep's catalog per grid cell vs fetch it memoized.

    Emulates the ``seeding="offset"`` shape: ``reuses`` grid cells each
    re-derive the same named stream for the same seed and need the same
    catalog.  The ``memo`` axis selects a fresh
    :func:`~repro.workload.generators.wan_catalog` build per cell
    (``False``) or :func:`~repro.workload.generators.memoized_catalog`
    (``True``, state-capture hit after the first build).  The RNG probe
    drawn *after* the catalog must be identical on both arms — that is
    the stream-identity contract the memo keeps.
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

    t0 = time.perf_counter()
    for _cell in range(reuses):
        rng = RngRegistry(seed).stream("catalog-memo-bench")
        catalog = memoized_catalog(rng, key, build) if memo else build(rng)
        probe_sum += rng.random()  # stream position after the build
        names = catalog.item_names
        checksum += len(names) + sum(catalog.v(i) for i in names[:8])
    wall = time.perf_counter() - t0
    return {
        "counters": {
            "reuses": reuses,
            "checksum": checksum,
            "probe_sum": probe_sum,
        },
        "timing": {"wall_s": wall},
    }


# ----------------------------------------------------------------------
# WAL append microbench
# ----------------------------------------------------------------------


def wal_append_trial(
    seed: int,
    n_txns: int = 260,
    n_sites: int = 8,
    replays: int = 6,
) -> dict[str, Any]:
    """Replay ``run_heavy_workload``'s exact WAL force sequences.

    A heavy E18 run is executed once (deterministic per seed) and every
    site's ``force`` call sequence is harvested from its log; the
    sequences are then replayed ``replays`` times into fresh logs.
    Only the replay is timed, so the number is the WAL append path
    itself (group-commit accounting plus index upkeep) under a real
    workload's record mix.
    """
    sequences = _heavy_wal_sequences(seed, n_txns, n_sites)
    total_forced = 0
    total_flushes = 0
    kinds: dict[str, int] = {}
    wall = float("inf")
    for _ in range(replays):
        logs = {sid: WriteAheadLog(sid) for sid in sequences}
        t0 = time.perf_counter()
        for sid, seq in sequences.items():
            wal = logs[sid]
            for txn, kind, payload in seq:
                wal.force(txn, kind, **payload)
        # best single replay: GC pauses and scheduler noise hit some
        # replays, not the append path under test
        wall = min(wall, time.perf_counter() - t0)
    for wal in logs.values():
        total_forced += wal.forced
        total_flushes += wal.flushes
        for record in wal:
            kinds[record.kind] = kinds.get(record.kind, 0) + 1
    return {
        "counters": {
            "forced": total_forced,
            "flushes": total_flushes,
            "open_txns": sum(len(w.open_txns()) for w in logs.values()),
            **{f"kind_{k}": v for k, v in sorted(kinds.items())},
        },
        "timing": {"wall_s": wall},
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
    t0 = time.perf_counter()
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
    wall = time.perf_counter() - t0
    return {
        "counters": {
            "records": len(tracer),
            "dropped": tracer.dropped,
            "query_hits": query_hits,
            "decided_sites": decided_sites,
            "mtypes": len(histogram),
            "messages_counted": sum(histogram.values()),
        },
        "timing": {"wall_s": wall},
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
    t0 = time.perf_counter()
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
    wall = time.perf_counter() - t0
    return {
        "counters": {
            "epochs": network.epoch,
            "partitions_traced": tracer.count("partition"),
            "heals_traced": tracer.count("heal"),
            "checksum": checksum,
        },
        "timing": {"wall_s": wall},
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

    Deliberately light — the ``suite_warm_pool`` case measures executor
    overhead, so per-task work must not drown out pool creation.  The
    catalog goes through :func:`~repro.engine.executor.worker_cache`,
    so a warm worker builds it once across every sweep of the campaign.
    """
    catalog = worker_cache(("bench-probe-catalog",), _probe_catalog)
    sched = Scheduler()
    for i in range(n_events):
        sched.call_fixed(float((i * 2654435761 + seed) % 211), _noop)
    sched.run()
    return {
        "counters": {
            "events_run": sched.events_run,
            "items": len(catalog.item_names),
            "final_now": sched.now,
        },
        "timing": {},
    }


def suite_warm_pool_trial(
    seed: int,
    warm: bool,
    n_sweeps: int = 6,
    runs_per_sweep: int = 8,
    pool_workers: int = 2,
    probe_events: int = 500,
) -> dict[str, Any]:
    """Run a campaign of small sweeps: pool-per-sweep vs one warm pool.

    The ``warm`` grid axis selects the legacy executor (a process pool
    created and torn down inside every ``run_sweep`` call) or a single
    :class:`~repro.engine.executor.SweepRunner` kept alive across the
    whole campaign — the shape of the bench suite itself, whose cases
    all ride one warm pool under ``--persistent-pool``.  Counters must
    be identical on both sides; only the wall time may differ.  In
    environments where pools cannot be created at all (sandboxes,
    nested pools) both arms degrade to serial and stay identical.
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
    t0 = time.perf_counter()
    if warm:
        with SweepRunner(workers=pool_workers) as runner:
            outcomes = [runner.run_sweep(spec) for spec in specs]
    else:
        outcomes = [run_sweep(spec, workers=pool_workers) for spec in specs]
    wall = time.perf_counter() - t0
    events = 0
    checksum = 0
    tasks = 0
    for outcome in outcomes:
        for result in outcome.results:
            tasks += 1
            events += result.value["counters"]["events_run"]
            checksum += int(result.value["counters"]["final_now"]) + result.seed % 997
    return {
        "counters": {
            "sweeps": len(outcomes),
            "tasks": tasks,
            "events_run": events,
            "checksum": checksum,
        },
        "timing": {"wall_s": wall},
    }


# ----------------------------------------------------------------------
# trace-replay tournament
# ----------------------------------------------------------------------


def trace_replay_trial(
    seed: int, configs: tuple[str, ...], n_txns: int, n_sites: int
) -> dict[str, Any]:
    """Record one E18 heavy-traffic run and replay it against the
    what-if configuration matrix.

    The trace is harvested once per worker (``worker_cache`` — the
    recording is deterministic, so every repeat shares it); each named
    configuration then replays the identical op + failure stream and
    contributes its diff-table counters.  The ``recorded``
    configuration doubles as the record→replay fixed-point check: its
    ``fixed_point`` counter pins that replaying a recording of config C
    under config C reproduces the original deterministic counters.
    """
    trace = worker_cache(
        ("replay-trace", seed, n_txns, n_sites),
        lambda: record_heavy_workload("qtp1", seed=seed, n_txns=n_txns, n_sites=n_sites),
    )
    by_name = {c.name: c for c in DEFAULT_CONFIGS}
    t0 = time.perf_counter()
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
    return {"counters": counters, "timing": {"wall_s": time.perf_counter() - t0}}


# ----------------------------------------------------------------------
# streaming sweep microbench
# ----------------------------------------------------------------------


def streaming_probe_cell(seed: int, catalog: Any, n_items: int) -> dict[str, Any]:
    """One cheap probe row against the shared bench catalog.

    The work per cell is deliberately tiny — a quorum lookup plus a few
    RNG draws — so the case times the *engine's* per-row cost (task
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
      :func:`~repro.engine.sink.iter_stream_rows` (untimed) to pin the
      round trip.

    The counters come from the reducer summary plus the order-independent
    row digest, so they are byte-identical across arms and across
    worker counts — that equality is the CI gate on the streaming
    backend.  The committed ``rows_per_sec`` derived timing is the
    streaming arm's throughput at the 10^5-cell scale.
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
            t0 = time.perf_counter()
            run_sweep(spec, sink=TeeSink(JsonlSink(path), ReducerSink(reducer)))
            wall = time.perf_counter() - t0
            rows_loaded = sum(1 for _row in iter_stream_rows(path))
    else:
        t0 = time.perf_counter()
        outcome = run_sweep(spec)
        for result in outcome.results:
            reducer.fold(result)
        wall = time.perf_counter() - t0
        rows_loaded = len(outcome.results)
    agg = reducer.summary()
    latency = agg["metrics"]["latency"]
    digest = agg["metrics"]["latency_digest"]
    committed = agg["metrics"]["committed"]["counts"]
    return {
        "counters": {
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
        },
        "timing": {"wall_s": wall, "rows": n_cells},
    }


def sweep_resume_trial(
    seed: int,
    resilient: bool,
    n_cells: int = 1_000,
    n_items: int = 200,
) -> dict[str, Any]:
    """A/B of the plain streaming sweep vs the fault-free resilient path.

    Both arms run the same probe sweep into a ``JsonlSink`` artifact;
    ``resilient=True`` routes through ``run_sweep(on_error="retry")`` —
    the crash-recovering backend (guarded chunks over a respawnable
    pool, parent-side retry settle) with **zero faults injected**.  The
    committed counters include a truncated SHA-256 of the artifact
    bytes, so the baseline itself proves the resilient path writes the
    exact bytes the plain path writes; the derived timing is the paired
    plain/resilient wall ratio plus the overhead percentage, which the
    baseline pins as within-noise.
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
        t0 = time.perf_counter()
        if resilient:
            outcome = run_sweep(spec, sink=JsonlSink(path), on_error="retry")
        else:
            outcome = run_sweep(spec, sink=JsonlSink(path))
        wall = time.perf_counter() - t0
        artifact_sha = hashlib.sha256(path.read_bytes()).hexdigest()
        rows_loaded = sum(1 for _row in iter_stream_rows(path))
    agg = outcome.aggregate or {}
    resilience = outcome.resilience or {}
    return {
        "counters": {
            "rows": agg["rows"],
            "row_digest": agg["digest"],
            "rows_loaded": rows_loaded,
            # identical in both arms by the crash-anywhere property;
            # truncated so the committed JSON stays readable in review
            "artifact_sha": artifact_sha[:16],
            "retried": resilience.get("retried", 0),
            "quarantined": len(resilience.get("quarantined", [])),
        },
        "timing": {"wall_s": wall, "rows": n_cells},
    }


# ----------------------------------------------------------------------
# the default suite
# ----------------------------------------------------------------------


def ab_speedup(param: str) -> Any:
    """Derived-timing hook: paired legacy/optimized speedup.

    Rows are paired by run index — the same seed, hence the *same*
    workload, on both sides of the A/B axis — and the committed speedup
    is the mean of the per-pair wall-time ratios (the repo's usual
    paired-comparison design; an unpaired min would compare different
    workloads)."""

    def derive(rows: list[dict[str, Any]]) -> dict[str, Any]:
        legacy: dict[int, float] = {}
        optimized: dict[int, float] = {}
        for row in rows:
            bucket = optimized if row["params"][param] else legacy
            run = row["run"]
            # best wall per run across repeats: noise hits some repeats,
            # not the code path under test
            bucket[run] = min(bucket.get(run, float("inf")), row["wall_s"])
        paired = sorted(set(legacy) & set(optimized))
        if not paired:
            return {}
        ratios = [legacy[run] / optimized[run] for run in paired]
        return {
            "legacy_s": sum(legacy[run] for run in paired) / len(paired),
            "optimized_s": sum(optimized[run] for run in paired) / len(paired),
            "speedup": sum(ratios) / len(ratios),
        }

    return derive


def streaming_throughput(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Derived-timing hook for ``sweep_streaming``.

    The paired memory/streaming wall ratio (via :func:`ab_speedup`) plus
    ``rows_per_sec`` — the streaming arm's best observed throughput,
    which is the headline number the CI bench comment tracks.
    """
    derived = ab_speedup("streaming")(rows)
    best = 0.0
    for row in rows:
        if row["params"]["streaming"] and row["wall_s"] > 0:
            best = max(best, row["rows"] / row["wall_s"])
    if best:
        derived["rows_per_sec"] = round(best, 1)
    return derived


def resume_overhead(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Derived-timing hook for ``sweep_resume``.

    The paired plain/resilient wall ratio (via :func:`ab_speedup` —
    ``speedup`` just below 1.0 means the resilient path costs slightly
    more) plus the same number as an explicit overhead percentage, the
    figure the baseline pins as within-noise of ``sweep_streaming``.
    """
    derived = ab_speedup("resilient")(rows)
    legacy = derived.get("legacy_s")
    optimized = derived.get("optimized_s")
    if legacy and optimized:
        derived["overhead_pct"] = round((optimized / legacy - 1.0) * 100.0, 2)
    return derived


#: grid sizes per scale; "quick" keeps the property tests snappy.
_SCALES = {
    "full": {
        "drain_events": 20_000,
        "commit_txns": 16,
        "heavy_txns": 120,
        "heavy_sites": 12,
        "heavy_runs": 2,
        "fanout_rounds": 40,
        "wal_txns": 400,
        "wal_replays": 6,
        "trace_events": 40_000,
        "trace_queries": 120,
        "churn_sites": 64,
        "churn_rounds": 120,
        "warm_sweeps": 6,
        "warm_runs": 8,
        "skewed_txns": 80,
        "read_mostly_txns": 100,
        "cross_region_txns": 40,
        "elastic_txns": 60,
        "flyweight_sites": 32,
        "flyweight_rounds": 60,
        "zipf_items": 100_000,
        "zipf_draws": 240,
        "zipf_fp_draws": 40,
        "recovery_txns": 260,
        "recovery_replays": 5,
        "memo_reuses": 12,
        "replay_txns": 60,
        "replay_sites": 8,
        "streaming_cells": 100_000,
        "streaming_items": 50_000,
        "resume_cells": 50_000,
        "resume_items": 20_000,
        "service_rate": 1.5,
        "service_duration": 120.0,
        "service_sites": 9,
        "ramp_rates": [0.5, 1.0, 2.0, 4.0, 8.0],
        "ramp_duration": 60.0,
        "upgrade_txns": 70,
        "upgrade_waves": 3,
        "crowd_duration": 120.0,
        "crowd_surge_start": 40.0,
        "crowd_surge_length": 30.0,
        "gray_rate": 1.5,
        "gray_duration": 120.0,
        "gray_episode_start": 30.0,
        "gray_episode_length": 40.0,
        "probe_readers": 400,
        "probe_count": 20_000,
        "repeats": 3,
    },
    "quick": {
        "drain_events": 2_000,
        "commit_txns": 6,
        "heavy_txns": 24,
        "heavy_sites": 6,
        "heavy_runs": 1,
        "fanout_rounds": 3,
        "wal_txns": 40,
        "wal_replays": 1,
        "trace_events": 3_000,
        "trace_queries": 20,
        "churn_sites": 12,
        "churn_rounds": 6,
        "warm_sweeps": 2,
        "warm_runs": 3,
        "skewed_txns": 16,
        "read_mostly_txns": 20,
        "cross_region_txns": 10,
        "elastic_txns": 24,
        "flyweight_sites": 10,
        "flyweight_rounds": 4,
        "zipf_items": 2_000,
        "zipf_draws": 60,
        "zipf_fp_draws": 10,
        "recovery_txns": 40,
        "recovery_replays": 1,
        "memo_reuses": 4,
        "replay_txns": 16,
        "replay_sites": 6,
        "streaming_cells": 2_000,
        "streaming_items": 500,
        "resume_cells": 1_000,
        "resume_items": 200,
        "service_rate": 0.8,
        "service_duration": 30.0,
        "service_sites": 6,
        "ramp_rates": [0.5, 1.5],
        "ramp_duration": 20.0,
        "upgrade_txns": 30,
        "upgrade_waves": 2,
        "crowd_duration": 60.0,
        "crowd_surge_start": 20.0,
        "crowd_surge_length": 15.0,
        "gray_rate": 0.8,
        "gray_duration": 40.0,
        "gray_episode_start": 10.0,
        "gray_episode_length": 20.0,
        "probe_readers": 40,
        "probe_count": 1_000,
        "repeats": 1,
    },
}


def default_suite(scale: str = "full") -> BenchSuite:
    """The registered benchmark suite at ``"full"`` (committed
    baselines) or ``"quick"`` (tests) scale."""
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(_SCALES)}")
    s = _SCALES[scale]
    repeats = s["repeats"]
    return BenchSuite(
        [
            BenchCase(
                name="scheduler_drain",
                spec=SweepSpec(
                    name="bench-scheduler-drain",
                    task=scheduler_drain_trial,
                    grid={},
                    runs=2,
                    fixed={"n_events": s["drain_events"]},
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="commit_mix",
                spec=SweepSpec(
                    name="bench-commit-mix",
                    task=commit_mix_trial,
                    grid={"protocol": ["2pc", "3pc", "qtp1", "qtp2"]},
                    runs=2,
                    seeding="offset",
                    fixed={"n_txns": s["commit_txns"]},
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="heavy_workload",
                spec=SweepSpec(
                    name="bench-heavy-workload",
                    task=heavy_workload_trial,
                    grid={"protocol": ["2pc", "qtp1"]},
                    runs=s["heavy_runs"],
                    seeding="offset",
                    fixed={"n_txns": s["heavy_txns"], "n_sites": s["heavy_sites"]},
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="wan_storm",
                spec=SweepSpec(
                    name="bench-wan-storm",
                    task=wan_storm_trial,
                    grid={"protocol": ["qtp1", "qtp2"], "heal": [False, True]},
                    runs=1,
                    seeding="offset",
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="skewed_contention",
                spec=SweepSpec(
                    name="bench-skewed-contention",
                    task=skewed_contention_trial,
                    grid={"protocol": ["2pc", "qtp1"]},
                    runs=2,
                    seeding="offset",
                    fixed={"n_txns": s["skewed_txns"]},
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="read_mostly",
                spec=SweepSpec(
                    name="bench-read-mostly",
                    task=read_mostly_trial,
                    grid={"protocol": ["2pc", "qtp1"]},
                    runs=2,
                    seeding="offset",
                    fixed={"n_txns": s["read_mostly_txns"]},
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="cross_region_txn",
                spec=SweepSpec(
                    name="bench-cross-region-txn",
                    task=cross_region_trial,
                    grid={"protocol": ["qtp1", "qtp2"]},
                    runs=2,
                    seeding="offset",
                    fixed={"n_txns": s["cross_region_txns"]},
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="elastic_join",
                spec=SweepSpec(
                    name="bench-elastic-join",
                    task=elastic_join_trial,
                    grid={"protocol": ["qtp1", "qtp2"]},
                    runs=2,
                    seeding="offset",
                    fixed={"n_txns": s["elastic_txns"]},
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="open_loop_service",
                spec=SweepSpec(
                    name="bench-open-loop-service",
                    task=open_loop_service_trial,
                    grid={"protocol": ["2pc", "qtp1"]},
                    runs=2,
                    seeding="offset",
                    fixed={
                        "rate": s["service_rate"],
                        "duration": s["service_duration"],
                        "n_sites": s["service_sites"],
                    },
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="ramp_ceiling",
                spec=SweepSpec(
                    name="bench-ramp-ceiling",
                    task=ramp_ceiling_trial,
                    grid={"protocol": ["qtp1", "qtp2"]},
                    runs=1,
                    seeding="offset",
                    fixed={
                        "rates": s["ramp_rates"],
                        "duration": s["ramp_duration"],
                    },
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="rolling_upgrade",
                spec=SweepSpec(
                    name="bench-rolling-upgrade",
                    task=rolling_upgrade_trial,
                    grid={"protocol": ["qtp1", "qtp2"]},
                    runs=2,
                    seeding="offset",
                    fixed={
                        "n_txns": s["upgrade_txns"],
                        "waves": s["upgrade_waves"],
                    },
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="flash_crowd",
                spec=SweepSpec(
                    name="bench-flash-crowd",
                    task=flash_crowd_trial,
                    grid={"protocol": ["2pc", "qtp2"]},
                    runs=2,
                    seeding="offset",
                    fixed={
                        "duration": s["crowd_duration"],
                        "surge_start": s["crowd_surge_start"],
                        "surge_length": s["crowd_surge_length"],
                    },
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="gray_failure",
                spec=SweepSpec(
                    name="bench-gray-failure",
                    task=gray_failure_trial,
                    grid={"protocol": ["qtp1", "qtp2"]},
                    runs=2,
                    seeding="offset",
                    fixed={
                        "rate": s["gray_rate"],
                        "duration": s["gray_duration"],
                        "episode_start": s["gray_episode_start"],
                        "episode_length": s["gray_episode_length"],
                    },
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="lock_probe",
                spec=SweepSpec(
                    name="bench-lock-probe",
                    task=lock_probe_trial,
                    grid={},
                    runs=2,
                    seeding="offset",
                    fixed={
                        "n_readers": s["probe_readers"],
                        "probes": s["probe_count"],
                    },
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="net_deliver_fanout",
                spec=SweepSpec(
                    name="bench-net-deliver-fanout",
                    task=net_fanout_trial,
                    grid={},
                    runs=2,
                    seeding="offset",
                    fixed={"rounds": s["fanout_rounds"]},
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="wal_append",
                spec=SweepSpec(
                    name="bench-wal-append",
                    task=wal_append_trial,
                    grid={},
                    runs=2,
                    seeding="offset",
                    fixed={"n_txns": s["wal_txns"], "replays": s["wal_replays"]},
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="trace_record",
                spec=SweepSpec(
                    name="bench-trace-record",
                    task=trace_record_trial,
                    grid={},
                    runs=2,
                    seeding="offset",
                    fixed={
                        "n_events": s["trace_events"],
                        "queries": s["trace_queries"],
                    },
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="partition_churn",
                spec=SweepSpec(
                    name="bench-partition-churn",
                    task=partition_churn_trial,
                    grid={},
                    runs=2,
                    seeding="offset",
                    fixed={
                        "n_sites": s["churn_sites"],
                        "rounds": s["churn_rounds"],
                    },
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="suite_warm_pool",
                spec=SweepSpec(
                    name="bench-suite-warm-pool",
                    task=suite_warm_pool_trial,
                    grid={"warm": [False, True]},
                    runs=2,
                    seeding="offset",
                    fixed={
                        "n_sweeps": s["warm_sweeps"],
                        "runs_per_sweep": s["warm_runs"],
                    },
                ),
                repeats=repeats,
                derived=ab_speedup("warm"),
            ),
            BenchCase(
                name="net_fanout_flyweight",
                spec=SweepSpec(
                    name="bench-net-fanout-flyweight",
                    task=net_fanout_flyweight_trial,
                    grid={},
                    runs=2,
                    seeding="offset",
                    fixed={
                        "n_sites": s["flyweight_sites"],
                        "rounds": s["flyweight_rounds"],
                    },
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="zipf_sampling",
                spec=SweepSpec(
                    name="bench-zipf-sampling",
                    task=zipf_sampling_trial,
                    grid={"alias": [False, True]},
                    runs=2,
                    seeding="offset",
                    fixed={
                        "n_items": s["zipf_items"],
                        "draws": s["zipf_draws"],
                        "fp_draws": s["zipf_fp_draws"],
                    },
                ),
                repeats=repeats,
                derived=ab_speedup("alias"),
            ),
            BenchCase(
                name="recovery_replay",
                spec=SweepSpec(
                    name="bench-recovery-replay",
                    task=recovery_replay_trial,
                    grid={},
                    runs=2,
                    seeding="offset",
                    fixed={
                        "n_txns": s["recovery_txns"],
                        "replays": s["recovery_replays"],
                    },
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="catalog_memo",
                spec=SweepSpec(
                    name="bench-catalog-memo",
                    task=catalog_memo_trial,
                    grid={"memo": [False, True]},
                    runs=2,
                    seeding="offset",
                    fixed={"reuses": s["memo_reuses"]},
                ),
                repeats=repeats,
                derived=ab_speedup("memo"),
            ),
            BenchCase(
                name="trace_replay_tournament",
                spec=SweepSpec(
                    name="bench-trace-replay-tournament",
                    task=trace_replay_trial,
                    grid={},
                    runs=2,
                    seeding="offset",
                    fixed={
                        "configs": ["recorded", "2pc", "3pc", "rowa"],
                        "n_txns": s["replay_txns"],
                        "n_sites": s["replay_sites"],
                    },
                ),
                repeats=repeats,
            ),
            BenchCase(
                name="sweep_streaming",
                spec=SweepSpec(
                    name="bench-sweep-streaming",
                    task=sweep_streaming_trial,
                    grid={"streaming": [False, True]},
                    runs=1,
                    seeding="offset",
                    fixed={
                        "n_cells": s["streaming_cells"],
                        "n_items": s["streaming_items"],
                    },
                ),
                repeats=repeats,
                derived=streaming_throughput,
            ),
            BenchCase(
                name="sweep_resume",
                spec=SweepSpec(
                    name="bench-sweep-resume",
                    task=sweep_resume_trial,
                    grid={"resilient": [False, True]},
                    runs=1,
                    seeding="offset",
                    fixed={
                        "n_cells": s["resume_cells"],
                        "n_items": s["resume_items"],
                    },
                ),
                repeats=repeats,
                derived=resume_overhead,
            ),
        ]
    )
