"""The default benchmark cases.

Each task function is a module-level callable (so it pickles into pool
workers) that builds its own simulator from its seed and returns its
counters: a dict that is a pure function of the seed and the keywords.
No trial reads a clock — wall time belongs to ``benchmarks/e2e``.

Every case pins a whole commit and termination trajectory — the runs
Huang & Li's claims are about.  The scenario-driven cases
(``heavy_workload`` … ``gray_failure`` below) hold no driver code of
their own: each trial is one :func:`~repro.traffic.run_scenario` call on
a registered :data:`~repro.experiments.SCENARIOS` constructor and passes
the trial's shape keywords on as ``**shape``, so defaults live in the
scenario constructors only.  The hot paths those runs cross
(event queue, fan-out cache, locks, WAL, trace, recovery) are pinned by
their counters here and held against naive references in
``tests/property/test_prop_bench.py``.

A case is declared in one place, a row of :data:`CASES` at the bottom
of this module: its trial, grid, run count and the trial's keywords at
full and at quick scale.

Which experiment and which scenario each case pins is the table in
:mod:`repro.experiments`.  Three cases are not one scenario run:

* ``commit_mix`` — a 2PC / 3PC / QTP commit mix through a mid-run
  partition episode (the paper's protocol spread, E17-flavoured).
* ``ramp_ceiling`` — E26 ramp: step the arrival rate across fresh
  service intervals until the p99 knee or the abort-rate SLO trips
  (:func:`~repro.experiments.service_study.discover_ceiling`).
* ``trace_replay_tournament`` — record one E18 run and replay it
  across the default what-if matrix (the record→replay fixed point).
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.bench.suite import BenchCase, BenchSuite
from repro.common.errors import QuorumUnreachableError, TransactionAborted
from repro.db.cluster import Cluster
from repro.engine.spec import SweepSpec
from repro.experiments.resilience_study import (
    flash_crowd_scenario,
    gray_failure_scenario,
    rolling_upgrade_scenario,
)
from repro.experiments.service_study import discover_ceiling, open_loop_scenario
from repro.experiments.workload_scenarios import (
    cross_region_scenario,
    elastic_join_scenario,
    read_mostly_scenario,
    skewed_contention_scenario,
)
from repro.experiments.workload_study import heavy_workload_scenario
from repro.replay import DEFAULT_CONFIGS, cluster_counters, fixed_point_ok, record, replay_trace
from repro.sim.failures import FailurePlan
from repro.sim.rng import RngRegistry
from repro.traffic import run_scenario
from repro.workload.generators import random_catalog, random_partition_groups
from repro.workload.scenarios import wan_storm_scenario


def _scenario_counters(scenario: Any, protocol: str, seed: int) -> dict[str, Any]:
    """One scenario run: its own counters plus the cluster fingerprint
    (network / WAL / scheduler tallies)."""
    run = run_scenario(scenario, protocol, seed)
    return {**run.counters(), **cluster_counters(run.cluster)}


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
    return run_scenario(skewed_contention_scenario(**shape), protocol, seed).counters()


def read_mostly_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E23 read-dominated-mix run."""
    return run_scenario(read_mostly_scenario(**shape), protocol, seed).counters()


def cross_region_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E24 cross-region WAN-transaction run."""
    return run_scenario(cross_region_scenario(**shape), protocol, seed).counters()


def elastic_join_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E25 elastic-join-under-storm run."""
    return run_scenario(elastic_join_scenario(**shape), protocol, seed).counters()


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
    return run_scenario(rolling_upgrade_scenario(**shape), protocol, seed).counters()


def flash_crowd_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One E28 flash-crowd run (rate-schedule surge through the
    adaptive admission window)."""
    return run_scenario(flash_crowd_scenario(**shape), protocol, seed).counters()


def gray_failure_trial(seed: int, protocol: str, **shape: Any) -> dict[str, Any]:
    """One gray-failure service run (degraded site + flapping link)."""
    return run_scenario(gray_failure_scenario(**shape), protocol, seed).counters()


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
    trace = record(heavy_workload_scenario(n_txns=n_txns, n_sites=n_sites), "qtp1", seed)
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
# the default suite
# ----------------------------------------------------------------------


class _Row(NamedTuple):
    """One case, declared once: its trial, its sweep shape (every case
    seeds ``offset``: the protocols of a grid replay the same runs), and
    the trial's keywords at full (committed baselines) and quick (tests)
    scale."""

    task: Callable[..., dict[str, Any]]
    grid: dict[str, list[Any]]
    runs: int
    full: dict[str, Any]
    quick: dict[str, Any]


#: the registry, in run order: ``BENCH_<name>.json`` is the sweep
#: ``bench-<name>``.  Adding a case is one trial function above plus
#: one row here (then ``bench update``).
CASES: dict[str, _Row] = {
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
    "trace_replay_tournament": _Row(
        trace_replay_trial,
        {},
        2,
        full={"configs": ["recorded", "2pc", "3pc", "rowa"], "n_txns": 60, "n_sites": 8},
        quick={"configs": ["recorded", "2pc", "3pc", "rowa"], "n_txns": 16, "n_sites": 6},
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
                seeding="offset",
                fixed=getattr(row, scale),
            ),
        )
        for name, row in CASES.items()
    )
