"""The default benchmark cases.

Each task function is a module-level callable (so it pickles into pool
workers) that builds its own simulator from its seed and returns its
counters: a dict that is a pure function of the seed and the keywords.
No trial reads a clock — wall time belongs to ``benchmarks/e2e``.

Every case pins a whole commit and termination trajectory — the runs
Huang & Li's claims are about.  The registered-scenario cases
(``heavy_workload`` … ``gray_failure`` below) hold no driver code of
their own: each trial is one :func:`~repro.traffic.run_scenario` call on
a registered :data:`~repro.experiments.SCENARIOS` constructor and passes
the trial's shape keywords on as ``**shape``, so defaults live in the
scenario constructors only.  The hot paths those runs cross
(event queue, fan-out cache, locks, WAL, trace, recovery) are pinned by
their counters here and held against naive references in
``tests/property/test_prop_bench.py``.

A case is declared in one place, a row of :data:`CASES` at the bottom
of this module: its trial, grid, run count and the trial's committed
keywords.

Which experiment and which scenario each case pins is the table in
:mod:`repro.experiments`.  ``commit_mix`` — a 2PC / 3PC / QTP commit
mix through a mid-run partition episode (the paper's protocol spread,
E17-flavoured) — runs the unregistered :func:`commit_mix_scenario`
defined here.  Two cases are not one scenario run:

* ``ramp_ceiling`` — E26 ramp: step the arrival rate across fresh
  service intervals until the p99 knee or the abort-rate SLO trips
  (:func:`~repro.experiments.service_study.discover_ceiling`).
* ``trace_replay_tournament`` — record one E18 run and replay it
  across the default what-if matrix (the record→replay fixed point).
"""

from __future__ import annotations

from typing import Any

from repro.engine.spec import SweepSpec
from repro.experiments.resilience_study import (
    flash_crowd_scenario,
    gray_failure_scenario,
    rolling_upgrade_scenario,
)
from repro.experiments.service_study import discover_ceiling, open_loop_scenario
from repro.experiments.sweeps import wan_storm_scenario
from repro.experiments.workload_scenarios import (
    cross_region_scenario,
    elastic_join_scenario,
    read_mostly_scenario,
    skewed_contention_scenario,
)
from repro.experiments.workload_study import heavy_workload_scenario
from repro.replay import DEFAULT_CONFIGS, cluster_counters, fixed_point_ok, record, replay_trace
from repro.sim.failures import FailurePlan
from repro.traffic import Scenario, run_scenario
from repro.workload.generators import random_catalog, random_partition_groups


def _scenario_counters(scenario: Any, protocol: str, seed: int) -> dict[str, Any]:
    """One scenario run: its own counters plus the cluster fingerprint
    (network / WAL / scheduler tallies)."""
    run = run_scenario(scenario, protocol, seed)
    return {**run.counters(), **cluster_counters(run.cluster)}


# ----------------------------------------------------------------------
# commit mix
# ----------------------------------------------------------------------


class _CommitMixStream:
    """``n_txns`` single-item updates, one every 5 s from t=1: each
    draws its item, then its origin among the item's hosts, when it is
    submitted, and writes its index as the value.  ``compile`` hands
    each run a fresh stream: the index is a cursor."""

    def __init__(self, n_txns: int) -> None:
        self.n_txns = n_txns
        self._index = 0

    def compile(self, catalog, regions) -> "_CommitMixStream":
        return _CommitMixStream(self.n_txns)

    def arrivals(self, rng) -> list[float]:
        return [1.0 + i * 5.0 for i in range(self.n_txns)]

    def next_update(self, rng) -> tuple[int, dict[str, int]]:
        item = rng.choice(self.catalog.item_names)
        origin = rng.choice(self.catalog.sites_of(item))
        self._index += 1
        return origin, {item: self._index - 1}


def commit_mix_scenario(n_txns: int = 16) -> Scenario:
    """Direct single-item updates on a random 6-site catalog through one
    partition episode (a random 2-way split at t=25, healed at t=60)."""
    params = dict(locals())

    def plan(rng, cluster, first):
        groups = random_partition_groups(rng, cluster.network.sites, 2)
        return FailurePlan().partition(25.0, *groups).heal(60.0)

    def counters(run):
        tally = {"commit": 0, "abort": 0, "blocked": 0, "client-aborted": run.engine.tallies["refused"]}
        for verdict in run.result.txn_outcomes.values():
            tally[verdict] = tally.get(verdict, 0) + 1
        return {**tally, **cluster_counters(run.cluster)}

    return Scenario(
        name="commit_mix",
        params=params,
        stream="commit-mix",
        catalog=(random_catalog, {"n_sites": 6, "n_items": 4, "replication": 3}),
        workload=_CommitMixStream(n_txns),
        plan=plan,
        counters=counters,
        drive="direct",
    )


def commit_mix_trial(seed: int, protocol: str, n_txns: int = 16) -> dict[str, Any]:
    """Drive ``n_txns`` single-item updates through one partition
    episode under ``protocol`` and tally outcomes and traffic."""
    return run_scenario(commit_mix_scenario(n_txns), protocol, seed).counters()


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
# the registry
# ----------------------------------------------------------------------

#: the registry, in run order: case name -> (trial, grid, runs, the
#: trial's committed keywords).  ``BENCH_<name>.json`` pins the sweep
#: ``bench-<name>``; every case seeds ``offset``, so the protocols of a
#: grid replay the same runs.  Adding a case is one trial function above
#: plus one row here (then ``bench update``).
CASES: dict[str, SweepSpec] = {
    name: SweepSpec(
        "bench-" + name.replace("_", "-"),
        task,
        grid=grid,
        runs=runs,
        seeding="offset",
        fixed=keywords,
    )
    for name, (task, grid, runs, keywords) in {
        "commit_mix": (commit_mix_trial, {"protocol": ["2pc", "3pc", "qtp1", "qtp2"]}, 2, {"n_txns": 16}),
        "heavy_workload": (
            heavy_workload_trial,
            {"protocol": ["2pc", "qtp1"]},
            2,
            {"n_txns": 120, "n_sites": 12},
        ),
        "wan_storm": (wan_storm_trial, {"protocol": ["qtp1", "qtp2"], "heal": [False, True]}, 1, {}),
        "skewed_contention": (skewed_contention_trial, {"protocol": ["2pc", "qtp1"]}, 2, {"n_txns": 80}),
        "read_mostly": (read_mostly_trial, {"protocol": ["2pc", "qtp1"]}, 2, {"n_txns": 100}),
        "cross_region_txn": (cross_region_trial, {"protocol": ["qtp1", "qtp2"]}, 2, {"n_txns": 40}),
        "elastic_join": (elastic_join_trial, {"protocol": ["qtp1", "qtp2"]}, 2, {"n_txns": 60}),
        "open_loop_service": (
            open_loop_service_trial,
            {"protocol": ["2pc", "qtp1"]},
            2,
            {"rate": 1.5, "duration": 120.0, "n_sites": 9},
        ),
        "ramp_ceiling": (
            ramp_ceiling_trial,
            {"protocol": ["qtp1", "qtp2"]},
            1,
            {"rates": [0.5, 1.0, 2.0, 4.0, 8.0], "duration": 60.0},
        ),
        "rolling_upgrade": (
            rolling_upgrade_trial,
            {"protocol": ["qtp1", "qtp2"]},
            2,
            {"n_txns": 70, "waves": 3},
        ),
        "flash_crowd": (
            flash_crowd_trial,
            {"protocol": ["2pc", "qtp2"]},
            2,
            {"duration": 120.0, "surge_start": 40.0, "surge_length": 30.0},
        ),
        "gray_failure": (
            gray_failure_trial,
            {"protocol": ["qtp1", "qtp2"]},
            2,
            {"rate": 1.5, "duration": 120.0, "episode_start": 30.0, "episode_length": 40.0},
        ),
        "trace_replay_tournament": (
            trace_replay_trial,
            {},
            2,
            {"configs": ["recorded", "2pc", "3pc", "rowa"], "n_txns": 60, "n_sites": 8},
        ),
    }.items()
}
