"""Experiments E11, E13, E14 (+ E21) — the randomized sweeps.

These operationalize the paper's comparative and correctness claims:

* **E11 availability sweep** — the §5 headline: across random
  placements, transactions and partitionings, what fraction of
  (partition, item) pairs remain readable / writable after the
  termination protocol has done what it can?  Compared across all five
  protocol families, with atomicity violations tracked (3PC buys its
  availability with inconsistency).
* **E13 reenterability storm** — §3.1 property (3): additional
  failures *during* termination re-enter the protocol; after the last
  heal, every transaction must terminate consistently.
* **E14 randomized model-check** — Theorem 1 over thousands of random
  fault schedules: no run of the quorum protocols ever mixes COMMIT
  and ABORT, and every decision agrees with the first.
* **E21 WAN partition storm** — the same questions at installation
  scale: 32+ sites split region-wise by repeated partition waves.

All drivers route through :mod:`repro.engine`: each accepts a
``workers=`` argument to fan runs out over a process pool, and a
``store=`` argument (a :class:`repro.engine.ResultStore`) to persist
the raw per-run artifact.  Per-run seeds come from the spec, not from
execution order, so every aggregate below is bit-identical at every
worker count.  The ``seeding="offset"`` mode (seed = base_seed + run)
keeps the historical trajectories: every protocol sees the *same*
scenario sequence, and results match the pre-engine serial loops
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.cluster import Cluster
from repro.engine import ResultStore, SweepSpec, fold_cells
from repro.sim.failures import FailurePlan
from repro.sim.rng import RngRegistry
from repro.workload.generators import (
    memoized_catalog,
    random_catalog,
    random_fault_plan,
    random_partition_groups,
    random_update,
)
from repro.traffic import run_scenario
from repro.workload.scenarios import wan_storm_scenario


@dataclass
class SweepRow:
    """Aggregated availability outcome for one protocol (E11 / E21)."""

    protocol: str
    runs: int
    readable_fraction: float
    writable_fraction: float
    blocked_runs: int
    violation_runs: int
    decided_runs: int

    def format_row(self) -> str:
        """One aligned summary line for the availability table."""
        return (
            f"{self.protocol:<6} runs={self.runs:<4} "
            f"readable={self.readable_fraction:6.1%} "
            f"writable={self.writable_fraction:6.1%} "
            f"blocked-runs={self.blocked_runs:<4} "
            f"violations={self.violation_runs}"
        )


def availability_run(seed: int, protocol: str) -> tuple[float, float, bool, bool, bool]:
    """One sweep sample; returns (readable, writable, blocked, violated, decided).

    Availability is measured over the *writeset* items only — those are
    the items the in-doubt transaction holds locks on; items it never
    touched are equally available under every protocol and would only
    dilute the comparison.  "Blocked" means some live participant is
    still undecided at quiescence.
    """
    registry = RngRegistry(seed)
    rng = registry.stream("sweep")
    # every protocol cell replays the same seeds (seeding="offset"), so
    # the catalog memo rebuilds each scenario's catalog once, not once
    # per protocol — stream-identical by state capture/restore
    catalog = memoized_catalog(
        rng, ("e11-sweep", 8, 4, 4), lambda r: random_catalog(r, n_sites=8, n_items=4, replication=4)
    )
    origin, writes = random_update(rng, catalog, max_items=2)
    if protocol == "skq-pinned":
        # the paper's Example-1 configuration: quorums pinned over the
        # whole installation (Vc = majority of all site votes), so small
        # participant sets can never reach either quorum.
        cluster = Cluster(
            catalog, protocol="skq", seed=seed, commit_quorum=5, abort_quorum=4
        )
    else:
        cluster = Cluster(catalog, protocol=protocol, seed=seed)
    txn = cluster.update(origin, writes)
    plan = random_fault_plan(
        rng,
        sites=cluster.network.sites,
        coordinator=origin,
        t_window=(1.0, 4.5),
        n_groups=rng.choice([2, 2, 3]),
    )
    cluster.arm_failures(plan)
    cluster.run()
    report = cluster.outcome(txn.txn)
    availability = cluster.availability()
    writeset_rows = [row for row in availability.rows if row.item in writes]
    readable = sum(r.readable for r in writeset_rows) / len(writeset_rows)
    writable = sum(r.writable for r in writeset_rows) / len(writeset_rows)
    return (
        readable,
        writable,
        bool(cluster.live_undecided(txn.txn)),
        not report.atomic,
        report.outcome in ("commit", "abort"),
    )


def _fold_availability(state, result):
    """Per-cell streaming fold over (readable, writable, blocked,
    violated, decided) samples — same additions, in the same order, as
    the historical ``sum()``-over-collected-samples aggregation."""
    if state is None:
        state = [0, 0, 0, 0, 0, 0]  # n, readable, writable, blocked, violated, decided
    readable, writable, blocked, violated, decided = result.value
    state[0] += 1
    state[1] += readable
    state[2] += writable
    state[3] += blocked
    state[4] += violated
    state[5] += decided
    return state


def _availability_rows(cells) -> list[SweepRow]:
    """One :class:`SweepRow` per folded cell, in expansion order."""
    return [
        SweepRow(
            protocol=params["protocol"],
            runs=state[0],
            readable_fraction=state[1] / state[0],
            writable_fraction=state[2] / state[0],
            blocked_runs=state[3],
            violation_runs=state[4],
            decided_runs=state[5],
        )
        for params, state in cells
    ]


def availability_sweep(
    protocols: tuple[str, ...] = ("2pc", "3pc", "skq", "skq-pinned", "qtp1", "qtp2"),
    runs: int = 40,
    base_seed: int = 0,
    workers: int = 1,
    store: ResultStore | None = None,
) -> list[SweepRow]:
    """E11: mean post-failure availability per protocol.

    Every protocol sees the *same* sequence of (catalog, transaction,
    fault schedule) samples — the seed drives the scenario, the
    protocol only drives the response — so rows are directly
    comparable.  ``skq`` sizes its site quorums per transaction
    (majority of the participants' votes); ``skq-pinned`` uses the
    paper's Example-1 style installation-wide Vc/Va.
    """
    spec = SweepSpec(
        name="e11-availability",
        task=availability_run,
        grid={"protocol": list(protocols)},
        runs=runs,
        base_seed=base_seed,
        seeding="offset",
    )
    return _availability_rows(fold_cells(spec, _fold_availability, workers, store))


@dataclass
class StormResult:
    """E13 outcome for one protocol."""

    protocol: str
    runs: int
    consistent_runs: int
    terminated_runs: int
    total_term_attempts: int

    @property
    def all_consistent(self) -> bool:
        """True when no run violated atomicity."""
        return self.consistent_runs == self.runs

    def format_row(self) -> str:
        """One aligned summary line for the storm table."""
        return (
            f"{self.protocol:<6} runs={self.runs:<4} "
            f"consistent={self.consistent_runs:<4} terminated={self.terminated_runs:<4} "
            f"termination-attempts={self.total_term_attempts}"
        )


def _fold_storm(state, result):
    """Single-cell streaming fold over (consistent, terminated, attempts)."""
    if state is None:
        state = [0, 0, 0, 0]  # n, consistent, terminated, term attempts
    consistent, terminated, attempts = result.value
    state[0] += 1
    state[1] += consistent
    state[2] += terminated
    state[3] += attempts
    return state


def storm_run(seed: int, protocol: str, waves: int = 3) -> tuple[bool, bool, int]:
    """One E13 sample; returns (consistent, terminated, term_attempts)."""
    registry = RngRegistry(seed)
    rng = registry.stream("storm")
    catalog = memoized_catalog(
        rng, ("e13-storm", 6, 3, 3), lambda r: random_catalog(r, n_sites=6, n_items=3, replication=3)
    )
    origin, writes = random_update(rng, catalog, max_items=2)
    cluster = Cluster(catalog, protocol=protocol, seed=seed)
    txn = cluster.update(origin, writes)
    plan = FailurePlan()
    plan.crash(rng.uniform(1.0, 4.0), origin)
    t = 5.0
    for _ in range(waves):
        groups = random_partition_groups(rng, cluster.network.sites, 2)
        plan.partition(t, *groups)
        t += rng.uniform(8.0, 15.0)
    plan.heal(t)
    plan.recover(t + 5.0, origin)
    cluster.arm_failures(plan)
    cluster.run()
    report = cluster.outcome(txn.txn)
    return (
        bool(report.atomic),
        bool(report.fully_terminated),
        cluster.tracer.count("term-phase1", txn=txn.txn),
    )


def reenterability_storm(
    protocol: str = "qtp1",
    runs: int = 20,
    base_seed: int = 0,
    waves: int = 3,
    workers: int = 1,
    store: ResultStore | None = None,
) -> StormResult:
    """E13: repeated partition waves *during* termination, then heal.

    Each wave re-partitions the network while the previous termination
    attempt is still in flight; the protocol must re-enter cleanly and,
    once the final heal lands (and the coordinator recovers), terminate
    the transaction consistently everywhere.
    """
    spec = SweepSpec(
        name="e13-reenterability",
        task=storm_run,
        grid={"protocol": [protocol]},
        runs=runs,
        base_seed=base_seed,
        seeding="offset",
        fixed={"waves": waves},
    )
    cells = fold_cells(spec, _fold_storm, workers, store)
    state = cells[0][1] if cells else [0, 0, 0, 0]
    return StormResult(
        protocol=protocol,
        runs=runs,
        consistent_runs=state[1],
        terminated_runs=state[2],
        total_term_attempts=state[3],
    )


@dataclass
class ModelCheckResult:
    """E14 outcome."""

    protocol: str
    runs: int
    atomic_runs: int
    mixed_runs: int
    seeds_with_violation: list[int] = field(default_factory=list)

    @property
    def theorem_holds(self) -> bool:
        """Theorem 1: consistent termination in every run."""
        return self.mixed_runs == 0

    def format_row(self) -> str:
        """One aligned summary line for the model-check table."""
        return (
            f"{self.protocol:<6} runs={self.runs:<5} atomic={self.atomic_runs:<5} "
            f"violations={self.mixed_runs}"
            + (f"  seeds={self.seeds_with_violation[:5]}" if self.seeds_with_violation else "")
        )


def modelcheck_run(seed: int, protocol: str, heal: bool = True) -> bool:
    """One E14 schedule; returns whether termination stayed atomic."""
    registry = RngRegistry(seed)
    rng = registry.stream("modelcheck")
    catalog = memoized_catalog(
        rng,
        ("e14-modelcheck", 7, 3, 3),
        lambda r: random_catalog(r, n_sites=7, n_items=3, replication=3),
    )
    origin, writes = random_update(rng, catalog, max_items=2)
    cluster = Cluster(catalog, protocol=protocol, seed=seed)
    txn = cluster.update(origin, writes)
    plan = random_fault_plan(
        rng,
        sites=cluster.network.sites,
        coordinator=origin,
        crash_coordinator=rng.random() < 0.8,
        n_extra_crashes=rng.choice([0, 0, 1]),
        n_groups=rng.choice([2, 2, 3]),
        heal_at=rng.uniform(30.0, 60.0) if heal else None,
    )
    cluster.arm_failures(plan)
    cluster.run()
    return bool(cluster.outcome(txn.txn).atomic)


def _fold_modelcheck(state, result):
    """Single-cell streaming fold: atomic count plus violating seeds."""
    if state is None:
        state = [0, []]  # atomic runs, seeds with violations
    if result.value:
        state[0] += 1
    else:
        state[1].append(result.seed)
    return state


def modelcheck(
    protocol: str,
    runs: int = 100,
    base_seed: int = 0,
    heal: bool = True,
    workers: int = 1,
    store: ResultStore | None = None,
) -> ModelCheckResult:
    """E14: randomized fault schedules; assert atomic commitment.

    Random catalog, random transaction, coordinator crash, up to one
    extra crash, random 2-3-way partition at a random time, optional
    heal + recovery.  For ``2pc``, ``skq``, ``qtp1`` and ``qtp2`` the
    expected violation count is **zero**; for ``3pc`` it is positive
    (that protocol's termination was never designed for partitions).
    """
    spec = SweepSpec(
        name="e14-modelcheck",
        task=modelcheck_run,
        grid={"protocol": [protocol]},
        runs=runs,
        base_seed=base_seed,
        seeding="offset",
        fixed={"heal": heal},
    )
    cells = fold_cells(spec, _fold_modelcheck, workers, store)
    atomic, bad_seeds = cells[0][1] if cells else (0, [])
    return ModelCheckResult(protocol, runs, atomic, len(bad_seeds), bad_seeds)


def wan_storm_run(
    seed: int,
    protocol: str,
    n_regions: int = 4,
    sites_per_region: int = 8,
    waves: int = 4,
    heal: bool = False,
) -> tuple[float, float, bool, bool, bool]:
    """One E21 sample over a 32+-site WAN installation.

    Same tuple shape as :func:`availability_run` so the two sweeps
    aggregate through the same :class:`SweepRow`.
    """
    scenario = wan_storm_scenario(
        n_regions=n_regions, sites_per_region=sites_per_region, waves=waves, heal=heal
    )
    run = run_scenario(scenario, protocol, seed)
    cluster, txn = run.cluster, run.txn.txn
    report = cluster.outcome(txn)
    availability = cluster.availability()
    return (
        availability.readable_fraction,
        availability.writable_fraction,
        bool(cluster.live_undecided(txn)),
        not report.atomic,
        report.outcome in ("commit", "abort"),
    )


def wan_partition_storm(
    protocols: tuple[str, ...] = ("skq", "qtp1", "qtp2"),
    runs: int = 10,
    base_seed: int = 0,
    n_regions: int = 4,
    sites_per_region: int = 8,
    waves: int = 4,
    heal: bool = False,
    workers: int = 1,
    store: ResultStore | None = None,
) -> list[SweepRow]:
    """E21: region-wise partition storms over a 32+-site installation.

    The large-scale scenario the engine unlocks: each run builds a
    ``n_regions × sites_per_region`` WAN catalog with cross-region
    replication and drives ``waves`` successive region-aligned
    partitionings (with region splits and stragglers) through an
    in-doubt transaction.  With ``heal=False`` (default) the storm ends
    partitioned and installation-wide availability reflects what
    termination salvaged inside the final components (the E11 question
    at scale); ``heal=True`` asks the E13 question instead — after the
    heal, does everything terminate consistently?
    """
    spec = SweepSpec(
        name="e21-wan-storm",
        task=wan_storm_run,
        grid={"protocol": list(protocols)},
        runs=runs,
        base_seed=base_seed,
        seeding="offset",
        fixed={
            "n_regions": n_regions,
            "sites_per_region": sites_per_region,
            "waves": waves,
            "heal": heal,
        },
    )
    return _availability_rows(fold_cells(spec, _fold_availability, workers, store))
