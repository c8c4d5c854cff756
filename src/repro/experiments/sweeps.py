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

Every sweep run is a single-drive scenario that
:func:`~repro.traffic.run_scenario` runs and judges: E11's
(:func:`availability_scenario`, whose ``skq-pinned`` row pins Skeen's
quorums through the scenario's ``cluster`` keywords), E13's, E14's and
E21's (:func:`wan_storm_scenario`, registered as ``wan_storm``; the
other three are unregistered, so no pin set grows).

All drivers route through :mod:`repro.engine`: each accepts a
``workers=`` argument to fan runs out over a process pool, and a
``store=`` argument (a :class:`repro.engine.ResultStore`) to persist
the raw per-run artifact.  Each study reads its sweep's rows once, in
task order, and builds its rows from them.  Per-run seeds come from the
spec, not from execution order, so every aggregate below is
bit-identical at every worker count.  The ``seeding="offset"`` mode
(seed = base_seed + run) keeps the historical trajectories: every
protocol sees the *same* scenario sequence, and results match the
pre-engine serial loops exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine import ResultStore, RunResult, SweepSpec, group_by, run_sweep
from repro.sim.failures import FailurePlan
from repro.traffic import Scenario, run_scenario
from repro.workload.generators import (
    random_catalog,
    random_fault_plan,
    random_partition_groups,
    region_storm_plan,
    wan_catalog,
    wan_regions,
)
from repro.workload.spec import WorkloadSpec


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


def availability_scenario(pinned_quorums: bool = False) -> Scenario:
    """E11: one update of up to two items on a random 8-site catalog,
    then a random 2- or 3-way partition with crashes in t = 1–4.5.

    With ``pinned_quorums`` Skeen's site quorums are the paper's
    Example-1 configuration: pinned over the whole installation (Vc =
    majority of all site votes), so small participant sets can never
    reach either quorum.
    """
    params = dict(locals())

    def plan(rng, cluster, first):
        return random_fault_plan(
            rng,
            sites=cluster.network.sites,
            coordinator=first.origin,
            t_window=(1.0, 4.5),
            n_groups=rng.choice([2, 2, 3]),
        )

    return Scenario(
        name="availability",
        params=params,
        stream="sweep",
        catalog=(random_catalog, {"n_sites": 8, "n_items": 4, "replication": 4}),
        workload=WorkloadSpec(n_txns=1, footprint=(1, 2)),
        plan=plan,
        drive="single",
        cluster={"commit_quorum": 5, "abort_quorum": 4} if pinned_quorums else {},
    )


def availability_run(seed: int, protocol: str) -> tuple[float, float, bool, bool, bool]:
    """One sweep sample; returns (readable, writable, blocked, violated, decided).

    ``skq-pinned`` is ``skq`` on :func:`availability_scenario` with
    pinned quorums.  Availability is measured over the *writeset* items
    only — those are the items the in-doubt transaction holds locks on;
    items it never touched are equally available under every protocol
    and would only dilute the comparison.  "Blocked" means some live
    participant is still undecided at quiescence.
    """
    pinned = protocol == "skq-pinned"
    run = run_scenario(availability_scenario(pinned), "skq" if pinned else protocol, seed)
    cluster, txn = run.cluster, run.txn
    report = cluster.outcome(txn.txn)
    writeset_rows = [row for row in cluster.availability().rows if row.item in txn.writes]
    readable = sum(r.readable for r in writeset_rows) / len(writeset_rows)
    writable = sum(r.writable for r in writeset_rows) / len(writeset_rows)
    return (
        readable,
        writable,
        bool(cluster.live_undecided(txn.txn)),
        not report.atomic,
        report.outcome in ("commit", "abort"),
    )


def _availability_rows(results: list[RunResult]) -> list[SweepRow]:
    """One :class:`SweepRow` per protocol over (readable, writable,
    blocked, violated, decided) samples, in expansion order.  The float
    totals add left to right, in sample order: ``sum()`` over floats is
    compensated from Python 3.12 on and would round differently."""
    rows = []
    for protocol, cell in group_by(results, "protocol").items():
        readable = writable = 0
        for result in cell:
            readable += result.value[0]
            writable += result.value[1]
        rows.append(
            SweepRow(
                protocol=protocol,
                runs=len(cell),
                readable_fraction=readable / len(cell),
                writable_fraction=writable / len(cell),
                blocked_runs=sum(r.value[2] for r in cell),
                violation_runs=sum(r.value[3] for r in cell),
                decided_runs=sum(r.value[4] for r in cell),
            )
        )
    return rows


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
    return _availability_rows(run_sweep(spec, workers=workers, store=store).results)


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


def storm_scenario(waves: int = 3) -> Scenario:
    """E13: one update, its coordinator crashed early, ``waves`` random
    two-way partitions during termination, then heal and recovery."""
    params = dict(locals())

    def plan(rng, cluster, first):
        storm = FailurePlan()
        storm.crash(rng.uniform(1.0, 4.0), first.origin)
        t = 5.0
        for _ in range(waves):
            storm.partition(t, *random_partition_groups(rng, cluster.network.sites, 2))
            t += rng.uniform(8.0, 15.0)
        storm.heal(t)
        storm.recover(t + 5.0, first.origin)
        return storm

    return Scenario(
        name="reenterability_storm",
        params=params,
        stream="storm",
        catalog=(random_catalog, dict(n_sites=6, n_items=3, replication=3)),
        workload=WorkloadSpec(n_txns=1, footprint=(1, 2)),
        plan=plan,
        drive="single",
    )


def storm_run(seed: int, protocol: str, waves: int = 3) -> tuple[bool, bool, int]:
    """One E13 sample; returns (consistent, terminated, term_attempts)."""
    run = run_scenario(storm_scenario(waves), protocol, seed)
    cluster, txn = run.cluster, run.txn.txn
    report = cluster.outcome(txn)
    return (
        bool(report.atomic),
        bool(report.fully_terminated),
        cluster.tracer.count("term-phase1", txn=txn),
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
    results = run_sweep(spec, workers=workers, store=store).results
    return StormResult(
        protocol=protocol,
        runs=runs,
        consistent_runs=sum(r.value[0] for r in results),
        terminated_runs=sum(r.value[1] for r in results),
        total_term_attempts=sum(r.value[2] for r in results),
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


def modelcheck_scenario(heal: bool = True) -> Scenario:
    """E14: one update under a random fault schedule (crashes, a
    2-3-way partition, and with ``heal`` a heal and recovery)."""
    params = dict(locals())

    def plan(rng, cluster, first):
        return random_fault_plan(
            rng,
            sites=cluster.network.sites,
            coordinator=first.origin,
            crash_coordinator=rng.random() < 0.8,
            n_extra_crashes=rng.choice([0, 0, 1]),
            n_groups=rng.choice([2, 2, 3]),
            heal_at=rng.uniform(30.0, 60.0) if heal else None,
        )

    return Scenario(
        name="modelcheck",
        params=params,
        stream="modelcheck",
        catalog=(random_catalog, dict(n_sites=7, n_items=3, replication=3)),
        workload=WorkloadSpec(n_txns=1, footprint=(1, 2)),
        plan=plan,
        drive="single",
    )


def modelcheck_run(seed: int, protocol: str, heal: bool = True) -> bool:
    """One E14 schedule; returns whether termination stayed atomic."""
    run = run_scenario(modelcheck_scenario(heal), protocol, seed)
    return bool(run.cluster.outcome(run.txn.txn).atomic)


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
    results = run_sweep(spec, workers=workers, store=store).results
    bad_seeds = [r.seed for r in results if not r.value]
    return ModelCheckResult(protocol, runs, len(results) - len(bad_seeds), len(bad_seeds), bad_seeds)


def wan_storm_scenario(
    n_regions: int = 4,
    sites_per_region: int = 8,
    n_items: int = 8,
    region_replication: int = 3,
    waves: int = 4,
    heal: bool = False,
) -> Scenario:
    """E21 as a scenario: one multi-item update on a WAN catalog, its
    coordinator crashed early, ``waves`` region storms through the
    in-flight termination (healed, coordinator recovered, if ``heal``):
    the E11 question at installation scale, or with ``heal`` the E13
    one — does every site terminate consistently?"""
    params = dict(locals())
    regions = wan_regions(n_regions, sites_per_region)

    def plan(rng, cluster, first):
        storm = region_storm_plan(rng, regions, waves=waves, heal=heal)
        storm.crash(rng.uniform(1.0, 2.5), first.origin)
        if heal:
            storm.recover(max(a.time for a in storm.actions) + 5.0, first.origin)
        return storm

    def counters(run):
        return {
            "outcome": run.result.txn_outcomes[run.txn.txn],
            "decided_sites": len(run.cluster.tracer.decisions(run.txn.txn)),
        }

    return Scenario(
        name="wan_storm",
        params=params,
        stream="wan-storm",
        catalog=(
            wan_catalog,
            dict(
                n_regions=n_regions,
                sites_per_region=sites_per_region,
                n_items=n_items,
                region_replication=region_replication,
            ),
        ),
        workload=WorkloadSpec(n_txns=1, footprint=(1, 3)),
        plan=plan,
        counters=counters,
        drive="single",
        regions=regions,
    )


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
    return _availability_rows(run_sweep(spec, workers=workers, store=store).results)
