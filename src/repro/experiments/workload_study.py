"""Experiment E17 (extension) — a live workload across a partition.

The paper argues about one in-doubt transaction at a time; a database
serves many.  This experiment drives a stream of interactive
transactions (quorum reads + writes through the commit protocol) while
the network partitions and heals, and measures what a client population
actually experiences under each protocol:

* committed / client-aborted (lock conflict or no quorum) / blocked;
* whether the committed history is one-copy serializable — the *other*
  half of the paper's correctness story, checked end to end;
* final data availability.

Transactions arrive on the virtual clock, so their reads and commits
genuinely interleave with the fault schedule.

E17 and its heavy-traffic sibling E18 are
:class:`~repro.traffic.Scenario` constructors (:func:`workload_scenario`,
:func:`heavy_workload_scenario`) run by the shared
:func:`~repro.traffic.run_scenario`; the two studies sum their tallies
over seeds;
:class:`~repro.traffic.WorkloadResult` is re-exported here for
compatibility with historical imports.
"""

from __future__ import annotations

from typing import Any

from repro.engine import ResultStore, SweepSpec, fold_cells
from repro.sim.failures import FailurePlan
from repro.traffic import Scenario, WorkloadResult, run_scenario
from repro.workload.generators import random_catalog, random_partition_groups
from repro.workload.spec import WorkloadSpec

__all__ = [
    "WorkloadResult",
    "heavy_failure_plan",
    "heavy_traffic_study",
    "heavy_workload_scenario",
    "workload_scenario",
    "workload_study",
]


def workload_scenario(
    n_txns: int = 24,
    partition_window: tuple[float, float] = (20.0, 70.0),
    arrival_spacing: float = 4.0,
) -> Scenario:
    """E17 as a scenario: a fixed-spacing stream on a 6-site cluster
    that splits into two random components for ``partition_window``;
    every transaction reads one random item and increments it."""
    params = dict(locals())

    def plan(rng, cluster, first):
        groups = random_partition_groups(rng, cluster.network.sites, 2)
        return FailurePlan().partition(partition_window[0], *groups).heal(partition_window[1])

    return Scenario(
        name="workload",
        params=params,
        stream="workload",
        catalog=(random_catalog, dict(n_sites=6, n_items=4, replication=3)),
        workload=WorkloadSpec(n_txns=n_txns, arrival="fixed", mean_spacing=arrival_spacing),
        plan=plan,
    )


def _workload_run(seed: int, protocol: str, **shape: Any) -> WorkloadResult:
    """One E17 sample (module-level so the sweep pickles it)."""
    return run_scenario(workload_scenario(**shape), protocol, seed).result


def _fold_workload(state, result):
    """Per-cell streaming fold over :class:`WorkloadResult` samples.

    Integer tallies accumulate directly; ``readable_fraction`` samples
    are kept (one float per run) because the historical aggregation
    sums ``r / n`` terms and ``n`` is only known at the end — dividing
    first and summing after would round differently.
    """
    if state is None:
        state = [0, 0, 0, 0, 0, True, [], 0]
        # submitted, committed, client_aborted, protocol_aborted,
        # blocked, serializable, readable samples, reads_committed
    value = result.value
    state[0] += value.submitted
    state[1] += value.committed
    state[2] += value.client_aborted
    state[3] += value.protocol_aborted
    state[4] += value.blocked
    state[5] &= value.serializable
    state[6].append(value.readable_fraction)
    state[7] += value.reads_committed
    return state


def _workload_rows(cells) -> list[WorkloadResult]:
    """One summed :class:`WorkloadResult` per folded cell.

    Replays the historical float order exactly: ``readable_fraction``
    is ``0.0 + r_0/n + r_1/n + ...`` in sample order.
    """
    rows = []
    for params, state in cells:
        total = WorkloadResult(params["protocol"], 0, 0, 0, 0, 0, True, 0.0)
        total.submitted, total.committed = state[0], state[1]
        total.client_aborted, total.protocol_aborted = state[2], state[3]
        total.blocked, total.serializable = state[4], state[5]
        total.reads_committed = state[7]
        for readable in state[6]:
            total.readable_fraction += readable / len(state[6])
        rows.append(total)
    return rows


def workload_study(
    protocols: tuple[str, ...] = ("2pc", "skq", "qtp1", "qtp2"),
    runs: int = 5,
    n_txns: int = 24,
    base_seed: int = 0,
    workers: int = 1,
    store: ResultStore | None = None,
) -> list[WorkloadResult]:
    """E17 aggregated: sum the tallies over several seeds per protocol.

    Every protocol replays the same seeds; serializability must hold in
    every single run (the flag is AND-ed).
    """
    spec = SweepSpec(
        name="e17-workload",
        task=_workload_run,
        grid={"protocol": list(protocols)},
        runs=runs,
        base_seed=base_seed,
        seeding="offset",
        fixed={"n_txns": n_txns},
    )
    return _workload_rows(fold_cells(spec, _fold_workload, workers, store))


def heavy_failure_plan(
    rng,
    sites: list[int],
    episodes: int,
    episode_length: float,
    gap: float,
) -> FailurePlan:
    """The E18 fault schedule: ``episodes`` random partition/heal cycles.

    Each episode splits ``sites`` into 2–3 random components for
    ``episode_length`` virtual seconds, with ``gap`` of full
    connectivity before and between episodes.  Extracted so replay
    harnesses can substitute a recorded plan for a generated one.
    """
    plan = FailurePlan()
    t = gap
    for _ in range(episodes):
        groups = random_partition_groups(rng, sites, rng.choice([2, 2, 3]))
        plan.partition(t, *groups)
        plan.heal(t + episode_length)
        t += episode_length + gap
    return plan


def heavy_workload_scenario(
    n_txns: int = 120,
    n_sites: int = 12,
    n_items: int = 8,
    replication: int = 3,
    mean_spacing: float = 1.5,
    episodes: int = 2,
    episode_length: float = 30.0,
    gap: float = 20.0,
) -> Scenario:
    """E18 as a scenario: Poisson arrivals on a random catalog through
    ``episodes`` partition/heal cycles (:func:`heavy_failure_plan`):
    many transactions in flight at once, and still every committed
    history one-copy serializable and nothing blocked after the final
    heal.  E22 and E23 are this scenario with another spec."""
    return Scenario(
        name="heavy_workload",
        params=dict(locals()),
        stream="heavy-workload",
        catalog=(random_catalog, dict(n_sites=n_sites, n_items=n_items, replication=replication)),
        workload=WorkloadSpec(n_txns=n_txns, mean_spacing=mean_spacing),
        plan=lambda rng, cluster, first: heavy_failure_plan(
            rng, cluster.network.sites, episodes, episode_length, gap
        ),
    )


def _heavy_workload_run(seed: int, protocol: str, **shape: Any) -> WorkloadResult:
    """One E18 sample (module-level so the sweep pickles it)."""
    return run_scenario(heavy_workload_scenario(**shape), protocol, seed).result


def heavy_traffic_study(
    protocols: tuple[str, ...] = ("2pc", "skq", "qtp1", "qtp2"),
    runs: int = 3,
    n_txns: int = 120,
    base_seed: int = 0,
    workers: int = 1,
    store: ResultStore | None = None,
) -> list[WorkloadResult]:
    """E18 aggregated: heavy-traffic tallies per protocol, same seeds."""
    spec = SweepSpec(
        name="e18-heavy-traffic",
        task=_heavy_workload_run,
        grid={"protocol": list(protocols)},
        runs=runs,
        base_seed=base_seed,
        seeding="offset",
        fixed={"n_txns": n_txns},
    )
    return _workload_rows(fold_cells(spec, _fold_workload, workers, store))
