"""Experiment E19 (extension) — vote assignment policies under QTP1.

Gifford's scheme leaves the vote assignment free; the paper's protocols
inherit whatever assignment the database chose.  This study quantifies
how three classic policies trade read availability against write
availability *through the termination protocol* after random failures:

* **uniform-majority** — one vote per copy, w = majority, r the
  complement: the balanced default every other experiment uses.
* **read-one** — r = 1, w = v: reads are always local, but a single
  unreachable copy makes writes (and commit quorums) impossible.
* **primary-weighted** — one copy holds as many votes as the rest
  combined plus one... almost: v=6 over 4 copies with a 3-vote primary,
  w=4, r=3: quorums must include the primary, concentrating both the
  benefit (small quorums) and the risk (lose the primary, lose the
  item).

The same fault scenarios run against each policy; only the catalog
differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.cluster import Cluster
from repro.engine import ResultStore, SweepSpec, fold_cells
from repro.replication.catalog import CatalogBuilder, ReplicaCatalog
from repro.sim.rng import RngRegistry
from repro.workload.generators import random_fault_plan


def _policy_catalog(policy: str, sites: list[int]) -> ReplicaCatalog:
    """One item 'x' replicated at ``sites`` under the given policy."""
    builder = CatalogBuilder()
    if policy == "uniform-majority":
        builder.replicated_item("x", sites=sites)
    elif policy == "read-one":
        v = len(sites)
        builder.item("x", {s: 1 for s in sites}, r=1, w=v)
    elif policy == "primary-weighted":
        primary, *rest = sites
        votes = {primary: 3} | {s: 1 for s in rest}
        v = sum(votes.values())  # 3 + (n-1)
        w = v // 2 + 1
        r = v - w + 1
        builder.item("x", votes, r=r, w=w)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return builder.build()


@dataclass
class PolicyRow:
    """Aggregated outcome of one vote policy."""

    policy: str
    runs: int
    readable_fraction: float
    writable_fraction: float
    committed_runs: int
    blocked_runs: int
    violations: int

    def format_row(self) -> str:
        """One aligned summary line for study tables."""
        return (
            f"{self.policy:<17} runs={self.runs:<4} "
            f"readable={self.readable_fraction:6.1%} "
            f"writable={self.writable_fraction:6.1%} "
            f"committed={self.committed_runs:<4} blocked={self.blocked_runs:<4} "
            f"violations={self.violations}"
        )


POLICIES = ("uniform-majority", "read-one", "primary-weighted")


def policy_run(
    seed: int, policy: str, n_sites: int = 5
) -> tuple[float, float, bool, bool, bool]:
    """One E19 sample; returns (readable, writable, committed, blocked,
    violated)."""
    sites = list(range(1, n_sites + 1))
    rng = RngRegistry(seed).stream("vote-study")
    catalog = _policy_catalog(policy, sites)
    cluster = Cluster(catalog, protocol="qtp1", seed=seed)
    txn = cluster.update(origin=1, writes={"x": 1})
    plan = random_fault_plan(
        rng,
        cluster.network.sites,
        coordinator=1,
        t_window=(1.0, 4.5),
        n_groups=2,
    )
    cluster.arm_failures(plan)
    cluster.run()
    report = cluster.outcome(txn.txn)
    availability = cluster.availability()
    return (
        availability.readable_fraction,
        availability.writable_fraction,
        report.outcome == "commit",
        bool(cluster.live_undecided(txn.txn)),
        not report.atomic,
    )


def _fold_policy(state, result):
    """Per-cell streaming fold over (readable, writable, committed,
    blocked, violated) samples, in historical addition order."""
    if state is None:
        state = [0, 0, 0, 0, 0, 0]  # n, readable, writable, committed, blocked, violated
    readable, writable, committed, blocked, violated = result.value
    state[0] += 1
    state[1] += readable
    state[2] += writable
    state[3] += committed
    state[4] += blocked
    state[5] += violated
    return state


def vote_assignment_study(
    policies: tuple[str, ...] = POLICIES,
    runs: int = 40,
    base_seed: int = 0,
    n_sites: int = 5,
    workers: int = 1,
    store: ResultStore | None = None,
) -> list[PolicyRow]:
    """E19: same faults, different vote assignments, QTP1 throughout."""
    spec = SweepSpec(
        name="e19-vote-policies",
        task=policy_run,
        grid={"policy": list(policies)},
        runs=runs,
        base_seed=base_seed,
        seeding="offset",
        fixed={"n_sites": n_sites},
    )
    return [
        PolicyRow(
            policy=params["policy"],
            runs=state[0],
            readable_fraction=state[1] / state[0],
            writable_fraction=state[2] / state[0],
            committed_runs=state[3],
            blocked_runs=state[4],
            violations=state[5],
        )
        for params, state in fold_cells(spec, _fold_policy, workers, store)
    ]
