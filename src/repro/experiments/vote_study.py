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
differs.  A run is the single-shot scenario :func:`policy_scenario`,
whose update is fixed, not drawn; :func:`~repro.traffic.run_scenario`
runs and judges it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import ResultStore, SweepSpec, group_by, run_sweep
from repro.replication.catalog import CatalogBuilder, ReplicaCatalog
from repro.traffic import Scenario, run_scenario
from repro.workload.generators import random_fault_plan
from repro.workload.spec import FixedUpdate


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


def policy_scenario(policy: str, n_sites: int = 5) -> Scenario:
    """E19: site 1 writes x, replicated at ``n_sites`` sites under
    ``policy``; a random 2-way partition with crashes in t = 1–4.5."""
    params = dict(locals())

    def plan(rng, cluster, first):
        return random_fault_plan(rng, cluster.network.sites, coordinator=1, t_window=(1.0, 4.5), n_groups=2)

    return Scenario(
        name="vote_policy",
        params=params,
        stream="vote-study",
        catalog=(
            lambda rng, policy, n_sites: _policy_catalog(policy, list(range(1, n_sites + 1))),
            {"policy": policy, "n_sites": n_sites},
        ),
        workload=FixedUpdate(1, {"x": 1}),
        plan=plan,
        drive="single",
    )


def policy_run(
    seed: int, policy: str, n_sites: int = 5
) -> tuple[float, float, bool, bool, bool]:
    """One E19 sample under QTP1; returns (readable, writable,
    committed, blocked, violated)."""
    run = run_scenario(policy_scenario(policy, n_sites), "qtp1", seed)
    cluster, txn = run.cluster, run.txn.txn
    report = cluster.outcome(txn)
    availability = cluster.availability()
    return (
        availability.readable_fraction,
        availability.writable_fraction,
        report.outcome == "commit",
        bool(cluster.live_undecided(txn)),
        not report.atomic,
    )


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
    results = run_sweep(spec, workers=workers, store=store).results
    rows = []
    for policy, cell in group_by(results, "policy").items():
        readable = writable = 0  # left-to-right float totals, as E11's
        for result in cell:
            readable += result.value[0]
            writable += result.value[1]
        rows.append(
            PolicyRow(
                policy=policy,
                runs=len(cell),
                readable_fraction=readable / len(cell),
                writable_fraction=writable / len(cell),
                committed_runs=sum(r.value[2] for r in cell),
                blocked_runs=sum(r.value[3] for r in cell),
                violations=sum(r.value[4] for r in cell),
            )
        )
    return rows
