"""Ablation experiments for the design choices in DESIGN.md §6.

* **A-PAIR (D4 extended)** — the commit protocols and termination
  rules must be paired as the paper pairs them.  CP2 commits once
  ``r(x)`` votes of *some* item sit in PC; that kills rule 2's abort
  branches (they need ``w(x)`` of *every* item from non-PC sites) but
  **not** rule 1's (``r(x)`` of some item from non-PC sites can still
  exist whenever ``2 r(x) <= v(x)``).  Running CP2 with rule 1 is
  therefore unsafe — this experiment demonstrates it with a concrete
  interleaving, turning the paper's "for similar reasons" remark into
  a measured negative result.
* **A-TIMEOUT (D1)** — safety does not depend on the timeout constant:
  running the model-check with aggressively shortened windows (spurious
  timeouts everywhere) still yields zero violations; only liveness
  (attempt counts) degrades.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.cluster import Cluster
from repro.protocols.qtp.quorums import TerminationRule1, TerminationRule2
from repro.replication.catalog import CatalogBuilder
from repro.sim.failures import FailurePlan


class _Rule1BehindCP2(TerminationRule1):
    """Rule 1's table behind commit protocol 2's commit point."""

    commit_tally = TerminationRule2.commit_tally


class _Rule2BehindCP1(TerminationRule2):
    """Rule 2's table behind commit protocol 1's commit point."""

    commit_tally = TerminationRule1.commit_tally


@dataclass
class PairingResult:
    """Outcome of one CP/TP pairing on the adversarial scenario."""

    commit_protocol: str
    termination_rule: str
    outcome: str
    atomic: bool


def _adversarial_scenario(protocol: str, cross_pair: bool) -> PairingResult:
    """The interleaving that separates safe from unsafe pairings.

    Database: x with 4 one-vote copies at sites 1-4, r=2, w=3 (note
    ``2 r = 4 <= v = 4``: two disjoint read quorums exist — the
    precondition for the unsafety).

    Run: the prepare round reaches only sites 1 and 2 (r(x) = 2 votes
    -> CP2's commit quorum) while the COMMIT command to sites 3,4 is
    lost and the network splits {1,2} | {3,4}.  Partition {3,4} then
    polls two W sites holding r(x) = 2 votes:

    * rule 2 (the paper's pairing): needs w(x) = 3 votes from non-PC
      sites to abort -> blocks.  Safe.
    * rule 1 (crossed): r(x) of some item from non-PC sites suffices
      -> aborts, while {1,2} already committed.  Violation.
    """
    catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3).build()
    cluster = Cluster(catalog, protocol=protocol)
    if cross_pair:
        # the engine's rule also builds its commit point: keep the
        # protocol's own, swap the termination table
        crossed = _Rule1BehindCP2() if protocol == "qtp2" else _Rule2BehindCP1()
        for site in cluster.sites.values():
            site.ensure_engine().rule = crossed
    # the prepare round reaches only sites 1 and 2
    cluster.network.add_filter(
        lambda m: m.mtype.endswith(".prepare") and m.dst in (3, 4)
    )
    # the early COMMIT command never escapes {1, 2}
    cluster.network.add_filter(
        lambda m: m.mtype.endswith(".commit") and m.dst in (3, 4)
    )
    txn = cluster.update(origin=1, writes={"x": 7})
    cluster.arm_failures(FailurePlan().partition(4.5, [1, 2], [3, 4]))
    cluster.run()
    report = cluster.outcome(txn.txn)
    rule_name = cluster.sites[1].engine.rule.name
    return PairingResult(protocol, rule_name, report.outcome, report.atomic)


def pairing_ablation() -> list[PairingResult]:
    """Run all four CP x TP pairings on the adversarial scenario.

    Expected: the paper's pairings (CP1+TP1, CP2+TP2) and the
    conservative cross (CP1+TP2) stay atomic; CP2+TP1 violates.
    """
    return [
        _adversarial_scenario("qtp1", cross_pair=False),
        _adversarial_scenario("qtp2", cross_pair=False),
        _adversarial_scenario("qtp1", cross_pair=True),
        _adversarial_scenario("qtp2", cross_pair=True),
    ]


@dataclass
class TimeoutAblationRow:
    """Model-check outcome under one timeout scaling."""

    timeout_scale: float
    runs: int
    violations: int
    mean_term_attempts: float


def timeout_ablation(
    scales: tuple[float, ...] = (1.0, 0.5, 0.25),
    runs: int = 20,
    base_seed: int = 0,
) -> list[TimeoutAblationRow]:
    """D1: shrink every protocol window; safety must survive.

    The engines derive windows from ``T``; scaling the engine's view of
    ``T`` below the real network bound manufactures spurious timeouts
    (acks arriving after the window closed), which is exactly the
    failure mode a wrong delay estimate causes in practice.
    """
    from repro.sim.rng import RngRegistry
    from repro.workload.generators import random_catalog, random_fault_plan, random_update

    rows = []
    for scale in scales:
        violations = 0
        attempts = 0
        for i in range(runs):
            seed = base_seed + i
            registry = RngRegistry(seed)
            rng = registry.stream("timeout-ablation")
            catalog = random_catalog(rng, n_sites=6, n_items=3, replication=3)
            origin, writes = random_update(rng, catalog, max_items=2)
            cluster = Cluster(catalog, protocol="qtp1", seed=seed)
            for site in cluster.sites.values():
                site.ensure_engine()._T = cluster.T * scale  # the wrong estimate
            txn = cluster.update(origin, writes)
            plan = random_fault_plan(
                rng, cluster.network.sites, origin, heal_at=rng.uniform(30.0, 50.0)
            )
            cluster.arm_failures(plan)
            cluster.run()
            report = cluster.outcome(txn.txn)
            violations += not report.atomic
            attempts += cluster.tracer.count("term-phase1", txn=txn.txn)
        rows.append(TimeoutAblationRow(scale, runs, violations, attempts / runs))
    return rows
