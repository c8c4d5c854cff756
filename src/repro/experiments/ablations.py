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

Both are scenarios (:func:`pairing_scenario`, :func:`timeout_scenario`)
that :func:`~repro.traffic.run_scenario` runs and judges like any other
run: CP2 behind rule 1 is the oracle's designed counterexample and must
break atomicity; every other run must break nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.cluster import Cluster
from repro.protocols.qtp.quorums import TerminationRule1, TerminationRule2
from repro.replication.catalog import CatalogBuilder
from repro.sim.failures import FailurePlan
from repro.traffic import Scenario, run_scenario
from repro.workload.generators import random_catalog, random_fault_plan
from repro.workload.spec import FixedUpdate, WorkloadSpec


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


def pairing_scenario(cross_pair: bool) -> Scenario:
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

    With ``cross_pair`` the protocol's commit point stays and the other
    rule's termination table replaces its own.
    """
    params = dict(locals())

    def setup(cluster: Cluster) -> None:
        if cross_pair:
            # the engine's rule also builds its commit point: keep the
            # protocol's own, swap the termination table
            crossed = _Rule1BehindCP2() if cluster.protocol == "qtp2" else _Rule2BehindCP1()
            for site in cluster.sites.values():
                site.ensure_engine().rule = crossed
        # the prepare round reaches only sites 1 and 2
        cluster.network.add_filter(lambda m: m.mtype.endswith(".prepare") and m.dst in (3, 4))
        # the early COMMIT command never escapes {1, 2}
        cluster.network.add_filter(lambda m: m.mtype.endswith(".commit") and m.dst in (3, 4))

    return Scenario(
        name="pairing",
        params=params,
        stream="pairing",
        catalog=(lambda rng: CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3).build(), {}),
        workload=FixedUpdate(1, {"x": 7}),
        plan=lambda rng, cluster, first: FailurePlan().partition(4.5, [1, 2], [3, 4]),
        drive="single",
        setup=setup,
    )


def pairing_ablation() -> list[PairingResult]:
    """Run all four CP x TP pairings on the adversarial scenario.

    Expected: the paper's pairings (CP1+TP1, CP2+TP2) and the
    conservative cross (CP1+TP2) stay atomic; CP2+TP1 violates.
    """
    results = []
    for cross_pair in (False, True):
        for protocol in ("qtp1", "qtp2"):
            unsafe = cross_pair and protocol == "qtp2"
            run = run_scenario(
                pairing_scenario(cross_pair),
                protocol,
                0,
                expect=frozenset({"atomicity"}) if unsafe else frozenset(),
            )
            report = run.cluster.outcome(run.txn.txn)
            rule_name = run.cluster.sites[1].engine.rule.name
            results.append(PairingResult(protocol, rule_name, report.outcome, report.atomic))
    return results


@dataclass
class TimeoutAblationRow:
    """Model-check outcome under one timeout scaling."""

    timeout_scale: float
    runs: int
    violations: int
    mean_term_attempts: float


def timeout_scenario(scale: float = 1.0) -> Scenario:
    """E14's question on a 6-site random catalog, with every engine's
    view of ``T`` scaled by ``scale``: one update, a random fault
    schedule, healed at a random time in [30, 50]."""
    params = dict(locals())

    def setup(cluster: Cluster) -> None:
        for site in cluster.sites.values():
            site.ensure_engine()._T = cluster.T * scale  # the wrong estimate

    def plan(rng, cluster, first):
        return random_fault_plan(rng, cluster.network.sites, first.origin, heal_at=rng.uniform(30.0, 50.0))

    return Scenario(
        name="timeout",
        params=params,
        stream="timeout-ablation",
        catalog=(random_catalog, {"n_sites": 6, "n_items": 3, "replication": 3}),
        workload=WorkloadSpec(n_txns=1, footprint=(1, 2)),
        plan=plan,
        drive="single",
        setup=setup,
    )


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
    rows = []
    for scale in scales:
        violations = 0
        attempts = 0
        for i in range(runs):
            run = run_scenario(timeout_scenario(scale), "qtp1", base_seed + i)
            txn = run.txn.txn
            violations += not run.cluster.outcome(txn).atomic
            attempts += run.cluster.tracer.count("term-phase1", txn=txn)
        rows.append(TimeoutAblationRow(scale, runs, violations, attempts / runs))
    return rows
