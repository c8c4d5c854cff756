"""The paper's worked examples as runnable scenarios.

Examples 1–4 all share one database (the paper's Fig. 3 layout):

* transaction TR, issued at site 1, updates items x and y;
* x has copies x1..x4 at sites 1–4; y has copies y5..y8 at sites 5–8;
* every copy holds one vote; ``r(x) = r(y) = 2``, ``w(x) = w(y) = 3``;
* for Skeen's protocol [16], every *site* holds one vote with commit
  quorum ``Vc = 5`` and abort quorum ``Va = 4`` (``Vc + Va = 9 > 8``);
* during the commitment procedure the coordinator (site 1) fails and
  the network partitions into G1 = {1,2,3}, G2 = {4,5}, G3 = {6,7,8},
  leaving site 5 in PC and every other active participant in W.

Example 3 (Fig. 7) uses a 5-site database with both items replicated
at sites 2–5 and a healed partition giving rise to two coordinators.

Each ``run_example*_scenario`` function builds a fresh cluster, replays
the scenario deterministically, and returns a :class:`ScenarioResult`
holding the cluster plus the derived verdicts — tests, benches and
examples all consume the same object.  E21, the WAN-scale sibling of
Fig. 3, is the registered :func:`wan_storm_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.consistency import ConsistencyReport
from repro.db.cluster import Cluster
from repro.db.txn import TxnHandle
from repro.replication.catalog import CatalogBuilder, ReplicaCatalog
from repro.sim.failures import FailurePlan
from repro.traffic.scenario import Scenario
from repro.workload.generators import region_storm_plan, wan_catalog, wan_regions
from repro.workload.spec import WorkloadSpec

#: the partition of Examples 1, 2 and 4 (Fig. 3).
EXAMPLE1_GROUPS = ([1, 2, 3], [4, 5], [6, 7, 8])

#: the site that has received PREPARE when the coordinator fails.
PREPARED_SITE = 5

#: virtual time of the coordinator failure + partitioning.  With the
#: default FixedDelay(1): votes complete at t=2, PREPARE reaches site 5
#: at t=3, so t=3.5 catches exactly the Fig. 3 snapshot.
FAILURE_TIME = 3.5


def example1_catalog() -> ReplicaCatalog:
    """The Fig. 3 database: x at sites 1–4, y at sites 5–8, r=2, w=3."""
    return (
        CatalogBuilder()
        .replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3)
        .replicated_item("y", sites=[5, 6, 7, 8], r=2, w=3)
        .build()
    )


def example3_catalog() -> ReplicaCatalog:
    """The Fig. 7 database: x and y replicated at sites 2–5, r=2, w=3."""
    return (
        CatalogBuilder()
        .replicated_item("x", sites=[2, 3, 4, 5], r=2, w=3)
        .replicated_item("y", sites=[2, 3, 4, 5], r=2, w=3)
        .build()
    )


@dataclass
class ScenarioResult:
    """Everything a consumer needs from one scenario run."""

    cluster: Cluster
    txn: TxnHandle
    report: ConsistencyReport

    @property
    def outcome(self) -> str:
        """Transaction-level outcome summary."""
        return self.report.outcome

    def states(self) -> dict[int, str]:
        """Local state per live participant at the end of the run."""
        return self.cluster.states(self.txn.txn)


def run_example1_scenario(
    protocol: str,
    seed: int = 0,
    run_to: float | None = None,
    enforce_ignore_rules: bool = True,
) -> ScenarioResult:
    """Replay the Fig. 3 failure under any protocol.

    Used for Example 1 (``protocol="skq"``: everything blocks),
    Example 2 (``protocol="3pc"``: inconsistent termination) and
    Example 4 (``protocol="qtp1"``: G1 and G3 abort and unblock).

    Args:
        protocol: cluster protocol name.
        seed: run seed.
        run_to: stop at this virtual time (default: run to quiescence).
        enforce_ignore_rules: forwarded to the cluster.
    """
    cluster = Cluster(
        example1_catalog(),
        protocol=protocol,
        seed=seed,
        commit_quorum=5,
        abort_quorum=4,
        enforce_ignore_rules=enforce_ignore_rules,
    )
    # Only site 5's PREPARE gets through before the failure (Fig. 3).
    cluster.network.add_filter(
        lambda m: m.mtype.endswith(".prepare") and m.dst != PREPARED_SITE
    )
    txn = cluster.update(origin=1, writes={"x": 10, "y": 20})
    plan = (
        FailurePlan()
        .crash(FAILURE_TIME, 1)
        .partition(FAILURE_TIME, *EXAMPLE1_GROUPS)
    )
    cluster.arm_failures(plan)
    if run_to is None:
        cluster.run()
    else:
        cluster.run_until(run_to)
    return ScenarioResult(cluster, txn, cluster.outcome(txn.txn))


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


def run_example3_scenario(
    enforce_ignore_rules: bool,
    protocol: str = "qtp1",
    seed: int = 0,
) -> ScenarioResult:
    """Replay Example 3 / Fig. 7: two coordinators in a healed partition.

    The network partitions into {1,2} | {3,4,5} leaving site 5 in PC,
    then heals "just before [the lower coordinator] starts collecting
    local state information" — with the messages between the two
    coordinators, and from the lower coordinator to the PC site, lost.
    Both coordinators then poll concurrently:

    * the low coordinator (site 2) sees only W states worth r(x) votes
      and runs a PREPARE-TO-ABORT round;
    * the high coordinator (site 5) sees its own PC plus W states worth
      w(x) votes and runs a PREPARE-TO-COMMIT round.

    With ``enforce_ignore_rules=False`` the overlapping participants
    answer both rounds and the transaction terminates inconsistently
    (the paper's counterexample); with the rules enforced, one round
    fails its quorum and termination stays consistent.
    """
    cluster = Cluster(
        example3_catalog(),
        protocol=protocol,
        extra_sites=[1],
        seed=seed,
        enforce_ignore_rules=enforce_ignore_rules,
    )
    cluster.network.add_filter(
        lambda m: m.mtype.endswith(".prepare") and m.dst != PREPARED_SITE
    )
    txn = cluster.update(origin=1, writes={"x": 7, "y": 8})
    plan = (
        FailurePlan()
        .crash(FAILURE_TIME, 1)
        .partition(FAILURE_TIME, [1, 2], [3, 4, 5])
        .heal(4.0)
        # the paper's lost messages: site2 <-> site3 and site2 -> site5
        .sever_both(4.0, 2, 3)
        .sever(4.0, 2, 5)
    )
    cluster.arm_failures(plan)

    def drive_two_coordinators() -> None:
        cluster.sites[2].engine._run_termination(txn.txn)
        cluster.sites[5].engine._run_termination(txn.txn)

    cluster.scheduler.call_at(4.01, drive_two_coordinators)
    cluster.run()
    return ScenarioResult(cluster, txn, cluster.outcome(txn.txn))
