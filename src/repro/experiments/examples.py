"""Experiments E3, E4, E7, E8 — the paper's worked examples, asserted.

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
examples all consume the same object.  Each ``run_example*`` runner
distills the paper's prose claim from one such result into a
structured verdict the benchmarks print and the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.consistency import ConsistencyReport
from repro.db.cluster import Cluster
from repro.db.txn import TxnHandle
from repro.replication.catalog import CatalogBuilder, ReplicaCatalog
from repro.sim.failures import FailurePlan

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
        cluster.scheduler.run_until(run_to)
    return ScenarioResult(cluster, txn, cluster.outcome(txn.txn))


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
        cluster.sites[2].ensure_engine()._run_termination(txn.txn)
        cluster.sites[5].ensure_engine()._run_termination(txn.txn)

    cluster.scheduler.call_at(4.01, drive_two_coordinators)
    cluster.run()
    return ScenarioResult(cluster, txn, cluster.outcome(txn.txn))


@dataclass
class Example1Verdict:
    """E3: Skeen's protocol [16] blocks every partition of Fig. 3."""

    outcome: str
    blocked_in_all_partitions: bool
    x_readable_in_g1: bool
    y_writable_in_g3: bool
    availability_table: str

    @property
    def matches_paper(self) -> bool:
        """The paper: TR blocks everywhere; x and y inaccessible."""
        return (
            self.outcome == "blocked"
            and self.blocked_in_all_partitions
            and not self.x_readable_in_g1
            and not self.y_writable_in_g3
        )


def run_example1(seed: int = 0) -> Example1Verdict:
    """E3: the Fig. 3 failure under Skeen's site-quorum protocol."""
    result = run_example1_scenario("skq", seed=seed)
    availability = result.cluster.availability()
    g1, g2, g3 = (frozenset(g) for g in EXAMPLE1_GROUPS)
    states = result.states()
    undecided = {s for s, st in states.items() if st not in ("C", "A")}
    return Example1Verdict(
        outcome=result.outcome,
        blocked_in_all_partitions=all(
            any(site in undecided for site in group) for group in EXAMPLE1_GROUPS
        ),
        x_readable_in_g1=availability.row(g1, "x").readable,
        y_writable_in_g3=availability.row(g3, "y").writable,
        availability_table=availability.describe(),
    )


@dataclass
class Example2Verdict:
    """E8: 3PC termination is inconsistent under the Fig. 3 partitioning."""

    outcome: str
    committed_sites: list[int]
    aborted_sites: list[int]
    g2_committed: bool
    g1_g3_aborted: bool

    @property
    def matches_paper(self) -> bool:
        """The paper: G2 commits TR while G1 and G3 abort it."""
        return self.outcome == "mixed" and self.g2_committed and self.g1_g3_aborted


def run_example2(seed: int = 0) -> Example2Verdict:
    """E8: the Fig. 3 failure under 3PC + Skeen's termination protocol."""
    result = run_example1_scenario("3pc", seed=seed)
    committed = set(result.report.committed_sites)
    aborted = set(result.report.aborted_sites)
    g1, g2, g3 = EXAMPLE1_GROUPS
    return Example2Verdict(
        outcome=result.outcome,
        committed_sites=sorted(committed),
        aborted_sites=sorted(aborted),
        g2_committed=committed == {4, 5},
        g1_g3_aborted=aborted == {2, 3} | set(g3),
    )


@dataclass
class Example3Verdict:
    """E7: two coordinators — broken vs enforced ignore rules."""

    enforce_ignore_rules: bool
    outcome: str
    atomic: bool
    ignored_messages: int

    @property
    def matches_paper(self) -> bool:
        """Broken variant terminates inconsistently; enforced stays atomic."""
        if self.enforce_ignore_rules:
            return self.atomic and self.outcome in ("commit", "abort")
        return not self.atomic and self.outcome == "mixed"


def run_example3(enforce_ignore_rules: bool, seed: int = 0) -> Example3Verdict:
    """E7: the Fig. 7 two-coordinator scenario."""
    result = run_example3_scenario(enforce_ignore_rules, seed=seed)
    return Example3Verdict(
        enforce_ignore_rules=enforce_ignore_rules,
        outcome=result.outcome,
        atomic=result.report.atomic,
        ignored_messages=result.cluster.tracer.count("ignored", txn=result.txn.txn),
    )


@dataclass
class Example4Verdict:
    """E4: termination protocol 1 restores availability in G1 and G3."""

    outcome: str
    g1_aborted: bool
    g3_aborted: bool
    g2_blocked: bool
    x_readable_in_g1: bool
    x_writable_in_g1: bool
    y_writable_in_g3: bool
    availability_table: str

    @property
    def matches_paper(self) -> bool:
        """The paper: TR aborts in G1 and G3; x readable in G1 (not
        writable — site 1 is down); y updatable in G3; G2 stays blocked."""
        return (
            self.g1_aborted
            and self.g3_aborted
            and self.g2_blocked
            and self.x_readable_in_g1
            and not self.x_writable_in_g1
            and self.y_writable_in_g3
        )


def run_example4(seed: int = 0, protocol: str = "qtp1") -> Example4Verdict:
    """E4: the Fig. 3 failure under the paper's protocol 1."""
    result = run_example1_scenario(protocol, seed=seed)
    states = result.states()
    availability = result.cluster.availability()
    g1, g2, g3 = (frozenset(g) for g in EXAMPLE1_GROUPS)
    return Example4Verdict(
        outcome=result.outcome,
        g1_aborted=all(states.get(s) == "A" for s in (2, 3)),
        g3_aborted=all(states.get(s) == "A" for s in (6, 7, 8)),
        g2_blocked=all(states.get(s) in ("W", "PC") for s in (4, 5)),
        x_readable_in_g1=availability.row(g1, "x").readable,
        x_writable_in_g1=availability.row(g1, "x").writable,
        y_writable_in_g3=availability.row(g3, "y").writable,
        availability_table=availability.describe(),
    )
