"""Named regression tests for recovery bugs found by hypothesis.

The whole-run property search (tests/property/test_prop_runs.py) found
that a site which *committed and then crashed* rebuilt no record for
the decided transaction; a later termination poll materialized it as
Q ("never voted"), which drives the immediate-abort branch — a new
coordinator would then abort a committed transaction.  These tests pin
the minimal schedule and the two layers of the fix.

An exhaustive cut-point probe (crash the coordinator after every event
of one update) found the converse: a recovered coordinator took its own
decision for its participant half's, and kept a stale copy.
"""

import itertools

import pytest

from repro import CatalogBuilder, Cluster, FailurePlan
from repro.net.message import Message
from repro.protocols.states import TxnState


def minimal_schedule_cluster():
    """The shrunk hypothesis counterexample: commit, mass crash, mass
    recovery, then a straggler (site 3, crashed in W before learning
    the outcome) runs termination against the recovered sites."""
    catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3).build()
    cluster = Cluster(catalog, protocol="qtp1")
    cluster.update(origin=1, writes={"x": 42}, txn_id="T-reg")
    plan = (
        FailurePlan()
        .crash(1.0, 3)   # site 3 dies right after voting yes
        .crash(5.0, 1)   # the others die after committing
        .crash(6.0, 2)
        .crash(6.0, 4)
        .heal(60.0)
        .recover(61.0, 1)
        .recover(61.0, 2)
        .recover(61.0, 4)
        .recover(63.0, 3)
    )
    cluster.arm_failures(plan)
    cluster.run()
    return cluster


class TestDecidedRecoveryRegression:
    def test_no_abort_after_commit(self):
        cluster = minimal_schedule_cluster()
        report = cluster.outcome("T-reg")
        assert report.atomic
        assert report.outcome == "commit"
        assert set(report.committed_sites) == {1, 2, 3, 4}

    def test_recovered_decided_site_rebuilds_terminal_record(self):
        catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3], r=2, w=2).build()
        cluster = Cluster(catalog, protocol="qtp1")
        txn = cluster.update(origin=1, writes={"x": 5})
        cluster.run()
        cluster.network.crash_site(2)
        cluster.network.recover_site(2)
        record = cluster.sites[2].engine.record(txn.txn)
        assert record is not None
        assert record.state is TxnState.C

    def test_stale_attempt_does_not_reblock_after_recovery(self):
        """Second hypothesis find (liveness): a termination attempt
        polled while sites were still down must not land its BLOCK
        verdict *after* they recover — the stale attempt would
        broadcast blocked-notices that wedge the fresh epoch.  kick()
        now invalidates in-flight attempts."""
        catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3).build()
        cluster = Cluster(catalog, protocol="qtp1")
        cluster.update(origin=1, writes={"x": 1}, txn_id="T-live")
        plan = (
            FailurePlan()
            .crash(1.0, 1)
            .crash(1.0, 2)
            .crash(1.0, 3)
            .heal(50.0)  # site 4 starts a poll seeing only itself...
            .recover(52.0, 1)  # ...while the others come back mid-attempt
            .recover(52.0, 2)
            .recover(52.0, 3)
            .recover(53.0, 4)
        )
        cluster.arm_failures(plan)
        cluster.run()
        assert cluster.live_undecided("T-live") == []
        report = cluster.outcome("T-live")
        assert report.atomic
        assert report.outcome == "abort"  # all-W epoch: r(x) votes abort

    def test_poll_of_recovered_decided_site_reports_decision(self):
        """Even with no rebuilt record, a state-req must be answered
        from the WAL decision, never with Q."""
        catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3], r=2, w=2).build()
        cluster = Cluster(catalog, protocol="qtp1")
        txn = cluster.update(origin=1, writes={"x": 5})
        cluster.run()
        engine = cluster.sites[2].engine
        engine._records.clear()  # simulate the pre-fix state
        engine._on_term_state_req(
            Message(
                3,
                2,
                "qtp1.t.state-req",
                txn.txn,
                {
                    "attempt": 1,
                    "coordinator": 3,
                    "writes": {"x": [5, 1]},
                    "participants": [1, 2, 3],
                    "epoch": 0,
                },
            )
        )
        assert engine.record(txn.txn).state is TxnState.C


def crashed_coordinator_cluster(protocol, cut, split):
    """One update of ``x`` (on five sites, r=2, w=4) from site 1, cut
    after ``cut`` events: site 1 crashes there (cut off from the rest
    first when ``split``), and everything heals and recovers 200 later.
    Returns the run-to-quiescence cluster and the transaction, or None
    when the update has fewer than ``cut`` events."""
    catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4, 5], r=2, w=4).build()
    cluster = Cluster(catalog, protocol=protocol, seed=0)
    txn = cluster.update(1, {"x": 7})
    for _ in range(cut):
        if not cluster.scheduler.step():
            return None
    now = cluster.scheduler.now
    plan = FailurePlan()
    if split:
        plan.partition(now, [1], [2, 3, 4, 5])
    cluster.arm_failures(plan.crash(now, 1).heal(now + 200).recover(now + 200, 1))
    cluster.run()
    return cluster, txn.txn


def copies(cluster):
    return {s: (site.store.read("x").value, site.store.read("x").version) for s, site in cluster.sites.items()}


class TestRecoveredCoordinatorDecidesItsParticipantHalf:
    """A coordinator that forced COMMIT and crashed before its own
    COMMIT reached its participant half used to rebuild that half as
    committed from the *coordinator-role* decision: ``_decide`` never
    ran, so the write was never applied and the re-broadcast COMMIT was
    absorbed as a duplicate — a stale copy on a site whose state said C.
    Only a participant-role decision makes the rebuilt record terminal."""

    def test_roadmap_repro(self):
        cluster, txn = crashed_coordinator_cluster("qtp1", 18, split=True)
        assert cluster.sites[1].wal.decision(txn) == "commit"
        assert cluster.live_undecided(txn) == []
        assert copies(cluster) == {s: (7, 1) for s in range(1, 6)}
        assert set(cluster.outcome(txn).committed_sites) == {1, 2, 3, 4, 5}
        # the half recovered in its own last state (PC), not as Q
        states = [r.detail for r in cluster.tracer.where(category="state", site=1, txn=txn)]
        assert [(d["src"], d["dst"]) for d in states] == [("Q", "W"), ("W", "PC"), ("PC", "C")]

    @pytest.mark.parametrize("protocol", ["2pc", "3pc", "skq", "qtp1", "qtp2"])
    def test_every_cut_of_one_update(self, protocol):
        runs = 0
        for split in (False, True):
            for cut in itertools.count():
                built = crashed_coordinator_cluster(protocol, cut, split)
                if built is None:
                    break
                cluster, txn = built
                runs += 1
                where = (protocol, cut, split)
                assert cluster.live_undecided(txn) == [], where
                assert cluster.tracer.count("illegal-transition") == 0, where
                newest = max(version for _value, version in copies(cluster).values())
                expected = (7, 1) if newest else (0, 0)
                assert copies(cluster) == {s: expected for s in range(1, 6)}, where
        assert runs > 30  # the update has that many events to cut after
