"""Integration tests specific to the Fig. 9 quorum commit protocols.

The distinguishing behaviour: the coordinator sends COMMIT before all
PC-ACKs have arrived — after ``w(x)`` votes for every item (CP1) or
``r(x)`` votes for some item (CP2).
"""

import pytest

from repro import CatalogBuilder, Cluster, FailurePlan, QuorumUnreachableError
from repro.bench.cases import commit_mix_trial


def catalog_5(r=2, w=4):
    return CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4, 5], r=r, w=w).build()


class TestEarlyCommit:
    def test_cp1_commits_after_w_votes(self):
        """With site 5's ack severed, CP1 still commits: sites 1-4 hold
        w(x)=4 votes."""
        cluster = Cluster(catalog_5(), protocol="qtp1")
        cluster.network.add_filter(
            lambda m: m.mtype == "qtp1.ack" and m.src == 5
        )
        txn = cluster.update(origin=1, writes={"x": 9})
        cluster.run()
        report = cluster.outcome(txn.txn)
        assert report.outcome == "commit"
        early = cluster.tracer.where(category="coord-early-commit", txn=txn.txn)
        assert early
        assert 5 not in early[0].detail["ackers"]

    def test_cp1_does_not_commit_below_w_votes(self):
        """Two severed acks leave 3 < w(x)=4 votes: CP1 must not commit
        from the acks alone; termination decides instead."""
        cluster = Cluster(catalog_5(), protocol="qtp1")
        cluster.network.add_filter(
            lambda m: m.mtype == "qtp1.ack" and m.src in (4, 5)
        )
        txn = cluster.update(origin=1, writes={"x": 9})
        cluster.run()
        assert not cluster.tracer.where(category="coord-early-commit", txn=txn.txn)
        # the transaction still terminates consistently via termination
        assert cluster.outcome(txn.txn).atomic

    def test_cp2_commits_after_r_votes_of_some_item(self):
        """CP2 needs only r(x)=2 PC-ACK votes: sever three acks and it
        still commits early."""
        cluster = Cluster(catalog_5(), protocol="qtp2")
        cluster.network.add_filter(
            lambda m: m.mtype == "qtp2.ack" and m.src in (3, 4, 5)
        )
        txn = cluster.update(origin=1, writes={"x": 9})
        cluster.run()
        report = cluster.outcome(txn.txn)
        assert report.outcome == "commit"
        early = cluster.tracer.where(category="coord-early-commit", txn=txn.txn)
        assert early
        assert len(early[0].detail["ackers"]) == 2

    def test_cp2_multi_item_needs_only_one_item_covered(self):
        """"r(x) votes for *some* data item x in the write set"."""
        catalog = (
            CatalogBuilder()
            .replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3)
            .replicated_item("y", sites=[5, 6, 7, 8], r=2, w=3)
            .build()
        )
        cluster = Cluster(catalog, protocol="qtp2")
        # all y-hosting acks are severed; x acks alone reach r(x)
        cluster.network.add_filter(
            lambda m: m.mtype == "qtp2.ack" and m.src in (5, 6, 7, 8)
        )
        txn = cluster.update(origin=1, writes={"x": 1, "y": 2})
        cluster.run()
        assert cluster.outcome(txn.txn).outcome == "commit"
        assert cluster.tracer.where(category="coord-early-commit", txn=txn.txn)

    def test_cp1_multi_item_needs_every_item_covered(self):
        catalog = (
            CatalogBuilder()
            .replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3)
            .replicated_item("y", sites=[5, 6, 7, 8], r=2, w=3)
            .build()
        )
        cluster = Cluster(catalog, protocol="qtp1")
        cluster.network.add_filter(
            lambda m: m.mtype == "qtp1.ack" and m.src in (5, 6, 7, 8)
        )
        txn = cluster.update(origin=1, writes={"x": 1, "y": 2})
        cluster.run()
        assert not cluster.tracer.where(category="coord-early-commit", txn=txn.txn)
        assert cluster.outcome(txn.txn).atomic


class TestEarlyCommitSafety:
    def test_commit_then_total_partition_stays_safe(self):
        """CP1 commits early; the unacked site partitions away in W; its
        partition must block or commit — never abort (Lemma 1)."""
        cluster = Cluster(catalog_5(), protocol="qtp1")
        cluster.network.add_filter(
            lambda m: m.mtype in ("qtp1.ack", "qtp1.prepare") and 5 in (m.src, m.dst)
        )
        txn = cluster.update(origin=1, writes={"x": 9})
        cluster.arm_failures(FailurePlan().partition(4.2, [1, 2, 3, 4], [5]).heal(50.0))
        cluster.run()
        report = cluster.outcome(txn.txn)
        assert report.atomic
        assert report.outcome == "commit"
        assert 5 in report.committed_sites  # learned after heal

    def test_ack_timeout_falls_back_to_termination(self):
        """No early quorum and the window closes: the coordinator
        re-enters via the termination protocol, not a unilateral call."""
        cluster = Cluster(catalog_5(), protocol="qtp1")
        cluster.network.add_filter(lambda m: m.mtype == "qtp1.ack" and m.src != 1)
        txn = cluster.update(origin=1, writes={"x": 9})
        cluster.run()
        assert cluster.tracer.where(category="coord-ack-timeout", txn=txn.txn)
        report = cluster.outcome(txn.txn)
        assert report.atomic
        assert not cluster.live_undecided(txn.txn)


class TestAdmission:
    """CP2 commits on ``r(x)`` votes of some item, so a write whose
    reachable copies hold ``w(x)`` but fewer than ``r(x)`` votes of every
    written item could never commit — once in PC it blocks for good."""

    #: x at sites 1-3 with r(x) = 3 > w(x) = 2
    CATALOG = CatalogBuilder().replicated_item("x", sites=[1, 2, 3], r=3, w=2).build()

    def test_cp2_refuses_a_write_its_participants_could_never_commit(self):
        for protocol, admitted in (("qtp1", True), ("qtp2", False)):
            cluster = Cluster(self.CATALOG, protocol=protocol)
            cluster.network.set_partition([[1], [2, 3]])
            if admitted:
                cluster.update(origin=2, writes={"x": 1})
                continue
            with pytest.raises(QuorumUnreachableError, match="qtp-termination-2 commit"):
                cluster.update(origin=2, writes={"x": 1})
            assert not cluster.submitted and not cluster.sites[2].wal.forced
            cluster.network.heal()
            txn = cluster.update(origin=2, writes={"x": 1})
            cluster.run()
            assert cluster.outcome(txn.txn).outcome == "commit"

    def test_commit_mix_seed_189_leaves_no_transaction_in_doubt(self):
        """T6.9 wrote i2 (copies 3, 5, 6; r=3, w=2) with site 3 cut off:
        sites 5 and 6 reached PC and blocked, healed and up.  Refused at
        admission now; the trial judges its run and would raise."""
        counters = commit_mix_trial(189, "qtp2")
        assert counters["blocked"] == 0
        assert counters["client-aborted"] == 5
