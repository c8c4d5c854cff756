"""Integration tests for crash recovery of sites."""

import pytest

from repro import CatalogBuilder, Cluster, FailurePlan
from repro.protocols.states import TxnState


@pytest.fixture
def catalog():
    return CatalogBuilder().replicated_item("x", sites=[1, 2, 3], r=2, w=2).build()


class TestParticipantRecovery:
    def test_recovered_participant_learns_commit(self, catalog):
        cluster = Cluster(catalog, protocol="qtp1")
        txn = cluster.update(origin=1, writes={"x": 5})
        cluster.arm_failures(FailurePlan().crash(2.5, 3).recover(40.0, 3))
        cluster.run()
        report = cluster.outcome(txn.txn)
        assert report.atomic
        assert 3 in report.committed_sites
        assert cluster.sites[3].store.read("x").value == 5

    def test_recovered_state_comes_from_wal(self, catalog):
        cluster = Cluster(catalog, protocol="qtp1")
        txn = cluster.update(origin=1, writes={"x": 5})
        # crash site 3 after it voted yes (t=1) but before prepare (t=3)
        cluster.arm_failures(FailurePlan().crash(2.0, 3))
        cluster.scheduler.run_until(10.0)
        cluster.network.recover_site(3)
        record = cluster.sites[3].engine.record(txn.txn)
        assert record is not None
        assert record.state is TxnState.W

    def test_recovered_participant_relocks_writeset(self, catalog):
        cluster = Cluster(catalog, protocol="qtp1")
        txn = cluster.update(origin=1, writes={"x": 5})
        cluster.arm_failures(FailurePlan().crash(2.0, 3))
        cluster.scheduler.run_until(10.0)
        assert cluster.sites[3].locks.held_by(txn.txn) == []  # lost in crash
        cluster.network.recover_site(3)
        assert cluster.sites[3].locks.held_by(txn.txn) == ["x"]

    def test_committed_data_survives_crash(self, catalog):
        cluster = Cluster(catalog, protocol="qtp1")
        cluster.update(origin=1, writes={"x": 5})
        cluster.run()
        cluster.network.crash_site(2)
        cluster.network.recover_site(2)
        assert cluster.sites[2].store.read("x").value == 5
        assert cluster.sites[2].store.read("x").version == 1

    def test_double_crash_recover_cycles(self, catalog):
        cluster = Cluster(catalog, protocol="qtp1")
        txn = cluster.update(origin=1, writes={"x": 5})
        plan = (
            FailurePlan()
            .crash(2.0, 3)
            .recover(20.0, 3)
            .crash(21.0, 3)
            .recover(40.0, 3)
        )
        cluster.arm_failures(plan)
        cluster.run()
        report = cluster.outcome(txn.txn)
        assert report.atomic
        assert 3 in (report.committed_sites + report.aborted_sites)


class TestWholeClusterCrash:
    def test_everyone_crashes_and_recovers(self, catalog):
        """Total failure after the prepare round; on recovery the
        termination protocol commits (all were in PC)."""
        cluster = Cluster(catalog, protocol="qtp1")
        txn = cluster.update(origin=1, writes={"x": 5})
        plan = FailurePlan()
        for site in (1, 2, 3):
            plan.crash(3.6, site)
            plan.recover(30.0 + site, site)
        cluster.arm_failures(plan)
        cluster.run()
        report = cluster.outcome(txn.txn)
        assert report.atomic
        assert report.outcome == "commit"
        assert set(report.committed_sites) == {1, 2, 3}
