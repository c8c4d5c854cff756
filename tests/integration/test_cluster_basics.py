"""Integration tests: cluster construction and the failure-free path."""

import pytest

from repro import (
    CatalogBuilder,
    Cluster,
    ConfigurationError,
    PROTOCOL_NAMES,
    QuorumUnreachableError,
)


class TestConstruction:
    def test_unknown_protocol_rejected(self, simple_catalog):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            Cluster(simple_catalog, protocol="paxos")

    def test_sites_host_their_copies(self, paper_catalog):
        cluster = Cluster(paper_catalog)
        assert cluster.sites[1].store.hosts("x")
        assert not cluster.sites[1].store.hosts("y")
        assert cluster.sites[5].store.hosts("y")

    def test_extra_sites_host_nothing(self, simple_catalog):
        cluster = Cluster(simple_catalog, extra_sites=[9])
        assert len(cluster.sites[9].store) == 0

    def test_T_reflects_delay_model(self, simple_catalog):
        from repro import FixedDelay

        cluster = Cluster(simple_catalog, delay_model=FixedDelay(2.5))
        assert cluster.T == 2.5


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
class TestFailureFreeCommit:
    def test_commits_everywhere(self, paper_catalog, protocol):
        cluster = Cluster(paper_catalog, protocol=protocol)
        txn = cluster.update(origin=1, writes={"x": 11, "y": 22})
        cluster.run()
        report = cluster.outcome(txn.txn)
        assert report.outcome == "commit"
        assert report.atomic and report.fully_terminated
        assert set(report.committed_sites) == set(range(1, 9))

    def test_values_installed_with_version(self, paper_catalog, protocol):
        cluster = Cluster(paper_catalog, protocol=protocol)
        cluster.update(origin=1, writes={"x": 11})
        cluster.run()
        for site in (1, 2, 3, 4):
            assert cluster.sites[site].store.read("x").value == 11
            assert cluster.sites[site].store.read("x").version == 1

    def test_locks_released_after_commit(self, paper_catalog, protocol):
        cluster = Cluster(paper_catalog, protocol=protocol)
        txn = cluster.update(origin=1, writes={"x": 11})
        cluster.run()
        for site in (1, 2, 3, 4):
            assert cluster.sites[site].locks.held_by(txn.txn) == []

    def test_sequential_updates_bump_versions(self, paper_catalog, protocol):
        cluster = Cluster(paper_catalog, protocol=protocol)
        cluster.update(origin=1, writes={"x": 1})
        cluster.run()
        cluster.update(origin=2, writes={"x": 2})
        cluster.run()
        assert cluster.read(3, "x").value == 2
        assert cluster.read(3, "x").version == 2

    def test_no_illegal_transitions(self, paper_catalog, protocol):
        cluster = Cluster(paper_catalog, protocol=protocol)
        txn = cluster.update(origin=1, writes={"x": 11, "y": 22})
        cluster.run()
        assert cluster.outcome(txn.txn).illegal_transitions == 0


class TestVoteNoPath:
    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_lock_conflict_aborts(self, paper_catalog, protocol):
        """A participant that cannot lock a copy votes no; everyone aborts."""
        cluster = Cluster(paper_catalog, protocol=protocol)
        # a foreign lock on site 2's copy of x forces a no vote there
        from repro.concurrency.locks import LockMode

        cluster.sites[2].locks.try_acquire("intruder", "x", LockMode.EXCLUSIVE)
        txn = cluster.update(origin=1, writes={"x": 5})
        cluster.run()
        report = cluster.outcome(txn.txn)
        assert report.outcome == "abort"
        assert report.atomic
        # the no-voter released nothing it did not hold
        assert cluster.sites[2].locks.held_by("intruder") == ["x"]

    def test_aborted_txn_leaves_values_untouched(self, paper_catalog):
        from repro.concurrency.locks import LockMode

        cluster = Cluster(paper_catalog, protocol="qtp1")
        cluster.sites[2].locks.try_acquire("intruder", "x", LockMode.EXCLUSIVE)
        cluster.update(origin=1, writes={"x": 5})
        cluster.run()
        assert cluster.sites[3].store.read("x").value == 0
        assert cluster.sites[3].store.read("x").version == 0


class TestRead:
    def test_read_returns_latest(self, paper_catalog):
        cluster = Cluster(paper_catalog)
        cluster.update(origin=1, writes={"y": 7})
        cluster.run()
        assert cluster.read(6, "y").value == 7

    def test_read_blocked_by_partition(self, paper_catalog):
        cluster = Cluster(paper_catalog)
        cluster.network.set_partition([[1], [2, 3, 4, 5, 6, 7, 8]])
        with pytest.raises(QuorumUnreachableError):
            cluster.read(1, "x")

    def test_read_sees_enough_votes_in_majority_side(self, paper_catalog):
        cluster = Cluster(paper_catalog)
        cluster.network.set_partition([[1], [2, 3, 4, 5, 6, 7, 8]])
        assert cluster.read(2, "x").version == 0

    def test_concurrent_nonconflicting_txns(self, paper_catalog):
        cluster = Cluster(paper_catalog, protocol="qtp2")
        t1 = cluster.update(origin=1, writes={"x": 1})
        t2 = cluster.update(origin=5, writes={"y": 2})
        cluster.run()
        assert cluster.outcome(t1.txn).outcome == "commit"
        assert cluster.outcome(t2.txn).outcome == "commit"
