"""Integration tests for the interactive transaction API."""

import contextlib
import random

import pytest

from repro import CatalogBuilder, Cluster, FailurePlan, QuorumUnreachableError, TransactionAborted
from repro.common.errors import ConfigurationError, ProtocolError, SiteDownError
from repro.concurrency.serializability import ConflictGraph
from repro.db.transactions import TxnPhase
from repro.workload.generators import random_catalog


@pytest.fixture
def catalog():
    return (
        CatalogBuilder()
        .replicated_item("x", sites=[1, 2, 3], r=2, w=2)
        .replicated_item("y", sites=[1, 2, 3], r=2, w=2)
        .build()
    )


@pytest.fixture
def cluster(catalog):
    return Cluster(catalog, protocol="qtp1")


class TestReadPath:
    def test_read_returns_current_value(self, cluster):
        txn = cluster.transaction(origin=1)
        assert txn.read("x") == 0

    def test_read_takes_shared_locks_on_quorum(self, cluster):
        txn = cluster.transaction(origin=1)
        txn.read("x")
        locked = [
            s for s in (1, 2, 3) if txn.txn in cluster.sites[s].locks.holder_modes("x")
        ]
        assert len(locked) == 2  # r(x) = 2 copies

    def test_two_readers_coexist(self, cluster):
        a = cluster.transaction(origin=1)
        b = cluster.transaction(origin=2)
        assert a.read("x") == 0
        assert b.read("x") == 0

    def test_reread_served_locally(self, cluster):
        txn = cluster.transaction(origin=1)
        txn.read("x")
        before = cluster.network.sent
        txn.read("x")
        assert cluster.network.sent == before

    def test_read_your_own_write(self, cluster):
        txn = cluster.transaction(origin=1)
        txn.write("x", 77)
        assert txn.read("x") == 77

    def test_read_conflicting_with_writer_aborts(self, cluster):
        writer = cluster.transaction(origin=1)
        writer.read("x")
        writer.write("x", 1)
        writer.submit()  # X locks taken at vote time (t=0 self-send is pending)
        cluster.run()
        # now start a reader while a *new* writer holds X locks
        w2 = cluster.transaction(origin=1)
        w2.write("x", 2)
        w2.submit()  # locks not yet taken (vote-req in flight)...
        cluster.run_until(cluster.scheduler.now + 1.5)  # ...now they are
        reader = cluster.transaction(origin=2)
        with pytest.raises(TransactionAborted, match="read lock conflict"):
            reader.read("x")
        assert reader.phase is TxnPhase.ABORTED

    def test_aborted_reader_leaves_no_locks(self, cluster):
        # same setup as above, then check lock tables are clean
        w = cluster.transaction(origin=1)
        w.write("x", 2)
        w.submit()
        cluster.run_until(1.5)
        reader = cluster.transaction(origin=2)
        reader_txn = reader.txn
        with pytest.raises(TransactionAborted):
            reader.read("x")
        for site in cluster.sites.values():
            assert site.locks.held_by(reader_txn) == []

    def test_read_without_quorum_raises_but_txn_survives(self, cluster):
        cluster.network.set_partition([[1], [2, 3]])
        txn = cluster.transaction(origin=1)
        with pytest.raises(QuorumUnreachableError):
            txn.read("x")
        assert txn.phase is TxnPhase.ACTIVE  # caller may still abort cleanly
        txn.abort()


class TestWriteAndSubmit:
    def test_update_commits_and_installs(self, cluster):
        txn = cluster.transaction(origin=1)
        value = txn.read("x")
        txn.write("x", value + 5)
        handle = txn.submit()
        cluster.run()
        assert cluster.outcome(handle.txn).outcome == "commit"
        assert cluster.read(2, "x").value == 5

    def test_unknown_item_rejected(self, cluster):
        txn = cluster.transaction(origin=1)
        with pytest.raises(ConfigurationError, match="unknown item"):
            txn.write("ghost", 1)

    def test_participants_include_read_only_sites(self, catalog):
        """A site read-locked but hosting no written item joins the
        protocol so its S locks are released by the decision."""
        wide = (
            CatalogBuilder()
            .replicated_item("x", sites=[1, 2, 3], r=2, w=2)
            .replicated_item("z", sites=[4, 5, 6], r=2, w=2)
            .build()
        )
        cluster = Cluster(wide, protocol="qtp1")
        txn = cluster.transaction(origin=4)
        txn.read("z")  # locks two of 4,5,6
        txn.write("x", 1)  # hosts: 1,2,3
        handle = txn.submit()
        assert set(handle.participants) > {1, 2, 3}
        cluster.run()
        assert cluster.outcome(handle.txn).outcome == "commit"
        for site in (4, 5, 6):
            assert cluster.sites[site].locks.held_by(handle.txn) == []

    def test_version_derived_from_read(self, cluster):
        cluster.update(origin=1, writes={"x": 1})
        cluster.run()
        txn = cluster.transaction(origin=1)
        txn.read("x")
        txn.write("x", 2)
        handle = txn.submit()
        assert handle.writes["x"][1] == 2  # version 1 read -> writes v2

    def test_blind_write_versions_from_quorum(self, cluster):
        cluster.update(origin=1, writes={"x": 1})
        cluster.run()
        txn = cluster.transaction(origin=1)
        txn.write("x", 9)  # no read first
        handle = txn.submit()
        assert handle.writes["x"][1] == 2

    def test_readonly_submit_commits_instantly(self, cluster):
        txn = cluster.transaction(origin=1)
        txn.read("x")
        handle = txn.submit()
        assert txn.phase is TxnPhase.COMMITTED
        assert handle.participants == ()
        for site in cluster.sites.values():
            assert site.locks.held_by(handle.txn) == []

    def test_update_with_no_writes_commits_client_side(self, cluster):
        handle = cluster.update(1, {})
        assert (handle.writes, handle.participants) == ({}, ())
        assert handle.txn not in cluster.submitted  # no commit protocol ran
        assert cluster.network.sent == 0
        assert [(c.txn, c.reads, c.writes) for c in cluster.committed_history()] == [(handle.txn, {}, {})]

    def test_write_only_update_keeps_no_read_footprint(self, cluster):
        update = cluster.update(1, {"x": 1})
        cluster.run()
        txn = cluster.transaction(origin=2)
        txn.write("y", txn.read("x") + 1)
        reader = txn.submit()
        cluster.run()
        assert update.txn in cluster.submitted and update.txn not in cluster._read_footprints
        assert cluster._read_footprints == {reader.txn: {"x": 1}}
        history = {c.txn: (c.reads, c.writes) for c in cluster.committed_history()}
        assert history == {update.txn: ({}, {"x": 1}), reader.txn: ({"x": 1}, {"y": 1})}

    def test_client_abort_releases_locks(self, cluster):
        txn = cluster.transaction(origin=1)
        txn.read("x")
        txn.abort()
        for site in cluster.sites.values():
            assert site.locks.held_by(txn.txn) == []

    def test_lifecycle_enforced(self, cluster):
        txn = cluster.transaction(origin=1)
        txn.abort()
        with pytest.raises(ProtocolError, match="aborted"):
            txn.read("x")
        with pytest.raises(ProtocolError):
            txn.submit()


class TestSerializabilityEndToEnd:
    def test_sequential_history_is_1sr(self, cluster):
        for i in range(4):
            txn = cluster.transaction(origin=(i % 3) + 1)
            value = txn.read("x")
            txn.write("x", value + 1)
            txn.submit()
            cluster.run()
        history = cluster.committed_history()
        graph = ConflictGraph(history)
        assert graph.is_serializable()
        assert cluster.read(1, "x").value == 4

    def test_interleaved_disjoint_txns_are_1sr(self, cluster):
        a = cluster.transaction(origin=1)
        b = cluster.transaction(origin=2)
        a.write("x", a.read("x") + 1)
        b.write("y", b.read("y") + 1)
        a.submit()
        b.submit()
        cluster.run()
        assert ConflictGraph(cluster.committed_history()).is_serializable()

    def test_conflicting_concurrent_txns_one_aborts(self, cluster):
        """No-wait 2PL: the second writer cannot lock and dies."""
        a = cluster.transaction(origin=1)
        a.write("x", a.read("x") + 1)
        a.submit()
        cluster.run_until(1.5)  # a's X locks are now held at vote time
        b = cluster.transaction(origin=2)
        with pytest.raises(TransactionAborted):
            b.read("x")
        cluster.run()
        history = cluster.committed_history()
        assert len([h for h in history if h.writes]) == 1
        assert ConflictGraph(history).is_serializable()

    def test_cross_partition_writes_cannot_both_commit(self, catalog):
        """w > v/2: two partitions cannot both install writes of x —
        the majority side commits with a write quorum of reachable
        copies; the minority side cannot even assemble one."""
        cluster = Cluster(catalog, protocol="qtp1")
        cluster.network.set_partition([[1, 2], [3]])
        a = cluster.transaction(origin=1)
        a.write("x", 100)
        a.submit()
        cluster.run()
        b = cluster.transaction(origin=3)
        b.write("x", 200)
        with pytest.raises(QuorumUnreachableError):
            b.submit()
        history = [h for h in cluster.committed_history() if h.writes]
        assert len(history) == 1  # only the quorum side committed
        assert cluster.read(1, "x").value == 100
        # site 3's copy is stale; a healed read quorum masks it
        cluster.network.heal()
        assert cluster.read(3, "x").value == 100


class TestDownOrigin:
    """A client at a crashed (or departed) site is refused before it
    takes a lock, registers, or writes a log row."""

    @pytest.fixture
    def crashed(self):
        catalog = random_catalog(random.Random(1), n_sites=6, n_items=4, replication=3)
        assert 4 not in catalog.sites_of("i0")  # the read goes remote
        cluster = Cluster(catalog, protocol="qtp1")
        cluster.network.crash_site(4)
        return cluster

    @staticmethod
    def _held(cluster, txn):
        return {s: site.locks.held_by(txn) for s, site in cluster.sites.items() if site.locks.held_by(txn)}

    def test_read_at_a_crashed_origin_takes_no_lock(self, crashed):
        txn = crashed.transaction(4)
        with pytest.raises(TransactionAborted, match="origin site 4 is down"):
            txn.read("i0")
        assert txn.phase is TxnPhase.ABORTED
        assert self._held(crashed, txn.txn) == {}

    def test_submit_after_the_origin_crashed_leaves_nothing(self, catalog):
        cluster = Cluster(catalog, protocol="qtp1", extra_sites=[4])
        txn = cluster.transaction(4)
        txn.read("x")  # origin still up: S locks at a read quorum
        txn.write("x", 1)
        cluster.network.crash_site(4)
        with pytest.raises(TransactionAborted, match="origin site 4 is down"):
            txn.submit()
        assert txn.phase is TxnPhase.ABORTED
        assert self._held(cluster, txn.txn) == {}
        assert txn.txn not in cluster.submitted  # never registered
        assert cluster.sites[4].wal.begins() == []
        # the copies it had read-locked are free for the next writer
        writer = cluster.transaction(1)
        writer.write("x", 2)
        handle = writer.submit()
        cluster.run()
        assert cluster.outcome(handle.txn).outcome == "commit"

    def test_a_later_writer_of_the_item_commits(self, crashed):
        reader = crashed.transaction(4)
        with contextlib.suppress(TransactionAborted, SiteDownError):
            reader.write("i0", reader.read("i0") + 1)
            reader.submit()
        writer = crashed.transaction(1)
        writer.write("i0", 7)
        handle = writer.submit()
        crashed.run()
        assert crashed.outcome(handle.txn).outcome == "commit"

    def test_update_at_a_crashed_origin_registers_and_logs_nothing(self, crashed):
        with pytest.raises(SiteDownError):
            crashed.update(4, {"i0": 1})
        assert crashed.submitted == {}  # never registered
        assert crashed.sites[4].wal.begins() == []
