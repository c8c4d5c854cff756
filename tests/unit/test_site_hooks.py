"""Unit tests for the database-layer protocol hooks and Site recovery."""

import pytest

from repro import CatalogBuilder, Cluster
from repro.concurrency.locks import LockMode
from repro.db.site import SiteHooks


@pytest.fixture
def cluster():
    catalog = (
        CatalogBuilder()
        .replicated_item("x", sites=[1, 2, 3], r=2, w=2)
        .replicated_item("y", sites=[1, 2, 3], r=2, w=2)
        .build()
    )
    return Cluster(catalog, protocol="qtp1")


class TestVoteHook:
    def test_yes_takes_exclusive_locks(self, cluster):
        site = cluster.sites[1]
        hooks = SiteHooks(site)
        assert hooks.vote("T1", {"x": (5, 1), "y": (6, 1)})
        assert site.locks.held_by("T1") == ["x", "y"]
        assert site.locks.holder_modes("x")["T1"] is LockMode.EXCLUSIVE

    def test_no_vote_rolls_back_partial_locks(self, cluster):
        site = cluster.sites[1]
        site.locks.try_acquire("intruder", "y", LockMode.EXCLUSIVE)
        hooks = SiteHooks(site)
        assert not hooks.vote("T1", {"x": (5, 1), "y": (6, 1)})
        assert site.locks.held_by("T1") == []  # x was rolled back

    def test_vote_ignores_unhosted_items(self, cluster):
        site = cluster.sites[1]
        hooks = SiteHooks(site)
        assert hooks.vote("T1", {"ghost": (5, 1)})
        assert site.locks.held_by("T1") == []

    def test_vote_no_traced(self, cluster):
        site = cluster.sites[1]
        site.locks.try_acquire("intruder", "x", LockMode.EXCLUSIVE)
        SiteHooks(site).vote("T1", {"x": (5, 1)})
        assert cluster.tracer.count("vote-no", txn="T1") == 1


class TestApplyHooks:
    def test_commit_installs_and_unlocks(self, cluster):
        site = cluster.sites[1]
        hooks = SiteHooks(site)
        hooks.vote("T1", {"x": (5, 1)})
        hooks.apply_commit("T1", {"x": (5, 1)})
        assert site.store.read("x").value == 5
        assert site.locks.held_by("T1") == []
        applies = [r for r in site.wal if r.kind == "apply"]
        assert len(applies) == 1

    def test_commit_skips_stale_version(self, cluster):
        site = cluster.sites[1]
        site.store.write("x", 99, 7)
        SiteHooks(site).apply_commit("T1", {"x": (5, 1)})
        assert site.store.read("x").value == 99  # newer version kept

    def test_commit_skips_unhosted(self, cluster):
        site = cluster.sites[1]
        SiteHooks(site).apply_commit("T1", {"ghost": (5, 1)})
        assert not site.store.hosts("ghost")

    def test_abort_only_unlocks(self, cluster):
        site = cluster.sites[1]
        hooks = SiteHooks(site)
        hooks.vote("T1", {"x": (5, 1)})
        hooks.apply_abort("T1")
        assert site.store.read("x").value == 0
        assert site.locks.held_by("T1") == []


class TestSiteRecovery:
    def test_double_engine_rejected(self, cluster):
        with pytest.raises(ValueError, match="already has an engine"):
            cluster.sites[1].attach_engine(cluster.sites[1].ensure_engine())

    def test_crash_clears_lock_table(self, cluster):
        site = cluster.sites[1]
        site.locks.try_acquire("T1", "x", LockMode.EXCLUSIVE)
        site.crash()
        site.recover()
        assert site.locks.held_by("T1") == []

    def test_undecided_txns_reported(self, cluster):
        txn = cluster.update(origin=1, writes={"x": 1})
        cluster.run_until(1.5)
        assert txn.txn in cluster.sites[2].undecided_txns()
        cluster.run()
        assert txn.txn not in cluster.sites[2].undecided_txns()
