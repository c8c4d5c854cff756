"""Unit tests for the availability metric."""

import pytest

from repro.analysis.availability import availability_snapshot
from repro.concurrency.locks import LockManager, LockMode
from repro.net.partitions import PartitionView
from repro.replication.catalog import CatalogBuilder


@pytest.fixture
def catalog():
    return (
        CatalogBuilder()
        .replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3)
        .replicated_item("y", sites=[5, 6, 7, 8], r=2, w=3)
        .build()
    )


def snapshot(catalog, groups=None, locks=None, blocked=None, active=None):
    sites = range(1, 9)
    partition = PartitionView(sites, groups)
    managers = {s: LockManager(s) for s in sites}
    for site, item, txn in locks or []:
        managers[site].try_acquire(txn, item, LockMode.EXCLUSIVE)
    return availability_snapshot(
        catalog,
        partition,
        managers,
        blocked or {},
        active_sites=set(active) if active else None,
    )


class TestHealthy:
    def test_fully_connected_all_available(self, catalog):
        report = snapshot(catalog)
        assert report.readable_fraction == 1.0
        assert report.writable_fraction == 1.0

    def test_row_lookup(self, catalog):
        report = snapshot(catalog)
        row = report.row({1, 2, 3, 4, 5, 6, 7, 8}, "x")
        assert row.usable_votes == 4

    def test_missing_row_raises(self, catalog):
        report = snapshot(catalog)
        with pytest.raises(KeyError):
            report.row({1}, "x")


class TestVotingFactor:
    def test_partition_splits_votes(self, catalog):
        report = snapshot(catalog, groups=[[1, 2, 3], [4, 5], [6, 7, 8]])
        g1 = report.row({1, 2, 3}, "x")
        # with all three copies usable, 3 votes meet both r=2 and w=3
        assert g1.usable_votes == 3
        assert g1.readable and g1.writable
        g2x = report.row({4, 5}, "x")
        assert not g2x.readable  # one x copy
        g3y = report.row({6, 7, 8}, "y")
        assert g3y.readable and g3y.writable

    def test_crashed_sites_lose_votes(self, catalog):
        report = snapshot(catalog, active=[2, 3, 4, 5, 6, 7, 8])
        row = report.row(set(range(1, 9)), "x")
        assert row.usable_votes == 3


class TestLockFactor:
    def test_blocked_lock_removes_copy(self, catalog):
        report = snapshot(
            catalog,
            locks=[(1, "x", "T1"), (2, "x", "T1"), (3, "x", "T1")],
            blocked={1: {"T1"}, 2: {"T1"}, 3: {"T1"}},
        )
        row = report.row(set(range(1, 9)), "x")
        assert row.usable_votes == 1
        assert not row.readable
        assert row.blocked_sites == (1, 2, 3)

    def test_lock_by_unblocked_txn_does_not_count(self, catalog):
        """Only *blocked* transactions make copies unavailable; a lock
        held by a transaction still progressing is transient."""
        report = snapshot(
            catalog,
            locks=[(1, "x", "T1"), (2, "x", "T1")],
            blocked={},  # T1 is not blocked anywhere
        )
        row = report.row(set(range(1, 9)), "x")
        assert row.usable_votes == 4

    def test_both_factors_compose(self, catalog):
        report = snapshot(
            catalog,
            groups=[[1, 2, 3], [4, 5, 6, 7, 8]],
            locks=[(1, "x", "T1")],
            blocked={1: {"T1"}},
        )
        g1 = report.row({1, 2, 3}, "x")
        assert g1.usable_votes == 2
        assert g1.readable and not g1.writable


class TestAggregates:
    def test_fractions(self, catalog):
        report = snapshot(catalog, groups=[[1, 2, 3, 4], [5, 6, 7, 8]])
        # x fully in G1 (RW), absent from G2; y vice versa
        assert report.readable_fraction == 0.5
        assert report.writable_fraction == 0.5

    def test_describe_renders(self, catalog):
        text = snapshot(catalog).describe()
        assert "availability" in text and "x" in text

    def test_empty_report(self):
        from repro.analysis.availability import AvailabilityReport

        report = AvailabilityReport([])
        assert report.readable_fraction == 0.0
