"""A site builds its per-site tables on first use, and sharing the
empties and the initial copy leaks nothing between sites.

Until a site binds a handler, arms a node timer, logs a decision,
reads its log or grants a lock, the table is one shared, read-only empty; every initial
copy of every site is one frozen value.  A write to one site must never
show at another: a shared empty refuses the write, the first use gives
the site a table of its own, and a write to a copy installs a new value.
"""

import random

import pytest

from repro import Cluster, FixedDelay
from repro.common.errors import StorageError
from repro.concurrency.locks import LockManager, LockMode
from repro.net.message import Message
from repro.storage.store import INITIAL, ReplicaStore, VersionedValue
from repro.workload.generators import wan_catalog, wan_regions

ALL_SITES = [s for region in wan_regions(4, 8) for s in region]


@pytest.fixture
def cluster():
    catalog = wan_catalog(
        random.Random(1), n_regions=4, sites_per_region=8, n_items=16, region_replication=3
    )
    return Cluster(catalog, protocol="qtp1", seed=1, delay_model=FixedDelay(1.0), extra_sites=ALL_SITES)


def copies(cluster):
    """Every (site, item) copy and what it reads."""
    return {
        (site_id, item): site.store.read(item)
        for site_id, site in cluster.sites.items()
        for item, _value in site.store.items()
    }


class TestSharedInitialCopy:
    def test_every_initial_copy_reads_zero_at_version_zero(self, cluster):
        everything = copies(cluster)
        assert len(everything) == sum(len(cluster.catalog.sites_of(i)) for i in cluster.catalog.item_names)
        assert all(value is INITIAL for value in everything.values())
        assert INITIAL == VersionedValue(0, 0)

    def test_a_write_to_one_copy_leaves_every_other_copy_initial(self, cluster):
        item = cluster.catalog.item_names[0]
        writer = cluster.catalog.sites_of(item)[0]
        cluster.sites[writer].store.write(item, 7, 1)
        for (site_id, name), value in copies(cluster).items():
            expected = VersionedValue(7, 1) if (site_id, name) == (writer, item) else VersionedValue(0, 0)
            assert value == expected, (site_id, name)

    def test_a_committed_update_moves_only_the_copies_it_wrote(self, cluster):
        origin = ALL_SITES[0]
        handle = cluster.update(origin, {"i0": 1, "i1": 2})
        cluster.run()
        assert cluster.outcome(handle.txn).outcome == "commit"
        for (site_id, item), value in copies(cluster).items():
            if value != VersionedValue(0, 0):
                assert item in ("i0", "i1") and value.version == 1, (site_id, item, value)
        assert INITIAL == VersionedValue(0, 0)

    def test_a_shared_copy_cannot_be_changed_in_place(self):
        with pytest.raises(AttributeError):
            INITIAL.value = 1

    def test_a_duplicate_hosted_item_raises_as_host_does(self):
        with pytest.raises(StorageError) as built:
            ReplicaStore(3, ["x", "y", "x"])
        store = ReplicaStore(3, ["x"])
        with pytest.raises(StorageError) as hosted:
            store.host("x")
        assert str(built.value) == str(hosted.value) == "site 3 already hosts a copy of 'x'"


class TestSharedEmptyTables:
    def test_a_write_to_a_shared_empty_table_raises(self, cluster):
        site = cluster.sites[ALL_SITES[0]]
        wal = site.wal
        with pytest.raises(TypeError):
            site._handlers["x.ping"] = print
        with pytest.raises(AttributeError):
            site._timers.append(None)
        for table in (wal._decisions, wal._participant_decisions, wal._by_txn, wal._applies, wal._views):
            with pytest.raises(TypeError):
                table["T1"] = "commit"
        with pytest.raises(AttributeError):
            wal._begins.append(0)
        for table in (site.locks._items, site.locks._by_txn):
            with pytest.raises(TypeError):
                table["i0"] = None

    def test_untouched_sites_share_their_empties(self, cluster):
        first, *rest = cluster.sites.values()
        for site in rest:
            assert site._handlers is first._handlers and site._timers is first._timers
            for name in ("_decisions", "_participant_decisions", "_by_txn", "_begins", "_applies", "_views"):
                assert getattr(site.wal, name) is getattr(first.wal, name), name
            assert site.locks._items is first.locks._items and site.locks._by_txn is first.locks._by_txn

    def test_the_first_handler_binding_gives_the_site_its_own_table(self, cluster):
        site, other = cluster.sites[ALL_SITES[0]], cluster.sites[ALL_SITES[1]]
        shared = other._handlers
        site.deliver(Message(other.node_id, site.node_id, "qtp1.commit", "T-none"))
        site.on("x.ping", print)
        assert sorted(site._handlers) == ["qtp1.commit", "x.ping"]
        assert other._handlers is shared and other._handlers == {}

    def test_the_first_timer_gives_the_site_its_own_list(self, cluster):
        site, other = cluster.sites[ALL_SITES[0]], cluster.sites[ALL_SITES[1]]
        handle = site.set_timer(1.0, print)
        assert site._timers == [handle] and other._timers == ()
        site.crash()
        assert site._timers == () and not handle.active

    def test_the_first_decision_gives_the_site_its_own_indexes(self, cluster):
        site, other = cluster.sites[ALL_SITES[0]], cluster.sites[ALL_SITES[1]]
        site.wal.decide("T1", "commit", role="coordinator")
        site.wal.decide("T2", "abort")
        assert site.wal.decision("T1") == "commit" and site.wal.participant_decision("T1") is None
        assert site.wal.participant_decision("T2") == "abort"
        assert other.wal.decision("T1") is None and other.wal.participant_decision("T2") is None
        assert other.wal._decisions == {} and other.wal._participant_decisions == {}

    def test_the_first_read_gives_the_site_its_own_indexes(self, cluster):
        site, other = cluster.sites[ALL_SITES[0]], cluster.sites[ALL_SITES[1]]
        site.wal.begin("T1", {"i0": (1, 1)}, [site.node_id], site.node_id, 0)
        site.wal.apply("T1", "i0", 1, 1)
        assert [row.kind for row in site.wal.for_txn("T1")] == ["begin", "apply"]
        assert site.wal.latest_applies() == {"i0": (1, 1)}
        assert [row[0] for row in site.wal.begins()] == ["T1"]
        assert other.wal.for_txn("T1") == [] and other.wal.latest_applies() == {}
        assert other.wal.begins() == [] and list(other.wal) == []
        assert other.wal._by_txn == {} and other.wal._views == {} and other.wal._begins == ()

    def test_a_site_that_never_locks_keeps_the_shared_lock_tables(self, cluster):
        origin = ALL_SITES[0]
        shared = cluster.sites[ALL_SITES[-1]].locks._items
        cluster.update(origin, {"i0": 1})
        cluster.run()
        participants = set(cluster.catalog.sites_of("i0"))
        for site_id, site in cluster.sites.items():
            if site_id not in participants:
                assert site.locks._items is shared and site.locks._by_txn is shared, site_id
                assert site.locks.release_all("T-none") == []

    def test_the_first_grant_gives_the_manager_its_own_tables(self):
        manager, other = LockManager(1), LockManager(2)
        assert manager.release_all("T1") == []  # nothing granted: nothing built
        assert manager._items is other._items
        assert manager.try_acquire("T1", "x", LockMode.EXCLUSIVE)
        assert manager._items is not other._items and manager._by_txn is not other._by_txn
        assert manager.is_locked("x") and not other.is_locked("x")
        assert other._items == {} and other._by_txn == {}
        assert manager.release_all("T1") == ["x"] and manager._items == {}

    def test_a_crash_drops_the_granted_tables_for_the_shared_empties(self, cluster):
        site = cluster.sites[ALL_SITES[0]]
        shared = cluster.sites[ALL_SITES[1]].locks._items
        assert site.locks.try_acquire("T1", "i0", LockMode.EXCLUSIVE)
        assert site.locks._items is not shared
        site.crash()
        assert site.locks._items is shared and site.locks._by_txn is shared
        assert not site.locks.is_locked("i0")
