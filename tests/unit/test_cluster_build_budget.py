"""Deterministic budgets on what building a cluster costs.

The shape is the end-to-end benchmark's ``wan_termination`` installation
(4 regions x 8 sites, 16 items, 3 region copies, every site a member):
one is built per storm, so construction is that workload's largest
single layer.  Every bar here is a count — views constructed, catalog
probes, collector-tracked objects, handler-table entries, list rebuilds —
never a wall time.
"""

import gc
import random
import sys
import types
from unittest import mock

import pytest

from repro import Cluster, FixedDelay
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.net.partitions import PartitionView
from repro.replication.catalog import ReplicaCatalog
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer
from repro.workload.generators import wan_catalog, wan_regions

REGIONS, SITES_PER_REGION, N_ITEMS, REGION_COPIES = 4, 8, 16, 3
ALL_SITES = [s for region in wan_regions(REGIONS, SITES_PER_REGION) for s in region]


@pytest.fixture
def catalog():
    return wan_catalog(
        random.Random(1),
        n_regions=REGIONS,
        sites_per_region=SITES_PER_REGION,
        n_items=N_ITEMS,
        region_replication=REGION_COPIES,
    )


def build(catalog, protocol="qtp1", message_rows=False):
    return Cluster(
        catalog,
        protocol=protocol,
        seed=1,
        delay_model=FixedDelay(1.0),
        extra_sites=ALL_SITES,
        message_rows=message_rows,
    )


def counting(cls, name):
    """Patch ``cls.name`` with a call-counting pass-through."""
    original = getattr(cls, name)
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    return mock.patch.object(cls, name, counted), calls


class TestBuildBudget:
    def test_build_constructs_at_most_two_partition_views(self, catalog):
        patch, calls = counting(PartitionView, "__init__")
        with patch:
            cluster = build(catalog)
        assert len(cluster.sites) == 32
        assert len(calls) <= 2  # one per register (33) before

    def test_build_makes_at_most_64_catalog_item_calls(self, catalog):
        patch, calls = counting(ReplicaCatalog, "item")
        with patch:
            cluster = build(catalog)
        assert len(calls) <= 64  # one probe per site per item (>= 528) before
        hosted = {
            site_id: sorted(i for i in catalog.item_names if site.store.hosts(i))
            for site_id, site in cluster.sites.items()
        }
        assert hosted == {
            s: sorted(i for i in catalog.item_names if s in catalog.sites_of(i))
            for s in ALL_SITES
        }

    @pytest.mark.parametrize("protocol", ["2pc", "3pc", "skq", "qtp1", "qtp2"])
    def test_fresh_cluster_holds_at_most_310_tracked_objects(self, catalog, protocol):
        build(catalog, protocol)  # warm every import and per-class cache
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()  # a collection mid-build would untrack part of it
        try:
            before = {id(obj) for obj in gc.get_objects()}
            cluster = build(catalog, protocol)
            tracked = [obj for obj in gc.get_objects() if id(obj) not in before]
        finally:
            if was_enabled:
                gc.enable()
        assert len(cluster.sites) == 32
        assert all(site.engine is None for site in cluster.sites.values())
        # 482 before: fifteen bound handlers per site
        assert sum(type(obj) is types.MethodType for obj in tracked) <= 4
        if sys.version_info >= (3, 11):  # 3.10 adds a __dict__ per instance
            # 300 on 3.11-3.13 (an empty dict is not tracked, so the
            # lock tables built on first grant left this at 300); 411
            # while every site built its timer
            # list, its WAL's read and decision indexes and a value per
            # copy, 476 while it built its engine and its hooks with
            # the cluster, 968 before handlers bound on first delivery
            assert len(tracked) <= 310

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10 adds a __dict__ per instance")
    def test_a_wan_build_stays_under_the_gen0_threshold(self, catalog):
        """The collector runs a generation-0 pass once its allocation
        count passes 700; a storm builds one cluster per op, so a build
        that crosses it alone costs a collection per storm."""
        cluster = build(catalog)  # warm every import and per-class cache
        del cluster  # dropped first: its release is not this build's
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()  # the count keeps growing instead of resetting
        try:
            before = gc.get_count()[0]
            cluster = build(catalog)
            grown = gc.get_count()[0] - before
        finally:
            if was_enabled:
                gc.enable()
        assert len(cluster.sites) == 32
        # 359 on 3.11-3.13 (358 on 3.13); 422 while every site built
        # its two lock tables, 726 while it also built its timer list,
        # handler table, WAL read and decision indexes and copy values
        assert grown <= 380, grown

    def test_one_termination_rule_per_cluster(self, catalog):
        cluster = build(catalog)
        assert len({id(site.ensure_engine().rule) for site in cluster.sites.values()}) == 1
        joined = cluster.join_site(99, copies={"i0": 1})
        assert joined.ensure_engine().rule is cluster.sites[ALL_SITES[0]].engine.rule


class TestHandlerTable:
    def test_undelivered_node_has_an_empty_handler_table(self, catalog):
        cluster = build(catalog)
        assert all(site._handlers == {} for site in cluster.sites.values())

    def test_k_distinct_types_bind_exactly_k_handlers(self, catalog):
        cluster = build(catalog)
        site = cluster.sites[ALL_SITES[0]]
        mtypes = ["qtp1.commit", "qtp1.abort", "elect.alive"]
        for _ in range(2):  # a second delivery binds nothing new
            for mtype in mtypes:
                site.deliver(Message(ALL_SITES[1], site.node_id, mtype, "T-none"))
        assert sorted(site._handlers) == sorted(mtypes)
        silent = [s for s in cluster.sites.values() if s is not site]
        assert all(s._handlers == {} for s in silent)

    def test_a_storm_binds_only_what_it_delivers(self, catalog):
        cluster = build(catalog, message_rows=True)
        origin = ALL_SITES[0]
        cluster.update(origin, {"i0": 1, "i1": 2})
        cluster.run()
        delivered: dict[int, set[str]] = {}
        for rec in cluster.tracer.where(category="deliver"):
            delivered.setdefault(rec.site, set()).add(rec.detail["mtype"])
        assert delivered  # the transaction did run
        for site_id, site in cluster.sites.items():
            assert set(site._handlers) == delivered.get(site_id, set())


class TestRegisterOnHealedAndPartitioned:
    def network(self):
        return Network(Scheduler(), Tracer(), RngRegistry(0))

    def test_32_registers_bump_epoch_32_times_and_connect_everyone(self):
        network = self.network()
        patch, calls = counting(PartitionView, "__init__")
        with patch:
            before = network.epoch
            for site in ALL_SITES:
                Node(site, network)
            assert network.epoch == before + 32
            assert calls == []  # the healed view is built on first use
            view = network.partition
        assert view.sites == frozenset(ALL_SITES)
        assert not view.is_partitioned
        assert all(view.reachable(a, b) for a in ALL_SITES for b in ALL_SITES)
        assert network.partition is view  # built once, then kept
        assert len(calls) == 1

    def test_register_under_partition_still_lands_a_singleton(self):
        network = self.network()
        for site in (1, 2, 3, 4):
            Node(site, network)
        network.set_partition([[1, 2], [3, 4]])
        epoch = network.epoch
        Node(5, network)
        assert network.epoch == epoch + 1
        assert network.partition.component_of(5) == frozenset([5])
        assert network.partition.component_of(1) == frozenset([1, 2])
        assert not network.partition.reachable(5, 1)
        network.heal()
        assert network.partition.reachable(5, 1)

    def test_first_send_after_build_reaches_a_late_registered_peer(self):
        scheduler = Scheduler()
        network = Network(scheduler, Tracer(), RngRegistry(0))
        got = []
        a = Node(1, network)
        a.send(1, "t.ping")  # builds the one-site view
        b = Node(2, network)  # must invalidate it
        b.on("t.ping", got.append)
        a.send(2, "t.ping")
        scheduler.run()
        assert len(got) == 1 and network.dropped == 0
