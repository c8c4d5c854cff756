"""Deterministic budgets on what dropping a finished cluster costs.

A cluster owns its scheduler, network, sites and engines, nothing it
owns points back at it, and ``Cluster.close()`` — run by itself when the
last outside reference drops — cuts the cycles the run needed.  So with
the cyclic collector *off*, every part of a finished installation is
dead the moment the driver lets go, and a collection afterwards finds
nothing.  Every bar here is a count (live weak references, objects the
collector finds), never a wall time.

Three driver shapes, the three the end-to-end benchmark times: a WAN
storm run to quiescence with its coordinator crashed, a closed loop
under a partition and a crash/recover pair, and an open-loop service
cut short with events still queued while a degradation, a flapping
link, a join and a leave are in play.  A site builds its engine on its
first delivery, so a storm leaves most of its 32 sites without one:
those untouched sites — each holding the cluster's engine factory —
must fall with the rest.

What a finished run holds while it is still referenced has a budget
too: at the closed loop's shape, the collector-tracked objects kept per
submitted transaction.  A decided transaction keeps its durable state
and its trace, not the volatile state that drove it there.
"""

import gc
import random
import sys
import weakref
from unittest import mock

import pytest

from repro import Cluster, FailurePlan, FixedDelay, UniformDelay
from repro.common.errors import ConfigurationError
from repro.sim.failures import JoinSite
from repro.traffic import TrafficEngine
from repro.workload.generators import (
    random_catalog,
    region_storm_plan,
    wan_catalog,
    wan_regions,
)
from repro.workload.spec import WorkloadSpec

PROTOCOLS = ["2pc", "3pc", "skq", "qtp1", "qtp2"]


class Horizon(Exception):
    """Raised by a scheduled event to cut a run short."""


def wan_storm(protocol):
    """One update on a 4 x 8-site WAN, coordinator crashed, four
    partition waves, never healed; run to quiescence."""
    rng = random.Random(7)
    regions = wan_regions(4, 8)
    catalog = wan_catalog(rng, n_regions=4, sites_per_region=8, n_items=16, region_replication=3)
    compiled = WorkloadSpec(n_txns=1, footprint=(2, 4)).compile(catalog, regions)
    submit_state = rng.getstate()
    origin, _writes = compiled.next_update(rng)
    plan = region_storm_plan(rng, regions, waves=4, heal=False)
    plan.crash(1.5, origin)
    rng.setstate(submit_state)
    cluster = Cluster(
        catalog,
        protocol=protocol,
        seed=7,
        delay_model=FixedDelay(1.0),
        extra_sites=[s for region in regions for s in region],
    )
    engine = TrafficEngine(cluster, compiled, rng)
    txn = engine.submit_now()
    cluster.arm_failures(plan)
    engine.run_to_quiescence()
    assert cluster.outcome(txn.txn).outcome in ("commit", "abort", "blocked", "mixed")
    assert cluster.scheduler.pending == 0
    return cluster, engine


def closed_loop(protocol):
    """Sixty read-modify-write transactions through a partition episode
    and a crash/recover pair; run to quiescence, then tallied."""
    rng = random.Random(11)
    catalog = random_catalog(rng, n_sites=8, n_items=24, replication=3)
    compiled = WorkloadSpec(n_txns=60, mean_spacing=1.5, footprint=(1, 3)).compile(catalog)
    plan = (
        FailurePlan()
        .partition(20.0, [1, 2, 3, 4, 5], [6, 7, 8])
        .heal(50.0)
        .crash(30.0, 2)
        .recover(70.0, 2)
    )
    cluster = Cluster(catalog, protocol=protocol, seed=11, delay_model=UniformDelay(0.2, 1.0))
    cluster.arm_failures(plan)
    engine = TrafficEngine(cluster, compiled, rng)
    engine.run_closed()
    assert engine.tally(protocol).committed > 0
    return cluster, engine


def open_loop_cut(protocol):
    """An open-loop service whose run is cut at vt 80, after the
    arrivals stop (vt 61) and before the fault plan runs out."""
    rng = random.Random(13)
    catalog = random_catalog(rng, n_sites=9, n_items=32, replication=3)
    compiled = WorkloadSpec(
        arrival="open", rate=2.0, duration=60.0, read_fraction=0.5, footprint=(1, 2)
    ).compile(catalog)
    plan = (
        FailurePlan()
        .degrade(10.0, 3, 4.0)
        .flap(15.0, 1, 2, period=6.0, cycles=20)  # edges queued until vt 135
        .join(20.0, 99, copies={"i0": 1}, near=1)
        .leave(30.0, 5)
        .partition(40.0, [1, 2, 3, 4, 99], [6, 7, 8, 9])
        .crash(200.0, 1)
    )
    cluster = Cluster(catalog, protocol=protocol, seed=13, delay_model=UniformDelay(0.2, 1.0))
    cluster.arm_failures(plan)

    def cut():
        raise Horizon

    cluster.scheduler.call_at(80.0, cut)
    engine = TrafficEngine(cluster, compiled, rng)
    try:
        engine.run_open(protocol, window=2)
    except Horizon:
        pass
    assert cluster.scheduler.pending > 0  # flap edges, the late crash, timers
    assert 99 in cluster.sites and 5 in cluster.departed
    return cluster, engine


SHAPES = {"wan_storm": wan_storm, "closed_loop": closed_loop, "open_loop_cut": open_loop_cut}


@pytest.fixture
def collector_off():
    """Everything between here and the test's own ``gc.collect()`` is
    reclaimed by reference count or not at all."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("shape", SHAPES)
def test_a_finished_cluster_dies_by_refcount(shape, protocol, collector_off):
    drive = SHAPES[shape]
    drive(protocol)  # warm imports, per-class tables and first-use caches
    gc.collect()
    cluster, engine = drive(protocol)
    everyone = [*cluster.departed.values(), *cluster.sites.values()]
    site = next(s for s in everyone if s.engine is not None)
    untouched = [s for s in everyone if s.engine is None]
    if shape == "wan_storm":
        assert len(untouched) > len(everyone) // 2  # most sites never heard a message
    parts = {
        "cluster": weakref.ref(cluster),
        "network": weakref.ref(cluster.network),
        "scheduler": weakref.ref(cluster.scheduler),
        "site": weakref.ref(site),
        "engine": weakref.ref(site.engine),
        "driver": weakref.ref(engine),
        **{f"untouched site {s.node_id}": weakref.ref(s) for s in untouched},
    }
    del cluster, engine, site, everyone, untouched
    assert [name for name, ref in parts.items() if ref() is not None] == []
    assert gc.collect() == 0  # 800-42 000 objects before, all but 1-4 of them here


#: collector-tracked objects a finished ``closed_loop`` run still holds
#: per transaction submitted to the commit protocol (sites, catalog and
#: trace included), about 3% above the reading on CPython 3.11-3.13:
#: 45.8 / 50.5 / 50.2 / 52.5 / 50.5.  A decided transaction keeps its log
#: rows, trace rows and handle; it kept its volatile state as well before
#: (59.8 / 64.8 / 64.4 / 70.0 / 67.6): a participant list copied per
#: record, a timer table per record, a done round's tallies, a tuple key
#: per (category, txn) in the trace index and an event handle per arrival.
FOOTPRINT_PER_TXN = {"2pc": 47.0, "3pc": 52.0, "skq": 51.5, "qtp1": 54.0, "qtp2": 52.0}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10 adds a __dict__ per instance")
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_finished_run_keeps_a_bounded_footprint_per_transaction(protocol, collector_off):
    closed_loop(protocol)  # warm imports, per-class tables and first-use caches
    gc.collect()
    before = {id(obj) for obj in gc.get_objects()}
    cluster, engine = closed_loop(protocol)
    kept = sum(1 for obj in gc.get_objects() if id(obj) not in before)
    assert kept / len(engine.handles) <= FOOTPRINT_PER_TXN[protocol], (kept, len(engine.handles))


#: storms in the collector-budget batch: eight per protocol
STORM_BATCH = PROTOCOLS * 8


@pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10 adds a __dict__ per instance")
def test_a_batch_of_wan_storms_runs_few_gen0_collections():
    """A storm builds a 32-site cluster; one that allocated more than
    the collector's generation-0 threshold (700 objects up to 3.12)
    while building set off a collection per storm, whatever the rest
    of the storm did."""
    for protocol in PROTOCOLS:
        wan_storm(protocol)  # warm imports, per-class tables and first-use caches
    collections = []

    def count(phase, info):
        if phase == "start" and info["generation"] == 0:
            collections.append(1)

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()  # the allocation count starts at zero
    gc.callbacks.append(count)
    try:
        for protocol in STORM_BATCH:
            wan_storm(protocol)
    finally:
        gc.callbacks.remove(count)
        if not was_enabled:
            gc.disable()
    # 15 on CPython 3.11-3.12 (0 on 3.13, whose threshold is 2 000);
    # 37 while a site built its timer list, handler table, WAL read and
    # decision indexes and a value per copy
    assert len(collections) <= 20, len(collections)


def test_a_failed_construction_reaches_no_unraisable_hook(monkeypatch, collector_off):
    catalog = random_catalog(random.Random(1), n_sites=4, n_items=2, replication=3)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with pytest.raises(ConfigurationError):
        Cluster(catalog, protocol="nope")
    assert gc.collect() == 0
    assert unraisable == []


def test_a_half_built_cluster_is_released_too(collector_off):
    catalog = random_catalog(random.Random(1), n_sites=4, n_items=2, replication=3)
    networks = []

    def fail(scheduler, network, **kwargs):
        networks.append(weakref.ref(network))
        raise ConfigurationError("no injector today")

    with mock.patch("repro.db.cluster.FailureInjector", fail):
        with pytest.raises(ConfigurationError):
            Cluster(catalog)  # four sites are registered by then
    assert [ref() for ref in networks] == [None]
    assert gc.collect() == 0


def test_close_twice_is_a_no_op():
    cluster, _engine = closed_loop("qtp1")
    forced = {site_id: site.wal.forced for site_id, site in cluster.sites.items()}
    cluster.close()
    cluster.close()
    assert cluster.network.sites == [] and cluster.scheduler.pending == 0
    assert all(site.engine is None and site._handlers == {} for site in cluster.sites.values())
    # durable state and the trace stay readable
    assert {site_id: site.wal.forced for site_id, site in cluster.sites.items()} == forced
    assert len(cluster.tracer) > 0


def test_a_part_kept_past_its_cluster_fails_loudly():
    cluster, _engine = closed_loop("qtp1")
    injector = cluster.injector
    del cluster, _engine
    with pytest.raises(ReferenceError):
        injector._apply(JoinSite(0.0, 99))
