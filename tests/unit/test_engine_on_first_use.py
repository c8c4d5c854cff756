"""A site's commit engine is built on its first delivery or when it
first coordinates — and nothing a run leaves behind can tell.

A 32-site WAN storm reaches about a quarter of its sites; the rest
never build an engine.  Each test runs one scenario twice: as shipped,
and with every site building its engine along with its stack (the
reference, patched over :class:`~repro.db.site.Site`), and compares
what the run leaves — the trace, the counters, every WAL, and what the
cluster answers about every site (``states``, ``blocked_map``,
``in_flight``, ``undecided_txns``).
"""

import contextlib
import random
from unittest import mock

import pytest

from repro import CatalogBuilder, Cluster, FailurePlan, FixedDelay
from repro.db.site import Site
from repro.protocols.base import CommitProtocolEngine
from repro.replay.recorder import cluster_counters
from repro.traffic import TrafficEngine
from repro.workload.generators import region_storm_plan, wan_catalog, wan_regions
from repro.workload.spec import WorkloadSpec

PROTOCOLS = ["2pc", "3pc", "skq", "qtp1", "qtp2", "qtpp"]
REGIONS = wan_regions(4, 8)
ALL_SITES = [s for region in REGIONS for s in region]

_site_init = Site.__init__


def _site_with_engine(self, *args):
    _site_init(self, *args)
    self.ensure_engine()


@contextlib.contextmanager
def engines_built_with_sites(eager):
    """The reference arm when ``eager``: every site, joiners too, builds
    its engine along with its stack."""
    if not eager:
        yield
        return
    with mock.patch.object(Site, "__init__", _site_with_engine):
        yield


def left_behind(cluster, txns):
    """Everything a finished run can be asked, for every site."""
    everyone = {**cluster.sites, **cluster.departed}
    return {
        "dump": cluster.tracer.dump(),
        "counters": cluster_counters(cluster),
        "wals": {sid: [str(row) for row in site.wal] for sid, site in sorted(everyone.items())},
        "states": {txn: cluster.states(txn) for txn in txns},
        "blocked": cluster.blocked_map(),
        "in_flight": {sid: site.in_flight() for sid, site in sorted(everyone.items())},
        "undecided": {sid: site.undecided_txns() for sid, site in sorted(everyone.items())},
        "outcomes": {txn: cluster.outcome(txn).outcome for txn in txns},
        "departed": sorted(cluster.departed),
    }


def storm(protocol, eager=False, seed=4, message_rows=False):
    """One update on a fresh 4 x 8-site WAN whose coordinator crashes
    under two healing partition waves; a site hosting no copy crashes
    and recovers mid-run.  Returns the cluster, what it left behind
    and the crashed bystander."""
    rng = random.Random(seed)
    catalog = wan_catalog(rng, n_regions=4, sites_per_region=8, n_items=16, region_replication=3)
    compiled = WorkloadSpec(n_txns=1, footprint=(2, 4)).compile(catalog, REGIONS)
    submit_state = rng.getstate()
    origin, writes = compiled.next_update(rng)
    plan = region_storm_plan(rng, REGIONS, waves=2, heal=True)
    plan.crash(rng.uniform(1.0, 2.5), origin)
    plan.recover(max(a.time for a in plan.actions) + 5.0, origin)
    # a site hosting none of the written items: no message reaches it
    bystander = max(set(ALL_SITES) - set(catalog.sites_of_any(writes)) - {origin})
    plan.crash(3.0, bystander).recover(9.0, bystander)
    with engines_built_with_sites(eager):
        cluster = Cluster(
            catalog,
            protocol=protocol,
            seed=seed,
            delay_model=FixedDelay(1.0),
            extra_sites=ALL_SITES,
            message_rows=message_rows,
        )
    submit_rng = random.Random()
    submit_rng.setstate(submit_state)
    engine = TrafficEngine(cluster, compiled, submit_rng)
    txn = engine.submit_now().txn
    cluster.arm_failures(plan)
    engine.run_to_quiescence()
    return cluster, left_behind(cluster, [txn]), bystander


def small_catalog():
    """Items x (sites 1-4), y (sites 3-6); site 7 hosts nothing."""
    return (
        CatalogBuilder()
        .replicated_item("x", sites=[1, 2, 3, 4])
        .replicated_item("y", sites=[3, 4, 5, 6])
        .build()
    )


def membership(protocol, eager=False):
    """A drained leave of a site no message reached, a forced leave of
    a participant cut off mid-commit, and a join whose site is first
    reached by a later transaction."""
    with engines_built_with_sites(eager):
        cluster = Cluster(
            small_catalog(), protocol=protocol, seed=3, delay_model=FixedDelay(1.0), extra_sites=[7]
        )
        txns = [cluster.update(1, {"x": 1}).txn]  # sites 1-4; 5, 6 and 7 hear nothing
        cluster.run()
        cluster.leave_site(7)  # not in flight: leaves at once
        now = cluster.scheduler.now
        # sites 3-6, coordinated by site 5: its engine is first built
        # here, after the leave moved the catalog to epoch 1
        txns.append(cluster.update(5, {"y": 2}).txn)
        # site 6 votes, is cut off before any decision can reach it and
        # cannot drain: its leave is forced
        plan = FailurePlan().partition(now + 1.5, [1, 2, 3, 4, 5], [6])
        cluster.arm_failures(plan.leave(now + 2.0, 6).heal(now + 30.0))
        cluster.run()
        joined = cluster.join_site(8, {"x": 1})
        joined_engine_at_join = joined.engine
        txns.append(cluster.update(2, {"x": 3}).txn)  # the joiner's first delivery
        cluster.run()
    return cluster, left_behind(cluster, txns), joined_engine_at_join


class TestUntouchedSites:
    def test_a_fresh_cluster_builds_no_engine(self):
        cluster = Cluster(small_catalog(), protocol="qtp1", extra_sites=[7])
        assert all(site.engine is None for site in cluster.sites.values())

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_a_never_touched_site_has_no_engine(self, protocol):
        cluster, _, bystander = storm(protocol, message_rows=True)
        reached = {rec.site for rec in cluster.tracer.where(category="deliver")}
        coordinators = {rec.site for rec in cluster.tracer.where(category="coord-begin")}
        built = {sid for sid, site in cluster.sites.items() if site.engine is not None}
        # a delivery or a coordination built each engine, and only those
        assert built == reached | coordinators
        assert bystander not in built
        assert len(built) < len(ALL_SITES) // 2

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_a_storm_leaves_what_eager_engines_leave(self, protocol):
        lazy_cluster, lazy, _ = storm(protocol)
        eager_cluster, eager, _ = storm(protocol, eager=True)
        assert lazy == eager
        assert all(site.engine is not None for site in eager_cluster.sites.values())
        assert any(site.engine is None for site in lazy_cluster.sites.values())

    def test_an_untouched_site_answers_like_an_idle_one(self):
        cluster, answers, bystander = storm("qtp1")
        site = cluster.sites[bystander]
        assert site.engine is None and site.alive
        (txn,) = answers["states"]
        assert bystander not in cluster.states(txn)
        assert cluster.blocked_map()[bystander] == set()
        assert site.in_flight() is False and site.undecided_txns() == set()
        assert list(site.wal) == [] and site._handlers == {}
        # crashing and recovering it built nothing either
        kinds = [rec.category for rec in cluster.tracer.where(site=bystander)]
        assert kinds == ["crash", "recover"]


class TestMembership:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_leaves_and_a_join_leave_what_eager_engines_leave(self, protocol):
        lazy_cluster, lazy, joined_engine = membership(protocol)
        _, eager, _ = membership(protocol, eager=True)
        assert lazy == eager
        assert joined_engine is None  # a join builds no engine ...
        assert lazy_cluster.sites[8].engine is not None  # ... its first delivery does
        assert lazy["departed"] == [6, 7]
        assert lazy_cluster.departed[7].engine is None  # drained without ever acting
        forced = [rec.site for rec in lazy_cluster.tracer.where(category="leave-forced")]
        # 3PC terminates inside any partition, so its site 6 decides
        # alone and drains; the others block until the heal
        assert forced == ([] if protocol == "3pc" else [6])

    def test_an_engine_built_after_an_epoch_change_starts_in_it(self):
        cluster = Cluster(small_catalog(), protocol="qtp1", delay_model=FixedDelay(1.0))
        cluster.join_site(8, {"y": 1})
        cluster.leave_site(8)
        assert cluster.catalog.epoch == 2
        assert all(site.engine is None for site in cluster.sites.values())
        txn = cluster.update(5, {"y": 4})  # site 5's first use: it coordinates
        coordinator = cluster.sites[5].engine
        assert coordinator.catalog is cluster.catalog
        cluster.run()
        assert cluster.outcome(txn.txn).outcome == "commit"
        for sid in txn.participants:  # each built on its first delivery
            engine = cluster.sites[sid].engine
            assert engine.catalog is cluster.catalog
            begin = next(row for row in cluster.sites[sid].wal if row.kind == "begin")
            assert begin.payload["epoch"] == 2

    def test_an_engine_is_built_once(self):
        cluster = Cluster(small_catalog(), protocol="qtp1", delay_model=FixedDelay(1.0))
        built = []
        init = CommitProtocolEngine.__init__

        def counted(self, node, *args, **kwargs):
            built.append(node.node_id)
            init(self, node, *args, **kwargs)

        with mock.patch.object(CommitProtocolEngine, "__init__", counted):
            cluster.update(1, {"x": 1, "y": 2})
            cluster.run()
            cluster.update(1, {"x": 3})
            cluster.run()
        assert sorted(built) == [1, 2, 3, 4, 5, 6]
        assert cluster.sites[1].ensure_engine() is cluster.sites[1].engine
