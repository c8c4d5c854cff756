"""Elastic membership: sites joining mid-run through Network/Cluster."""

import pytest

from repro.common.errors import ConfigurationError
from repro.db.cluster import Cluster
from repro.net.delays import FixedDelay
from repro.net.network import Network
from repro.net.node import Node
from repro.replication.catalog import CatalogBuilder
from repro.sim.failures import FailureInjector, FailurePlan, JoinSite
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer


def small_catalog():
    return (
        CatalogBuilder()
        .replicated_item("x", sites=[1, 2, 3], r=2, w=2)
        .replicated_item("y", sites=[2, 3, 4], r=2, w=2)
        .build()
    )


class TestNetworkRegistration:
    def _net(self, n=4):
        scheduler = Scheduler()
        network = Network(scheduler, Tracer(), RngRegistry(0))
        for i in range(1, n + 1):
            Node(i, network)
        return network

    def test_register_preserves_active_partition(self):
        network = self._net()
        network.set_partition([[1, 2], [3, 4]])
        Node(9, network)
        assert not network.partition.reachable(1, 3)  # old split intact
        assert network.partition.component_of(9) == frozenset([9])

    def test_register_on_healed_network_joins_everyone(self):
        network = self._net()
        Node(9, network)
        assert network.partition.reachable(9, 1)

    def test_place_with_moves_into_component(self):
        network = self._net()
        network.set_partition([[1, 2], [3, 4]])
        Node(9, network)
        network.place_with(9, 3)
        assert network.partition.component_of(9) == frozenset([3, 4, 9])
        assert not network.partition.reachable(9, 1)

    def test_place_with_is_noop_when_already_together(self):
        network = self._net()
        Node(9, network)
        epoch = network.epoch
        network.place_with(9, 1)  # healed: already one component
        assert network.epoch == epoch

    def test_place_with_unknown_sites_rejected(self):
        network = self._net()
        with pytest.raises(ValueError):
            network.place_with(99, 1)
        with pytest.raises(ValueError):
            network.place_with(1, 99)


class TestClusterJoin:
    def test_join_builds_full_site_stack(self):
        cluster = Cluster(small_catalog(), protocol="qtp1")
        site = cluster.join_site(7, {"x": 1})
        assert cluster.sites[7] is site
        assert site.engine is None  # built on the joiner's first delivery
        assert site.ensure_engine().catalog is cluster.catalog
        assert site.store.hosts("x") and not site.store.hosts("y")
        assert 7 in cluster.catalog.sites_of("x")

    def test_join_rebalances_quorums(self):
        cluster = Cluster(small_catalog(), protocol="qtp1")
        cluster.join_site(7, {"x": 1})
        assert cluster.catalog.v("x") == 4
        assert cluster.catalog.w("x") == 3  # majority of the new total
        assert cluster.catalog.r("x") == 2
        assert cluster.catalog.v("y") == 3  # untouched item unchanged

    def test_join_under_partition_lands_in_named_component(self):
        cluster = Cluster(small_catalog(), protocol="qtp1")
        cluster.network.set_partition([[1, 2], [3, 4]])
        cluster.join_site(7, {"x": 1}, near=3)
        view = cluster.network.partition
        assert view.component_of(7) == frozenset([3, 4, 7])
        assert not view.reachable(7, 1)

    def test_join_without_near_is_singleton_under_partition(self):
        cluster = Cluster(small_catalog(), protocol="qtp1")
        cluster.network.set_partition([[1, 2], [3, 4]])
        cluster.join_site(7)
        assert cluster.network.partition.component_of(7) == frozenset([7])

    def test_joined_copy_receives_component_state_transfer(self):
        cluster = Cluster(small_catalog(), protocol="qtp1")
        txn = cluster.update(origin=1, writes={"x": 42})
        cluster.run()
        assert cluster.outcome(txn.txn).outcome == "commit"
        site = cluster.join_site(7, {"x": 1}, near=1)
        record = site.store.read("x")
        assert (record.value, record.version) == (42, 1)

    def test_state_transfer_sees_only_own_component(self):
        cluster = Cluster(small_catalog(), protocol="qtp1")
        txn = cluster.update(origin=1, writes={"x": 42})
        cluster.run()
        assert cluster.outcome(txn.txn).outcome == "commit"
        cluster.network.set_partition([[1], [2, 3, 4]])
        # site 1's component holds a current copy of x; join far from it
        site = cluster.join_site(7, {"x": 1}, near=1)
        assert site.store.read("x").version == 1
        # a second joiner isolated from every copy starts cold
        lonely = cluster.join_site(8, {"y": 1})
        assert lonely.store.read("y").version == 0

    def test_joined_site_becomes_participant_of_later_txns(self):
        cluster = Cluster(small_catalog(), protocol="qtp1")
        cluster.join_site(7, {"x": 1})
        txn = cluster.update(origin=1, writes={"x": 5})
        cluster.run()
        assert 7 in txn.participants
        assert cluster.outcome(txn.txn).outcome == "commit"
        assert cluster.sites[7].store.read("x").version == 1

    def test_duplicate_join_rejected(self):
        cluster = Cluster(small_catalog(), protocol="qtp1")
        with pytest.raises(ConfigurationError):
            cluster.join_site(2)

    def test_rejected_join_leaves_cluster_unchanged(self):
        cluster = Cluster(small_catalog(), protocol="qtp1")
        with pytest.raises(ConfigurationError):
            cluster.join_site(7, {"nope": 1})
        assert 7 not in cluster.sites
        assert 7 not in cluster.network.sites
        assert cluster.catalog.item_names == ["x", "y"]

    def test_join_near_unknown_site_rejected_before_any_mutation(self):
        cluster = Cluster(small_catalog(), protocol="qtp1")
        with pytest.raises(ConfigurationError):
            cluster.join_site(7, {"x": 1}, near=99)
        assert 7 not in cluster.sites
        assert 7 not in cluster.network.sites
        assert cluster.catalog.v("x") == 3  # copies not admitted

    def test_skq_pinned_quorums_reject_joins(self):
        cluster = Cluster(
            small_catalog(), protocol="skq", commit_quorum=3, abort_quorum=2
        )
        with pytest.raises(ConfigurationError):
            cluster.join_site(7, {"x": 1})
        assert 7 not in cluster.sites

    def test_skq_adaptive_quorums_accept_joins(self):
        cluster = Cluster(small_catalog(), protocol="skq")
        cluster.join_site(7, {"x": 1})
        txn = cluster.update(origin=1, writes={"x": 5})
        cluster.run()
        assert cluster.outcome(txn.txn).outcome == "commit"


class TestSkeenVotesPerEpoch:
    """skq sizes a transaction's adaptive ``Vc`` / ``Va`` from its own
    participants, so a leave that finishes under it cannot shrink
    ``Vp``; pinned ones are checked against the current epoch's sites."""

    def test_a_draining_leaver_no_longer_counts_towards_pinned_quorums(self):
        cluster = Cluster(
            small_catalog(),
            protocol="skq",
            commit_quorum=3,
            abort_quorum=2,
            delay_model=FixedDelay(1.0),
        )
        cluster.update(origin=1, writes={"x": 1})
        cluster.run_until(1.5)
        cluster.leave_site(3, drain_interval=0.5)
        assert 3 in cluster.sites  # still draining: in doubt about the update
        cluster.join_site(7, {"x": 1})  # V = 4 - 1 + 1, and Vc + Va = 5 > V
        with pytest.raises(ConfigurationError, match="must exceed"):
            cluster.join_site(8, {"x": 1})
        assert 8 not in cluster.sites

    def test_a_lone_participant_cannot_abort_after_a_forced_leave(self):
        # T over 1, 2, 3 (coordinated by 4, which crashes before the
        # votes arrive); 3 is forced out in W, then 1 and 2 are cut
        # apart.  With Vp = 3 (Va = 2) neither can abort alone; counted
        # in the shrunken table (Va = 1) each aborted on its own.
        cluster = Cluster(small_catalog(), protocol="skq", delay_model=FixedDelay(1.0))
        cluster.arm_failures(FailurePlan().crash(1.5, 4).partition(2.5, [1], [2], [4]))
        txn = cluster.update(origin=4, writes={"x": 1}).txn
        cluster.run_until(1.5)
        assert cluster.states(txn) == {1: "W", 2: "W", 3: "W"}
        cluster.leave_site(3, drain_interval=0.5, drain_polls=1)
        cluster.run_until(40.0)
        assert 3 in cluster.departed
        assert cluster.tracer.where(category="leave-forced")
        assert cluster.states(txn) == {1: "W", 2: "W"}
        blocked = {rec.site for rec in cluster.tracer.where(category="blocked", txn=txn)}
        assert blocked == {1, 2}


class TestPlanJoin:
    def test_plan_join_applies_through_cluster(self):
        cluster = Cluster(small_catalog(), protocol="qtp1")
        plan = (
            FailurePlan()
            .partition(1.0, [1, 2], [3, 4])
            .join(2.0, 7, copies={"x": 1}, near=1)
            .heal(5.0)
        )
        cluster.arm_failures(plan)
        cluster.run()
        assert 7 in cluster.sites
        assert 7 in cluster.catalog.sites_of("x")
        applied = [a for a in cluster.injector.applied if isinstance(a, JoinSite)]
        assert applied == [JoinSite(2.0, 7, (("x", 1),), 1)]
        # joined at t=2 under the active partition, into site 1's side
        joins = cluster.tracer.where(category="join")
        assert joins and joins[0].detail["component"] == [1, 2, 7]

    def test_bare_injector_rejects_join_actions(self):
        scheduler = Scheduler()
        network = Network(scheduler, Tracer(), RngRegistry(0))
        Node(1, network)
        injector = FailureInjector(scheduler, network)
        injector.arm(FailurePlan().join(1.0, 7))
        with pytest.raises(TypeError):
            scheduler.run()
