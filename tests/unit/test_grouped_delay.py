"""Unit tests for the WAN (grouped) delay model."""

import random

import pytest

from repro.net.delays import GroupedDelay


@pytest.fixture
def model():
    # sites 1,2 in DC 0; sites 3,4 in DC 1
    return GroupedDelay({1: 0, 2: 0, 3: 1, 4: 1}, intra=0.1, inter=1.0)


class TestGroupedDelay:
    def test_intra_group_is_fast(self, model):
        assert model.sample(random.Random(0), 1, 2) == 0.1

    def test_inter_group_is_slow(self, model):
        assert model.sample(random.Random(0), 1, 3) == 1.0

    def test_unassigned_site_counts_as_remote(self, model):
        assert model.sample(random.Random(0), 1, 99) == 1.0

    def test_max_delay_is_worst_case(self, model):
        assert model.max_delay == 1.0

    def test_jitter_bounds(self):
        model = GroupedDelay({1: 0, 2: 1}, intra=0.1, inter=1.0, jitter=0.5)
        rng = random.Random(7)
        for __ in range(100):
            delay = model.sample(rng, 1, 2)
            assert 1.0 <= delay <= 1.5
        assert model.max_delay == 1.5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GroupedDelay({}, intra=2.0, inter=1.0)
        with pytest.raises(ValueError):
            GroupedDelay({}, intra=0.0, inter=1.0)
        with pytest.raises(ValueError):
            GroupedDelay({}, intra=0.1, inter=1.0, jitter=-0.1)


class TestGroupedDelayInCluster:
    def test_cluster_timeouts_use_worst_case(self):
        from repro import CatalogBuilder, Cluster

        catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3).build()
        model = GroupedDelay({1: 0, 2: 0, 3: 1, 4: 1}, intra=0.1, inter=2.0)
        cluster = Cluster(catalog, delay_model=model)
        assert cluster.T == 2.0
        txn = cluster.update(origin=1, writes={"x": 1})
        cluster.run()
        assert cluster.outcome(txn.txn).outcome == "commit"

    def test_local_commit_is_faster_than_remote(self):
        """With all copies in one DC, the decision lands much earlier
        than with copies spread across DCs (same T bound)."""
        from repro import CatalogBuilder, Cluster

        groups = {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}
        local = CatalogBuilder().replicated_item("x", sites=[1, 2, 3], r=2, w=2).build()
        spread = CatalogBuilder().replicated_item("x", sites=[1, 4, 5], r=2, w=2).build()

        def decision_time(catalog):
            cluster = Cluster(catalog, delay_model=GroupedDelay(groups, 0.1, 1.0))
            txn = cluster.update(origin=1, writes={"x": 1})
            cluster.run()
            rec = cluster.tracer.where(category="coord-decision", txn=txn.txn)
            return rec[0].time

        assert decision_time(local) < decision_time(spread)