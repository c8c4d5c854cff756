"""Unit tests for the random workload / placement / fault generators."""

import random

import pytest

from repro.sim.failures import CrashSite, PartitionNetwork
from repro.workload.generators import (
    CATALOG_MEMO_LIMIT,
    _deal_stragglers,
    memoized_catalog,
    random_catalog,
    random_fault_plan,
    random_partition_groups,
    random_update,
    region_storm_plan,
    wan_regions,
)


@pytest.fixture
def rng():
    return random.Random(42)


class TestRandomCatalog:
    def test_respects_counts(self, rng):
        catalog = random_catalog(rng, n_sites=8, n_items=4, replication=3)
        assert len(catalog.item_names) == 4
        for item in catalog.item_names:
            assert len(catalog.sites_of(item)) == 3
            assert catalog.v(item) == 3

    def test_constraints_always_hold(self):
        """The constructor validates; 200 seeds must all build."""
        for seed in range(200):
            catalog = random_catalog(random.Random(seed), n_sites=6, n_items=3, replication=4)
            for item in catalog.item_names:
                r, w, v = catalog.r(item), catalog.w(item), catalog.v(item)
                assert r + w > v and 2 * w > v

    def test_replication_beyond_sites_rejected(self, rng):
        with pytest.raises(ValueError):
            random_catalog(rng, n_sites=3, replication=5)

    def test_deterministic_in_seed(self):
        a = random_catalog(random.Random(7), 8, 4, 3)
        b = random_catalog(random.Random(7), 8, 4, 3)
        for item in a.item_names:
            assert a.sites_of(item) == b.sites_of(item)
            assert (a.r(item), a.w(item)) == (b.r(item), b.w(item))


class TestRandomUpdate:
    def test_origin_hosts_first_item(self, rng):
        catalog = random_catalog(rng, 8, 4, 3)
        for __ in range(50):
            origin, writes = random_update(rng, catalog, max_items=2)
            assert writes
            assert any(origin in catalog.sites_of(item) for item in writes)

    def test_items_exist(self, rng):
        catalog = random_catalog(rng, 8, 4, 3)
        __, writes = random_update(rng, catalog)
        for item in writes:
            assert item in catalog


class TestRandomPartition:
    def test_groups_partition_the_sites(self, rng):
        sites = list(range(1, 9))
        groups = random_partition_groups(rng, sites, 3)
        assert len(groups) == 3
        flat = [s for g in groups for s in g]
        assert sorted(flat) == sites
        assert all(g for g in groups)

    def test_too_many_groups_rejected(self, rng):
        with pytest.raises(ValueError):
            random_partition_groups(rng, [1, 2], 3)


class TestRegionStormPlan:
    def test_each_site_defects_at_most_once_even_at_prob_one(self):
        """Straggler-bias regression: the old in-place walk let a site
        that defected into a later component defect again when that
        component was processed.  Decided in one pass, every site moves
        at most once — even with certain defection."""
        for seed in range(30):
            components = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
            moves = _deal_stragglers(random.Random(seed), components, straggler_prob=1.0)
            movers = [site for site, __, __ in moves]
            assert sorted(movers) == sorted(set(movers))
            assert len(movers) == 9  # prob 1.0: everyone moves exactly once
            for site, src, dst in moves:
                assert site in components[src]  # judged on the pre-storm deal
                assert dst != src

    def test_singleton_components_never_defect(self):
        moves = _deal_stragglers(random.Random(0), [[1], [2, 3]], straggler_prob=1.0)
        assert all(site != 1 for site, __, __ in moves)

    def test_straggler_rate_is_unbiased(self):
        """The per-site defection rate must track straggler_prob; the
        pre-fix double-draws pushed it measurably above."""
        prob = 0.15
        draws = moved = 0
        for seed in range(120):
            components = [list(range(c * 8, c * 8 + 8)) for c in range(3)]
            moves = _deal_stragglers(random.Random(seed), components, prob)
            draws += 24
            moved += len(moves)
        rate = moved / draws
        # 120 waves x 24 sites = 2880 draws: 4 sigma ~ 0.027
        assert abs(rate - prob) < 0.03

    def test_plan_shape_and_determinism(self):
        regions = wan_regions(4, 8)
        a = region_storm_plan(random.Random(5), regions, waves=3)
        b = region_storm_plan(random.Random(5), regions, waves=3)
        assert a.actions == b.actions
        partitions = [x for x in a.actions if isinstance(x, PartitionNetwork)]
        assert len(partitions) == 3
        all_sites = sorted(s for r in regions for s in r)
        for action in partitions:
            flat = sorted(s for g in action.groups for s in g)
            assert flat == all_sites  # components stay a partition of the universe


class TestRandomFaultPlan:
    def test_contains_crash_and_partition(self, rng):
        plan = random_fault_plan(rng, sites=[1, 2, 3, 4], coordinator=1)
        kinds = [type(a) for a in plan.actions]
        assert CrashSite in kinds
        assert PartitionNetwork in kinds

    def test_times_within_window(self, rng):
        plan = random_fault_plan(
            rng, sites=[1, 2, 3, 4], coordinator=1, t_window=(2.0, 3.0)
        )
        for action in plan.actions:
            assert 2.0 <= action.time <= 3.0

    def test_heal_appended(self, rng):
        plan = random_fault_plan(rng, [1, 2, 3], 1, heal_at=50.0)
        assert any(a.time == 50.0 for a in plan.actions)

    def test_extra_crashes_capped_by_pool(self, rng):
        plan = random_fault_plan(
            rng, sites=[1, 2], coordinator=1, n_extra_crashes=10
        )
        crashes = [a for a in plan.actions if isinstance(a, CrashSite)]
        assert len(crashes) <= 2


class TestMemoizedCatalog:
    """State-capture memoization must never shift the caller's stream."""

    def _build(self, r):
        return random_catalog(r, n_sites=6, n_items=4, replication=3)

    def test_hit_restores_stream_exactly(self):
        from repro.engine.executor import clear_worker_cache

        clear_worker_cache()
        key = ("memo-test", 6, 4, 3)
        direct_rng = random.Random(99)
        direct = self._build(direct_rng)
        miss_rng = random.Random(99)
        missed = memoized_catalog(miss_rng, key, self._build)
        hit_rng = random.Random(99)
        fetched = memoized_catalog(hit_rng, key, self._build)
        assert fetched is missed  # genuinely cached, not rebuilt
        assert fetched.item_names == direct.item_names
        assert all(
            fetched.sites_of(i) == direct.sites_of(i) for i in direct.item_names
        )
        # the draws after the build are bit-identical on all three paths
        probes = [r.random() for r in (direct_rng, miss_rng, hit_rng)]
        assert probes[0] == probes[1] == probes[2]

    def test_different_pre_state_misses(self):
        from repro.engine.executor import clear_worker_cache

        clear_worker_cache()
        key = ("memo-test-seeded", 6, 4, 3)
        a = memoized_catalog(random.Random(1), key, self._build)
        b = memoized_catalog(random.Random(2), key, self._build)
        assert a is not b  # different seed, different catalog

    def test_memo_is_fifo_bounded(self):
        from repro.engine.executor import clear_worker_cache, worker_cache

        clear_worker_cache()
        for seed in range(CATALOG_MEMO_LIMIT + 10):
            memoized_catalog(random.Random(seed), ("memo-test-bound", 6), self._build)
        memo = worker_cache(("catalog-memo", "memo-test-bound"), dict)
        assert len(memo) <= CATALOG_MEMO_LIMIT
