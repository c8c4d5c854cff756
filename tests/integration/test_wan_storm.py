"""Integration tests of the E21 WAN partition-storm scenario (32+ sites)."""

import pytest

from repro.experiments.sweeps import wan_partition_storm, wan_storm_run
from repro.workload.generators import region_storm_plan, wan_catalog, wan_regions
from repro.traffic import run_scenario
from repro.workload.scenarios import wan_storm_scenario
from repro.sim.rng import RngRegistry


class TestWanGenerators:
    def test_regions_tile_the_site_space(self):
        regions = wan_regions(4, 8)
        flat = [s for r in regions for s in r]
        assert flat == list(range(1, 33))

    def test_catalog_replicates_across_distinct_regions(self):
        rng = RngRegistry(1).stream("t")
        catalog = wan_catalog(rng, n_regions=4, sites_per_region=8, n_items=6)
        regions = wan_regions(4, 8)

        def region_of(site):
            return next(i for i, r in enumerate(regions) if site in r)

        for item in catalog.item_names:
            copies = catalog.sites_of(item)
            assert len({region_of(s) for s in copies}) == len(copies) == 3

    def test_over_replication_rejected(self):
        rng = RngRegistry(0).stream("t")
        with pytest.raises(ValueError, match="region_replication"):
            wan_catalog(rng, n_regions=2, region_replication=3)

    def test_storm_plan_waves_partition_every_site_exactly_once(self):
        rng = RngRegistry(3).stream("t")
        regions = wan_regions(4, 8)
        plan = region_storm_plan(rng, regions, waves=5)
        partitions = [a for a in plan.actions if hasattr(a, "groups")]
        assert len(partitions) == 5
        for action in partitions:
            flat = sorted(s for g in action.groups for s in g)
            assert flat == list(range(1, 33))

    def test_storm_plan_heal_flag(self):
        rng = RngRegistry(3).stream("t")
        regions = wan_regions(2, 4)
        healed = region_storm_plan(rng, regions, waves=2, heal=True)
        rng = RngRegistry(3).stream("t")
        unhealed = region_storm_plan(rng, regions, waves=2, heal=False)
        assert len(healed.actions) == len(unhealed.actions) + 1


class TestWanStormScenario:
    def test_installation_scale(self):
        run = run_scenario(wan_storm_scenario(), "qtp1", 0)
        assert len(run.cluster.sites) == 32

    def test_deterministic(self):
        a = run_scenario(wan_storm_scenario(), "qtp1", 5)
        b = run_scenario(wan_storm_scenario(), "qtp1", 5)
        assert a.counters() == b.counters()
        assert a.cluster.outcome(a.txn.txn).outcome == b.cluster.outcome(b.txn.txn).outcome
        assert a.cluster.scheduler.events_run == b.cluster.scheduler.events_run

    def test_unhealed_storm_leaves_partial_availability(self):
        """Ending partitioned, some region must have lost quorum access
        to something — full availability would mean the storm was inert."""
        sample = [wan_storm_run(seed, "qtp1") for seed in range(4)]
        assert any(readable < 1.0 for readable, *_ in sample)

    @pytest.mark.parametrize("protocol", ["qtp1", "qtp2"])
    def test_healed_storm_terminates_consistently(self, protocol):
        for seed in range(3):
            run = run_scenario(wan_storm_scenario(heal=True), protocol, seed)
            assert run.cluster.outcome(run.txn.txn).atomic
            assert not run.cluster.live_undecided(run.txn.txn)

    def test_safety_at_scale(self):
        """Theorem 1 at 32 sites: no atomicity violation, healed or not."""
        for seed in range(3):
            for heal in (False, True):
                run = run_scenario(wan_storm_scenario(heal=heal), "qtp1", seed)
                assert run.cluster.outcome(run.txn.txn).atomic


class TestWanSweep:
    def test_rows_cover_protocols_and_aggregate(self):
        rows = wan_partition_storm(("qtp1", "qtp2"), runs=3)
        assert [r.protocol for r in rows] == ["qtp1", "qtp2"]
        for row in rows:
            assert row.runs == 3
            assert 0.0 <= row.readable_fraction <= 1.0
            assert row.violation_runs == 0

    def test_parallel_matches_serial(self):
        serial = wan_partition_storm(("qtp1",), runs=4, workers=1)
        parallel = wan_partition_storm(("qtp1",), runs=4, workers=3)
        assert serial == parallel
