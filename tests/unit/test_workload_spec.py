"""Unit tests for the declarative workload spec."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.workload.generators import random_catalog, random_update, wan_catalog, wan_regions
from repro.workload.spec import WorkloadSpec


@pytest.fixture
def catalog():
    return random_catalog(random.Random(7), n_sites=8, n_items=6, replication=3)


class TestValidation:
    def test_defaults_build(self):
        WorkloadSpec()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_txns": 0},
            {"popularity": "pareto"},
            {"zipf_s": 0.0},
            {"read_fraction": 1.5},
            {"footprint": (0, 2)},
            {"footprint": (3, 2)},
            {"arrival": "burst"},
            {"mean_spacing": 0.0},
            {"cross_region": -0.1},
            {"value_pool": 0},
            {"arrival": "open", "duration": 60.0},  # no rate
            {"arrival": "open", "rate": 1.0},  # no duration
            {"rate": 1.0},  # a rate on a closed spec
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(**kwargs)

    def test_cross_region_needs_regions(self, catalog):
        spec = WorkloadSpec(cross_region=0.5)
        with pytest.raises(ConfigurationError):
            spec.compile(catalog)


class TestRateSchedule:
    OPEN = dict(arrival="open", rate=1.0, duration=60.0)

    @pytest.mark.parametrize(
        "schedule",
        [
            (),  # empty
            ((5.0, 1.0),),  # must start at offset 0
            ((0.0, 1.0), (10.0, 2.0), (10.0, 3.0)),  # offsets not increasing
            ((0.0, 1.0), (10.0, 0.0)),  # non-positive rate
        ],
    )
    def test_bad_schedules_rejected(self, schedule):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(**self.OPEN, rate_schedule=schedule)

    def test_schedule_rejected_on_closed_specs(self):
        with pytest.raises(ConfigurationError, match="arrival='open'"):
            WorkloadSpec(n_txns=5, rate_schedule=((0.0, 1.0),))

    def test_rate_at_is_piecewise_constant(self, catalog):
        spec = WorkloadSpec(
            **self.OPEN, rate_schedule=((0.0, 1.0), (40.0, 6.0), (55.0, 1.0))
        )
        compiled = spec.compile(catalog)
        assert compiled.rate_at(0.0) == 1.0
        assert compiled.rate_at(39.9) == 1.0
        assert compiled.rate_at(40.0) == 6.0  # step boundary belongs to the step
        assert compiled.rate_at(54.9) == 6.0
        assert compiled.rate_at(55.0) == 1.0
        assert compiled.rate_at(1e9) == 1.0  # last step holds to the end

    def test_rate_at_without_schedule_is_constant(self, catalog):
        compiled = WorkloadSpec(**self.OPEN).compile(catalog)
        assert compiled.rate_at(0.0) == compiled.rate_at(1e6) == 1.0

    def test_next_gap_samples_the_scheduled_rate(self, catalog):
        # the same RNG state must yield a gap `surge_ratio` times
        # shorter inside the surge: one expovariate at the step's rate
        spec = WorkloadSpec(
            **self.OPEN, rate_schedule=((0.0, 1.0), (40.0, 6.0))
        )
        compiled = spec.compile(catalog)
        quiet = compiled.next_gap(random.Random(7), now=10.0)
        surge = compiled.next_gap(random.Random(7), now=45.0)
        assert surge == pytest.approx(quiet / 6.0)

    def test_constant_stream_ignores_the_clock(self, catalog):
        # no schedule: passing `now` must not perturb the draw sequence
        compiled = WorkloadSpec(**self.OPEN).compile(catalog)
        with_now = compiled.next_gap(random.Random(7), now=42.0)
        without = compiled.next_gap(random.Random(7))
        assert with_now == without


class TestLegacyStreamEquivalence:
    """The determinism contract: default shapes replay the historical
    generators draw-for-draw, so E18/E21 trajectories stay pinned."""

    def test_single_item_op_matches_choice_stream(self, catalog):
        compiled = WorkloadSpec().compile(catalog)
        for seed in range(40):
            a, b = random.Random(seed), random.Random(seed)
            item = a.choice(catalog.item_names)
            origin = a.choice(catalog.sites_of(item))
            op = compiled.next_op(b)
            assert (op.kind, op.items, op.origin) == ("update", (item,), origin)
            assert a.getstate() == b.getstate()

    def test_ranged_update_matches_random_update_stream(self, catalog):
        compiled = WorkloadSpec(footprint=(1, 3)).compile(catalog)
        for seed in range(40):
            a, b = random.Random(seed), random.Random(seed)
            assert random_update(a, catalog, max_items=3) == compiled.next_update(b)
            assert a.getstate() == b.getstate()

    def test_poisson_arrivals_match_arrival_times(self, catalog):
        from repro.workload.generators import arrival_times

        spec = WorkloadSpec(n_txns=20, mean_spacing=2.5)
        compiled = spec.compile(catalog)
        a, b = random.Random(3), random.Random(3)
        assert compiled.arrivals(b) == arrival_times(a, 20, mean_spacing=2.5)

    def test_fixed_arrivals_draw_nothing(self, catalog):
        spec = WorkloadSpec(n_txns=4, arrival="fixed", mean_spacing=5.0, start=1.0)
        rng = random.Random(0)
        state = rng.getstate()
        assert spec.compile(catalog).arrivals(rng) == [1.0, 6.0, 11.0, 16.0]
        assert rng.getstate() == state


class TestZipf:
    def test_skew_orders_by_rank(self, catalog):
        compiled = WorkloadSpec(popularity="zipf", zipf_s=1.5).compile(catalog)
        rng = random.Random(11)
        counts = {name: 0 for name in catalog.item_names}
        for __ in range(4000):
            counts[compiled.pick_item(rng)] += 1
        ordered = [counts[name] for name in catalog.item_names]
        assert ordered[0] == max(ordered)
        assert ordered[0] > 3 * ordered[-1]  # genuinely skewed

    def test_ranged_zipf_footprint_distinct_items(self, catalog):
        compiled = WorkloadSpec(popularity="zipf", footprint=(2, 4)).compile(catalog)
        rng = random.Random(5)
        for __ in range(100):
            items = compiled.pick_items(rng)
            assert 2 <= len(items) <= 4
            assert len(set(items)) == len(items)

    def test_deterministic_in_seed(self, catalog):
        compiled = WorkloadSpec(popularity="zipf", footprint=(1, 2)).compile(catalog)
        a = [compiled.next_update(random.Random(9)) for __ in range(5)]
        b = [compiled.next_update(random.Random(9)) for __ in range(5)]
        assert a == b

    def test_precomputed_total_matches_per_draw_sum(self, catalog):
        # the scan's normalizer is summed once at compile time;
        # it must be the exact float sum() produced per draw historically
        compiled = WorkloadSpec(popularity="zipf", zipf_s=1.3).compile(catalog)
        assert compiled._weight_total == sum(compiled._weights)

    def test_full_catalog_footprint_is_a_permutation(self, catalog):
        # a footprint spanning the whole catalog under heavy skew still
        # draws every item once
        n = len(catalog.item_names)
        compiled = WorkloadSpec(popularity="zipf", zipf_s=2.5, footprint=(n, n)).compile(catalog)
        rng = random.Random(13)
        for __ in range(20):
            assert sorted(compiled.pick_items(rng)) == catalog.item_names

    def test_single_pick_draws_one_random(self, catalog):
        # the scan consumes exactly one rng.random() per pick, whatever
        # item it lands on: the stream every pinned trajectory assumes
        compiled = WorkloadSpec(popularity="zipf", zipf_s=1.5).compile(catalog)
        for seed in range(40):
            a, b = random.Random(seed), random.Random(seed)
            compiled.pick_item(a)
            b.random()
            assert a.getstate() == b.getstate()

    def test_footprint_draws_one_randint_then_one_random_per_item(self, catalog):
        compiled = WorkloadSpec(popularity="zipf", footprint=(2, 4)).compile(catalog)
        for seed in range(40):
            a, b = random.Random(seed), random.Random(seed)
            picked = compiled.pick_items(a)
            assert len(picked) == b.randint(2, 4)
            for __ in picked:
                b.random()
            assert a.getstate() == b.getstate()

    def test_uniform_popularity_builds_no_weights(self, catalog):
        # zipf_s only shapes a zipf spec: a uniform spec replays the
        # same choice/sample stream whatever its exponent
        flat = WorkloadSpec(footprint=(1, 2)).compile(catalog)
        steep = WorkloadSpec(footprint=(1, 2), zipf_s=2.5).compile(catalog)
        assert flat._weights is None and steep._weights is None
        a = [flat.next_update(random.Random(3)) for __ in range(8)]
        b = [steep.next_update(random.Random(3)) for __ in range(8)]
        assert a == b


class TestReadMix:
    def test_zero_read_fraction_draws_nothing_extra(self, catalog):
        spec = WorkloadSpec()  # read_fraction == 0
        compiled = spec.compile(catalog)
        rng = random.Random(2)
        ops = [compiled.next_op(rng) for __ in range(50)]
        assert all(op.kind == "update" for op in ops)

    def test_read_fraction_produces_reads(self, catalog):
        compiled = WorkloadSpec(read_fraction=0.8).compile(catalog)
        rng = random.Random(2)
        kinds = [compiled.next_op(rng).kind for __ in range(200)]
        reads = kinds.count("read")
        assert 120 < reads < 200  # ~80% of 200
        for op in (compiled.next_op(rng) for __ in range(20)):
            assert len(op.items) == 1


class TestCrossRegion:
    def test_spanning_origin_hosts_no_copy(self):
        rng0 = random.Random(1)
        catalog = wan_catalog(rng0, n_regions=4, sites_per_region=4, n_items=6, region_replication=2)
        regions = wan_regions(4, 4)
        compiled = WorkloadSpec(cross_region=1.0).compile(catalog, regions)
        region_of = {s: i for i, region in enumerate(regions) for s in region}
        rng = random.Random(8)
        foreign = 0
        for __ in range(100):
            op = compiled.next_op(rng)
            hosts = catalog.sites_of(op.items[0])
            host_regions = {region_of[s] for s in hosts}
            if region_of[op.origin] not in host_regions:
                foreign += 1
        # every draw spans (prob 1.0) unless an item is replicated in
        # every region (then there is nowhere foreign to stand)
        assert foreign == 100

    def test_zero_cross_region_keeps_home_origins(self):
        rng0 = random.Random(1)
        catalog = wan_catalog(rng0, n_regions=3, sites_per_region=4, n_items=4)
        regions = wan_regions(3, 4)
        compiled = WorkloadSpec().compile(catalog, regions)
        rng = random.Random(4)
        for __ in range(50):
            op = compiled.next_op(rng)
            assert op.origin in catalog.sites_of(op.items[0])
