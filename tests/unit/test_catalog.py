"""Unit tests for the replica catalog and quorum planner."""

import random

import pytest

from repro.common.errors import ConfigurationError, QuorumUnreachableError
from repro.replication.accessor import QuorumPlanner
from repro.replication.catalog import CatalogBuilder, ItemConfig
from repro.storage.store import VersionedValue
from repro.workload.generators import random_catalog


class TestConstraints:
    def test_valid_assignment_accepted(self):
        config = ItemConfig("x", {1: 1, 2: 1, 3: 1}, read_quorum=2, write_quorum=2)
        config.validate()  # must not raise

    def test_r_plus_w_must_exceed_v(self):
        with pytest.raises(ConfigurationError, match="r \\+ w"):
            CatalogBuilder().item("x", {1: 1, 2: 1, 3: 1, 4: 1}, r=2, w=2).build()

    def test_two_w_must_exceed_v(self):
        with pytest.raises(ConfigurationError, match="2w"):
            CatalogBuilder().item("x", {1: 1, 2: 1, 3: 1, 4: 1}, r=3, w=2).build()

    def test_no_copies_rejected(self):
        with pytest.raises(ConfigurationError, match="no copies"):
            CatalogBuilder().item("x", {}, r=1, w=1).build()

    def test_nonpositive_vote_rejected(self):
        with pytest.raises(ConfigurationError, match="non-positive vote"):
            CatalogBuilder().item("x", {1: 0, 2: 2}, r=1, w=2).build()

    def test_quorum_exceeding_total_rejected(self):
        with pytest.raises(ConfigurationError):
            CatalogBuilder().item("x", {1: 1, 2: 1}, r=1, w=3).build()

    def test_duplicate_item_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate item"):
            (
                CatalogBuilder()
                .replicated_item("x", [1, 2, 3])
                .replicated_item("x", [1, 2, 3])
                .build()
            )

    def test_weighted_votes(self):
        catalog = CatalogBuilder().item("x", {1: 3, 2: 1, 3: 1}, r=2, w=4).build()
        assert catalog.v("x") == 5
        assert catalog.votes("x", [1]) == 3


class TestDefaults:
    def test_replicated_item_majority_default(self):
        catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4, 5]).build()
        assert catalog.w("x") == 3
        assert catalog.r("x") == 3
        assert catalog.v("x") == 5

    def test_replicated_item_explicit_quorums(self):
        catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3).build()
        assert (catalog.r("x"), catalog.w("x")) == (2, 3)


class TestLookups:
    @pytest.fixture
    def catalog(self):
        return (
            CatalogBuilder()
            .replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3)
            .replicated_item("y", sites=[3, 4, 5], r=2, w=2)
            .build()
        )

    def test_unknown_item_rejected(self, catalog):
        with pytest.raises(ConfigurationError, match="unknown item"):
            catalog.r("ghost")

    def test_sites_of(self, catalog):
        assert catalog.sites_of("y") == [3, 4, 5]

    def test_sites_of_any_unions(self, catalog):
        assert catalog.sites_of_any(["x", "y"]) == [1, 2, 3, 4, 5]

    def test_all_sites(self, catalog):
        assert catalog.all_sites() == [1, 2, 3, 4, 5]

    def test_votes_ignore_nonhosting_sites(self, catalog):
        assert catalog.votes("x", [1, 2, 99]) == 2

    def test_votes_deduplicate(self, catalog):
        assert catalog.votes("x", [1, 1, 1]) == 1

    def test_quorum_predicates(self, catalog):
        assert catalog.has_read_quorum("x", [1, 2])
        assert not catalog.has_read_quorum("x", [1])
        assert catalog.has_write_quorum("x", [1, 2, 3])
        assert not catalog.has_write_quorum("x", [1, 2])

    def test_contains(self, catalog):
        assert "x" in catalog and "ghost" not in catalog

    def test_items_by_site(self, catalog):
        assert catalog.items_by_site() == {1: ["x"], 2: ["x"], 3: ["x", "y"], 4: ["x", "y"], 5: ["y"]}


def naive_items_by_site(catalog):
    """The definition ``items_by_site`` replaces: probe every item per site."""
    return {
        site: [item for item in catalog.item_names if site in catalog.sites_of(item)]
        for site in catalog.all_sites()
    }


class TestItemsBySite:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_naive_probe_through_admit_and_evict(self, seed):
        rng = random.Random(seed)
        catalog = random_catalog(rng, n_sites=9, n_items=12, replication=3)
        assert catalog.items_by_site() == naive_items_by_site(catalog)
        assert sorted(catalog.items_by_site()) == catalog.all_sites()

        joined = rng.sample(catalog.item_names, 4)
        grown = catalog.admit_site(42, {item: 1 for item in joined})
        assert grown.items_by_site() == naive_items_by_site(grown)
        assert grown.items_by_site()[42] == sorted(joined)

        leaver = rng.choice([s for s in grown.all_sites() if s != 42])
        shrunk, __ = grown.evict_site(leaver)
        assert shrunk.items_by_site() == naive_items_by_site(shrunk)
        assert leaver not in shrunk.items_by_site()


def _placement(catalog):
    return {name: catalog.item(name) for name in catalog.item_names}


class TestMembershipReturnsTheNextCatalog:
    """A catalog is a value: a join or a leave builds the next epoch's
    catalog and leaves the original equal to what it was."""

    @pytest.mark.parametrize("seed", range(5))
    def test_admit_and_evict_leave_the_original_unchanged(self, seed):
        rng = random.Random(seed)
        catalog = random_catalog(rng, n_sites=9, n_items=12, replication=3)
        before = _placement(catalog)

        item = catalog.item_names[0]
        grown = catalog.admit_site(99, {item: 1})
        assert grown is not catalog and grown.epoch == catalog.epoch + 1
        assert 99 in grown.sites_of(item)
        assert 99 not in catalog.sites_of(item)

        leaver = catalog.sites_of(item)[0]
        shrunk, evicted = catalog.evict_site(leaver)
        assert shrunk.epoch == catalog.epoch + 1
        assert leaver not in shrunk.all_sites() and item in evicted

        assert _placement(catalog) == before and catalog.epoch == 0

    def test_a_rejected_change_builds_nothing(self):
        catalog = CatalogBuilder().replicated_item("x", sites=[1]).item(
            "y", {1: 1, 2: 1, 3: 1}, r=2, w=2
        ).build()
        with pytest.raises(ConfigurationError):
            catalog.evict_site(1)  # the only copy of x
        with pytest.raises(ConfigurationError):
            catalog.admit_site(2, {"y": 1})  # 2 already hosts y
        assert catalog.sites_of("x") == [1] and catalog.epoch == 0


class TestPlanner:
    @pytest.fixture
    def planner(self):
        catalog = CatalogBuilder().item("x", {1: 2, 2: 1, 3: 1, 4: 1}, r=2, w=4).build()
        return QuorumPlanner(catalog)

    def test_plan_read_prefers_high_vote_sites(self, planner):
        assert planner.plan_read("x", [1, 2, 3, 4]) == (1,)

    def test_plan_read_accumulates(self, planner):
        assert planner.plan_read("x", [2, 3, 4]) == (2, 3)

    def test_plan_read_unreachable_raises(self, planner):
        with pytest.raises(QuorumUnreachableError) as exc:
            planner.plan_read("x", [4])
        assert exc.value.gathered == 1
        assert exc.value.needed == 2

    def test_plan_write_needs_w_votes(self, planner):
        assert planner.plan_write("x", [1, 2, 3, 4]) == (1, 2, 3)

    def test_plan_write_unreachable(self, planner):
        with pytest.raises(QuorumUnreachableError):
            planner.plan_write("x", [2, 3, 4])

    def test_resolve_read_takes_max_version(self, planner):
        replies = {
            1: VersionedValue("old", 3),
            2: VersionedValue("new", 5),
            3: VersionedValue("old", 3),
        }
        result = QuorumPlanner.resolve_read("x", replies)
        assert result.value == "new"
        assert result.version == 5
        assert result.stale_sites == (1, 3)

    def test_resolve_read_empty_raises(self):
        with pytest.raises(QuorumUnreachableError):
            QuorumPlanner.resolve_read("x", {})

    def test_next_version(self):
        assert QuorumPlanner.next_version([3, 5, 4]) == 6
        assert QuorumPlanner.next_version([]) == 1
