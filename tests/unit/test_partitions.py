"""Unit tests for the partition view."""

import pytest

from repro.net.partitions import PartitionView


class TestConstruction:
    def test_default_is_fully_connected(self):
        view = PartitionView([1, 2, 3])
        assert not view.is_partitioned
        assert view.reachable(1, 3)

    def test_explicit_groups(self):
        view = PartitionView([1, 2, 3, 4], [[1, 2], [3, 4]])
        assert view.is_partitioned
        assert view.reachable(1, 2)
        assert not view.reachable(2, 3)

    def test_unlisted_sites_become_singletons(self):
        view = PartitionView([1, 2, 3], [[1, 2]])
        assert view.component_of(3) == frozenset([3])
        assert not view.reachable(1, 3)

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="multiple groups"):
            PartitionView([1, 2, 3], [[1, 2], [2, 3]])

    def test_unknown_sites_rejected(self):
        with pytest.raises(ValueError, match="unknown sites"):
            PartitionView([1, 2], [[1, 2, 9]])

    def test_empty_groups_ignored(self):
        view = PartitionView([1, 2], [[], [1, 2]])
        assert len(view.components) == 1


class TestQueries:
    def test_component_of_unknown_site_raises(self):
        view = PartitionView([1, 2])
        with pytest.raises(ValueError, match="unknown site"):
            view.component_of(99)

    def test_self_reachability(self):
        view = PartitionView([1, 2], [[1], [2]])
        assert view.reachable(1, 1)

    def test_components_cover_universe(self):
        view = PartitionView([1, 2, 3, 4, 5], [[1, 3], [2]])
        covered = set()
        for comp in view.components:
            covered |= comp
        assert covered == {1, 2, 3, 4, 5}

    def test_group_order_is_construction_order(self):
        a = PartitionView([1, 2, 3], [[1], [2, 3]])
        b = PartitionView([1, 2, 3], [[2, 3], [1]])
        assert set(a.components) == set(b.components)
        assert a.components == (frozenset([1]), frozenset([2, 3]))
        assert b.components == (frozenset([2, 3]), frozenset([1]))

    def test_different_groups_differ(self):
        a = PartitionView([1, 2, 3], [[1], [2, 3]])
        b = PartitionView([1, 2, 3], [[1, 2], [3]])
        assert set(a.components) != set(b.components)

    def test_sorted_components_memoized_and_ordered(self):
        view = PartitionView([1, 2, 3, 4, 5], [[3, 1], [5, 4]])
        rendered = view.sorted_components()
        assert rendered == [[1, 3], [4, 5], [2]]
        assert view.sorted_components() is rendered  # memoized

