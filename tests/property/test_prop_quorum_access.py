"""The client's quorum access against the references it replaced.

Quorum planning walks each item's vote ranking, precomputed once per
catalog; the lock manager releases a transaction through its
per-transaction index; the interactive transaction tests reachability
one copy at a time.  Each must decide exactly what the straightforward
version decides.  The references live here, and only here:

* :func:`_sorted_select` — sort the available copies per call, by
  descending votes then ascending site, and take a prefix;
* :class:`_ScanLockManager` — ``release_all`` scans the whole lock
  table for the transaction's holds;
* ``Network.reachable_from`` — a sorted list of the live sites in the
  source's component.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.common.errors import QuorumUnreachableError
from repro.concurrency.locks import LockManager, LockMode
from repro.db.cluster import Cluster
from repro.replication.accessor import QuorumPlanner
from repro.replication.catalog import CatalogBuilder


def _sorted_select(catalog, item, available, needed, kind):
    """Reference planner: sort the available copies on every call."""
    copies = catalog.item(item).copies
    candidates = sorted(
        (s for s in set(available) if s in copies),
        key=lambda s: (-copies[s], s),
    )
    chosen = []
    gathered = 0
    for site in candidates:
        chosen.append(site)
        gathered += copies[site]
        if gathered >= needed:
            return tuple(sorted(chosen))
    raise QuorumUnreachableError(item, kind, gathered, needed)


def _sorted_write_hosts(catalog, item, available):
    """Reference write rule: every available copy must muster w(x)."""
    hosting = sorted(s for s in set(available) if s in catalog.item(item).copies)
    gathered = catalog.votes(item, hosting)
    if gathered < catalog.w(item):
        raise QuorumUnreachableError(item, "write", gathered, catalog.w(item))
    return hosting


def _sorted_hosts(planner, item, available):
    return sorted(planner.write_hosts(item, available))


def _outcome(call, *args):
    """A plan, or the unreachable error's full content."""
    try:
        return call(*args)
    except QuorumUnreachableError as error:
        return ("unreachable", error.item, error.kind, error.gathered, error.needed)


@st.composite
def _catalogs(draw):
    """One to three items over sites 1..8: weighted votes, many ties."""
    builder = CatalogBuilder()
    for index in range(draw(st.integers(1, 3))):
        votes = draw(
            st.dictionaries(
                st.integers(1, 8),
                # few distinct vote values, so equal-vote ties are common
                st.sampled_from([1, 1, 2, 3]),
                min_size=1,
                max_size=7,
            )
        )
        v = sum(votes.values())
        w = draw(st.integers(v // 2 + 1, v))
        r = draw(st.integers(v - w + 1, v))
        builder.item(f"i{index}", votes, r=r, w=w)
    return builder.build()


class TestRankedPlannerAgreesWithSortedReference:
    @given(_catalogs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_plans_and_refusals_identical(self, catalog, data):
        planner = QuorumPlanner(catalog)
        for item in catalog.item_names:
            # sites 0 and 9 host nothing: available sets may name them
            available = data.draw(st.lists(st.integers(0, 9), max_size=10))
            for container in (available, set(available), frozenset(available)):
                assert _outcome(planner.plan_read, item, container) == _outcome(
                    _sorted_select, catalog, item, available, catalog.r(item), "read"
                )
                assert _outcome(planner.plan_write, item, container) == _outcome(
                    _sorted_select, catalog, item, available, catalog.w(item), "write"
                )
                assert _outcome(_sorted_hosts, planner, item, container) == _outcome(
                    _sorted_write_hosts, catalog, item, available
                )

    @given(_catalogs())
    @settings(max_examples=100, deadline=None)
    def test_ranking_is_the_reference_sort(self, catalog):
        for item in catalog.item_names:
            config = catalog.item(item)
            copies = config.copies
            assert config.ranked == tuple(sorted(copies, key=lambda s: (-copies[s], s)))

    @given(_catalogs(), st.integers(1, 8), st.lists(st.integers(1, 8), max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_next_epoch_ranks_its_own_copies(self, catalog, joiner, leavers):
        """A join or a leave builds items whose ranking fits their copies."""
        item = catalog.item_names[0]
        nxt = catalog
        if joiner not in catalog.item(item).copies:
            nxt = catalog.admit_site(joiner, {item: 2})
        for site in leavers:
            hosted = [nxt.item(n).copies for n in nxt.item_names if site in nxt.item(n).copies]
            if hosted and all(len(copies) > 1 for copies in hosted):
                nxt, __ = nxt.evict_site(site)
        for name in nxt.item_names:
            copies = nxt.item(name).copies
            assert nxt.item(name).ranked == tuple(sorted(copies, key=lambda s: (-copies[s], s)))


class TestLivePeersAgreesWithReachableFrom:
    @given(
        st.lists(st.integers(0, 2), min_size=6, max_size=6),
        st.sets(st.integers(1, 6), max_size=6),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_membership_identical(self, groups_of, crashed, heal_first):
        catalog = CatalogBuilder().replicated_item("x", sites=range(1, 7)).build()
        cluster = Cluster(catalog, protocol="2pc")
        network = cluster.network
        for site in range(1, 7):
            network.live_peers(site)  # fill the per-epoch cache early
        groups = [[s for s, g in zip(range(1, 7), groups_of) if g == k] for k in range(3)]
        network.set_partition([g for g in groups if g])
        if heal_first:
            network.heal()
        for site in sorted(crashed):
            network.crash_site(site)
        for src in range(1, 7):
            reachable = network.reachable_from(src)
            live = network.live_peers(src)
            assert [s for s in range(0, 9) if s in live] == reachable


# ----------------------------------------------------------------------
# the lock manager
# ----------------------------------------------------------------------


class _ScanLockManager(LockManager):
    """Reference: ``release_all`` scans the whole table (the transaction
    index is dropped unread, so acquisitions may keep feeding it)."""

    def release_all(self, txn):
        if self._by_txn:
            self._by_txn.pop(txn, None)
        released = []
        for item, entry in self._items.items():
            held = entry.holders.pop(txn, None)
            if held is not None:
                entry.exclusive -= held is LockMode.EXCLUSIVE
                released.append(item)
        for item in released:
            if not self._items[item].holders:
                del self._items[item]
        return released

    def held_by(self, txn):
        return sorted(i for i, e in self._items.items() if txn in e.holders)


TXNS = ("T1", "T2", "T3", "T4")
ITEMS = ("a", "b", "c", "d", "e")

_lock_ops = st.lists(
    st.one_of(
        st.tuples(st.just("try"), st.sampled_from(TXNS), st.sampled_from(ITEMS), st.sampled_from(LockMode)),
        st.tuples(st.just("release"), st.sampled_from(TXNS), st.none(), st.none()),
    ),
    max_size=60,
)


def _table(manager):
    """Everything the table holds, in the table's own order."""
    return [(item, manager.holder_modes(item)) for item in manager._items]


def _play(manager, ops):
    """Apply ``ops``; return every answer and every hold after it."""
    answers = []
    for op, txn, item, mode in ops:
        if op == "try":
            answers.append(manager.try_acquire(txn, item, mode))
        else:
            answers.append(sorted(manager.release_all(txn)))
        answers.append([manager.held_by(t) for t in TXNS])
    return answers


class TestIndexedReleaseAgreesWithTableScan:
    @given(_lock_ops)
    @settings(max_examples=400, deadline=None)
    def test_same_grants_releases_and_table(self, ops):
        indexed, scanned = LockManager(1), _ScanLockManager(1)
        assert _play(indexed, ops) == _play(scanned, ops)  # grants, releases, holds after each op
        assert _table(indexed) == _table(scanned)

    @given(_lock_ops)
    @settings(max_examples=200, deadline=None)
    def test_index_names_exactly_the_held_items(self, ops):
        manager = LockManager(1)
        _play(manager, ops)
        for txn in TXNS:
            expected = {item for item, holders in _table(manager) if txn in holders}
            assert set(manager._by_txn.get(txn, {})) == expected
        for txn in TXNS:
            manager.release_all(txn)
        assert manager._items == {} and manager._by_txn == {}
