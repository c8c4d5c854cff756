"""Property-based tests of the substrates (scheduler, locks, catalog,
partition view, WAL recovery)."""

from hypothesis import given, settings, strategies as st

from repro.concurrency.locks import LockManager, LockMode
from repro.net.partitions import PartitionView
from repro.protocols.states import TxnState
from repro.replication.catalog import CatalogBuilder
from repro.sim.scheduler import Scheduler
from repro.storage.recovery import recover_protocol_states
from repro.storage.wal import WriteAheadLog


class TestSchedulerProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, times):
        scheduler = Scheduler()
        fired = []
        for t in times:
            scheduler.call_at(t, lambda t=t: fired.append(scheduler.now))
        scheduler.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(
        st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=30),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_run_until_splits_cleanly(self, times, deadline):
        scheduler = Scheduler()
        fired = []
        for t in times:
            scheduler.call_at(t, lambda t=t: fired.append(t))
        scheduler.run_until(deadline)
        assert all(t <= deadline for t in fired)
        scheduler.run()
        assert sorted(fired) == sorted(times)


class TestLockProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["T1", "T2", "T3"]),
                st.sampled_from(["x", "y"]),
                st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
                st.booleans(),  # release after?
            ),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_exclusive_never_shares(self, ops):
        """At no point do two transactions hold an X lock on one item,
        nor an X and an S lock together."""
        lm = LockManager(1)
        for txn, item, mode, release in ops:
            lm.try_acquire(txn, item, mode)
            for check_item in ("x", "y"):
                holders = lm.holder_modes(check_item)
                x_holders = [t for t, m in holders.items() if m is LockMode.EXCLUSIVE]
                assert len(x_holders) <= 1
                if x_holders:
                    assert len(holders) == 1
            if release:
                lm.release_all(txn)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_release_all_leaves_no_residue(self, data):
        lm = LockManager(1)
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["T1", "T2"]),
                    st.sampled_from(["x", "y", "z"]),
                ),
                max_size=20,
            )
        )
        for txn, item in ops:
            lm.try_acquire(txn, item, LockMode.EXCLUSIVE)
        lm.release_all("T1")
        lm.release_all("T2")
        for item in ("x", "y", "z"):
            assert not lm.is_locked(item)


class TestCatalogProperties:
    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=10),
            st.integers(min_value=1, max_value=4),
            min_size=1,
            max_size=8,
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_quorum_intersection(self, votes, data):
        """Any read quorum intersects any write quorum; any two write
        quorums intersect — the heart of Gifford's scheme."""
        v = sum(votes.values())
        w = data.draw(st.integers(min_value=v // 2 + 1, max_value=v))
        r = data.draw(st.integers(min_value=v - w + 1, max_value=v))
        catalog = CatalogBuilder().item("x", votes, r=r, w=w).build()
        sites = list(votes)
        subsets = data.draw(
            st.lists(st.lists(st.sampled_from(sites), unique=True), min_size=2, max_size=2)
        )
        a, b = (set(s) for s in subsets)
        if catalog.has_read_quorum("x", a) and catalog.has_write_quorum("x", b):
            assert a & b
        if catalog.has_write_quorum("x", a) and catalog.has_write_quorum("x", b):
            assert a & b

    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=10),
            st.integers(min_value=1, max_value=4),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_votes_monotone_in_site_set(self, votes):
        v = sum(votes.values())
        catalog = CatalogBuilder().item("x", votes, r=v, w=v).build()
        sites = sorted(votes)
        running = 0
        for i in range(len(sites)):
            new = catalog.votes("x", sites[: i + 1])
            assert new >= running
            running = new
        assert running == v


class TestPartitionProperties:
    @given(
        st.sets(st.integers(min_value=1, max_value=12), min_size=1, max_size=12),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_components_partition_the_universe(self, sites, data):
        site_list = sorted(sites)
        k = data.draw(st.integers(min_value=0, max_value=len(site_list)))
        group = site_list[:k]
        view = PartitionView(site_list, [group] if group else None)
        seen = set()
        for comp in view.components:
            assert not (comp & seen)
            seen |= comp
        assert seen == sites

    @given(st.sets(st.integers(min_value=1, max_value=10), min_size=2, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_reachability_is_equivalence(self, sites):
        site_list = sorted(sites)
        half = site_list[: len(site_list) // 2]
        rest = site_list[len(site_list) // 2:]
        view = PartitionView(site_list, [half, rest])
        for a in site_list:
            assert view.reachable(a, a)
            for b in site_list:
                assert view.reachable(a, b) == view.reachable(b, a)
                for c in site_list:
                    if view.reachable(a, b) and view.reachable(b, c):
                        assert view.reachable(a, c)


_KINDS = ["begin", "vote-yes", "vote-no", "pc", "pa"]


class TestWalRecoveryProperties:
    @given(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_recovered_state_matches_last_anchor(self, kinds):
        """Whatever the log suffix, recovery lands on the state the last
        protocol record dictates."""
        wal = WriteAheadLog(1)
        wal.force("T", "begin")
        for kind in kinds:
            if kind == "begin":
                continue
            if kind == "vote-yes":
                wal.force("T", "vote", vote="yes")
            elif kind == "vote-no":
                wal.force("T", "vote", vote="no")
            else:
                wal.force("T", kind)
        state = recover_protocol_states(wal)["T"]
        last = wal.last_protocol_record("T")
        expected = {
            "begin": TxnState.Q,
            "pc": TxnState.PC,
            "pa": TxnState.PA,
        }.get(last.kind)
        if last.kind == "vote":
            expected = TxnState.W if last.payload["vote"] == "yes" else TxnState.Q
        assert state is expected
