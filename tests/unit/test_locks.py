"""Unit tests for the no-wait lock manager."""

import random

from hypothesis import given, settings, strategies as st

from repro.concurrency.locks import LockManager, LockMode


class TestBasicLocking:
    def test_exclusive_excludes(self):
        lm = LockManager(1)
        assert lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)
        assert not lm.try_acquire("T2", "x", LockMode.EXCLUSIVE)

    def test_shared_locks_coexist(self):
        lm = LockManager(1)
        assert lm.try_acquire("T1", "x", LockMode.SHARED)
        assert lm.try_acquire("T2", "x", LockMode.SHARED)

    def test_shared_blocks_exclusive(self):
        lm = LockManager(1)
        lm.try_acquire("T1", "x", LockMode.SHARED)
        assert not lm.try_acquire("T2", "x", LockMode.EXCLUSIVE)

    def test_exclusive_blocks_shared(self):
        lm = LockManager(1)
        lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)
        assert not lm.try_acquire("T2", "x", LockMode.SHARED)
        assert lm.holder_modes("x") == {"T1": LockMode.EXCLUSIVE}

    def test_reacquire_is_granted(self):
        lm = LockManager(1)
        lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)
        assert lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)
        assert lm.try_acquire("T1", "x", LockMode.SHARED)  # X covers S

    def test_sole_holder_upgrade(self):
        lm = LockManager(1)
        lm.try_acquire("T1", "x", LockMode.SHARED)
        assert lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)
        assert lm.holder_modes("x")["T1"] is LockMode.EXCLUSIVE

    def test_upgrade_blocked_by_other_sharer(self):
        lm = LockManager(1)
        lm.try_acquire("T1", "x", LockMode.SHARED)
        lm.try_acquire("T2", "x", LockMode.SHARED)
        assert not lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)


class TestTryAcquire:
    def test_try_acquire_grants_when_free(self):
        lm = LockManager(1)
        assert lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)
        assert lm.held_by("T1") == ["x"]

    def test_try_acquire_upgrade(self):
        lm = LockManager(1)
        lm.try_acquire("T1", "x", LockMode.SHARED)
        assert lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)

    def test_try_acquire_never_queues(self):
        lm = LockManager(1)
        lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)
        assert not lm.try_acquire("T2", "x", LockMode.SHARED)
        assert lm.held_by("T2") == []
        # the refused request left nothing behind to be granted later
        assert lm.release_all("T1") == ["x"]
        assert not lm.is_locked("x")
        assert lm.held_by("T2") == []
        assert lm.release_all("T2") == []


class TestRelease:
    def test_release_returns_items(self):
        lm = LockManager(1)
        lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)
        lm.try_acquire("T1", "y", LockMode.SHARED)
        assert sorted(lm.release_all("T1")) == ["x", "y"]

    def test_release_keeps_other_sharers(self):
        lm = LockManager(1)
        lm.try_acquire("T1", "x", LockMode.SHARED)
        lm.try_acquire("T2", "x", LockMode.SHARED)
        assert lm.release_all("T1") == ["x"]
        assert lm.holder_modes("x") == {"T2": LockMode.SHARED}
        assert lm.release_all("T1") == []

    def test_release_frees_item_for_others(self):
        lm = LockManager(1)
        lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)
        assert not lm.try_acquire("T2", "x", LockMode.EXCLUSIVE)
        lm.release_all("T1")
        assert lm.try_acquire("T2", "x", LockMode.EXCLUSIVE)
        assert lm.holder_modes("x") == {"T2": LockMode.EXCLUSIVE}

    def test_release_after_upgrade_unlocks(self):
        lm = LockManager(1)
        lm.try_acquire("T1", "x", LockMode.SHARED)
        assert lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)
        assert lm.release_all("T1") == ["x"]  # one index entry, upgraded in place
        assert not lm.is_locked("x")
        assert lm.try_acquire("T2", "x", LockMode.SHARED)
        assert lm.try_acquire("T3", "x", LockMode.SHARED)


class TestTableFootprint:
    """The vote hot path and the introspection reads must not grow the
    lock table: long sweeps probe thousands of distinct items."""

    def test_refused_try_acquire_allocates_no_entry(self):
        lm = LockManager(1)
        lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)
        base = len(lm._items)
        for __ in range(50):
            assert not lm.try_acquire("T2", "x", LockMode.EXCLUSIVE)
        assert len(lm._items) == base

    def test_introspection_allocates_no_entry(self):
        lm = LockManager(1)
        for i in range(50):
            item = f"ghost{i}"
            assert not lm.is_locked(item)
            assert lm.holder_modes(item) == {}
        assert len(lm._items) == 0

    def test_release_prunes_empty_entries(self):
        lm = LockManager(1)
        for i in range(20):
            assert lm.try_acquire("T1", f"i{i}", LockMode.EXCLUSIVE)
        assert len(lm._items) == 20
        lm.release_all("T1")
        assert len(lm._items) == 0


class TestIntrospection:
    def test_is_locked_unrestricted(self):
        lm = LockManager(1)
        assert not lm.is_locked("x")
        lm.try_acquire("T1", "x", LockMode.SHARED)
        assert lm.is_locked("x")

    def test_is_locked_filtered_by_txn_set(self):
        lm = LockManager(1)
        lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)
        assert lm.is_locked("x", {"T1"})
        assert not lm.is_locked("x", {"T9"})

    def test_held_by_sorted_and_cleared_by_release(self):
        lm = LockManager(1)
        for item in ["z", "x", "y"]:
            lm.try_acquire("T1", item, LockMode.SHARED)
        assert lm.held_by("T1") == ["x", "y", "z"]
        lm.release_all("T1")
        assert lm.held_by("T1") == []

    def test_holder_modes_is_a_snapshot(self):
        lm = LockManager(1)
        lm.try_acquire("T1", "x", LockMode.SHARED)
        modes = lm.holder_modes("x")
        modes["T2"] = LockMode.EXCLUSIVE
        assert lm.holder_modes("x") == {"T1": LockMode.SHARED}
        assert lm.try_acquire("T2", "x", LockMode.SHARED)


class TestProbeParity:
    """The exclusive-holder counter vs the compatibility matrix.

    Random op interleavings: every grant decision must equal the one
    the classical ``all(mode.compatible_with(h) ...)`` holder scan —
    computed here, from the table's observable state — would make.
    """

    @staticmethod
    def _expected_grant(lm, txn, item, mode):
        holders = lm.holder_modes(item)
        held = holders.get(txn)
        if held is not None:  # re-acquisition, or a sole holder's S -> X upgrade
            return held is mode or held is LockMode.EXCLUSIVE or len(holders) == 1
        return all(mode.compatible_with(h) for h in holders.values())

    @given(st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_grant_decisions_identical(self, seed):
        rng = random.Random(seed)
        lm = LockManager(1)
        txns = [f"T{i}" for i in range(5)]
        items = ["x", "y", "z"]
        for _ in range(60):
            txn = rng.choice(txns)
            item = rng.choice(items)
            mode = LockMode.EXCLUSIVE if rng.random() < 0.5 else LockMode.SHARED
            if rng.random() < 0.7:
                expected = self._expected_grant(lm, txn, item, mode)
                assert lm.try_acquire(txn, item, mode) == expected
            else:
                held = lm.held_by(txn)
                assert sorted(lm.release_all(txn)) == held
                assert lm.held_by(txn) == []
            assert all(entry.holders for entry in lm._items.values())  # only held items have entries
            for probe_item in items:
                modes = list(lm.holder_modes(probe_item).values())
                assert len(modes) <= 1 or all(m is LockMode.SHARED for m in modes)

    @given(st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_exclusive_counter_matches_holder_scan(self, seed):
        rng = random.Random(seed)
        lm = LockManager(1)
        txns = [f"T{i}" for i in range(4)]
        for _ in range(50):
            txn = rng.choice(txns)
            mode = LockMode.EXCLUSIVE if rng.random() < 0.5 else LockMode.SHARED
            if rng.random() < 0.3:
                lm.release_all(txn)
            else:
                lm.try_acquire(txn, "hot", mode)
            entry = lm._items.get("hot")
            if entry is not None:
                scanned = sum(
                    held is LockMode.EXCLUSIVE for held in entry.holders.values()
                )
                assert entry.exclusive == scanned
