"""Unit tests for the lock manager and deadlock detection."""

import random

from hypothesis import given, settings, strategies as st

from repro.concurrency.deadlock import build_waits_for, choose_victim, find_deadlock
from repro.concurrency.locks import LockManager, LockMode


class TestBasicLocking:
    def test_exclusive_excludes(self):
        lm = LockManager(1)
        assert lm.acquire("T1", "x", LockMode.EXCLUSIVE)
        assert not lm.acquire("T2", "x", LockMode.EXCLUSIVE)

    def test_shared_locks_coexist(self):
        lm = LockManager(1)
        assert lm.acquire("T1", "x", LockMode.SHARED)
        assert lm.acquire("T2", "x", LockMode.SHARED)

    def test_shared_blocks_exclusive(self):
        lm = LockManager(1)
        lm.acquire("T1", "x", LockMode.SHARED)
        assert not lm.acquire("T2", "x", LockMode.EXCLUSIVE)

    def test_reacquire_is_granted(self):
        lm = LockManager(1)
        lm.acquire("T1", "x", LockMode.EXCLUSIVE)
        assert lm.acquire("T1", "x", LockMode.EXCLUSIVE)
        assert lm.acquire("T1", "x", LockMode.SHARED)  # X covers S

    def test_sole_holder_upgrade(self):
        lm = LockManager(1)
        lm.acquire("T1", "x", LockMode.SHARED)
        assert lm.acquire("T1", "x", LockMode.EXCLUSIVE)
        assert lm.holder_modes("x")["T1"] is LockMode.EXCLUSIVE

    def test_upgrade_blocked_by_other_sharer(self):
        lm = LockManager(1)
        lm.acquire("T1", "x", LockMode.SHARED)
        lm.acquire("T2", "x", LockMode.SHARED)
        assert not lm.acquire("T1", "x", LockMode.EXCLUSIVE)


class TestTryAcquire:
    def test_try_acquire_never_queues(self):
        lm = LockManager(1)
        lm.acquire("T1", "x", LockMode.EXCLUSIVE)
        assert not lm.try_acquire("T2", "x", LockMode.EXCLUSIVE)
        assert lm.waiting("x") == []

    def test_try_acquire_grants_when_free(self):
        lm = LockManager(1)
        assert lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)
        assert lm.held_by("T1") == ["x"]

    def test_try_acquire_upgrade(self):
        lm = LockManager(1)
        lm.try_acquire("T1", "x", LockMode.SHARED)
        assert lm.try_acquire("T1", "x", LockMode.EXCLUSIVE)


class TestReleaseAndWake:
    def test_release_wakes_fifo(self):
        lm = LockManager(1)
        granted = []
        lm.acquire("T1", "x", LockMode.EXCLUSIVE)
        lm.acquire("T2", "x", LockMode.EXCLUSIVE, on_grant=lambda: granted.append("T2"))
        lm.acquire("T3", "x", LockMode.EXCLUSIVE, on_grant=lambda: granted.append("T3"))
        lm.release_all("T1")
        assert granted == ["T2"]
        lm.release_all("T2")
        assert granted == ["T2", "T3"]

    def test_release_wakes_compatible_prefix(self):
        lm = LockManager(1)
        granted = []
        lm.acquire("T1", "x", LockMode.EXCLUSIVE)
        lm.acquire("T2", "x", LockMode.SHARED, on_grant=lambda: granted.append("T2"))
        lm.acquire("T3", "x", LockMode.SHARED, on_grant=lambda: granted.append("T3"))
        lm.release_all("T1")
        assert granted == ["T2", "T3"]

    def test_release_returns_items(self):
        lm = LockManager(1)
        lm.acquire("T1", "x", LockMode.EXCLUSIVE)
        lm.acquire("T1", "y", LockMode.SHARED)
        assert sorted(lm.release_all("T1")) == ["x", "y"]

    def test_release_drops_queued_requests(self):
        lm = LockManager(1)
        lm.acquire("T1", "x", LockMode.EXCLUSIVE)
        lm.acquire("T2", "x", LockMode.EXCLUSIVE)
        lm.release_all("T2")  # T2 gives up while queued
        assert lm.waiting("x") == []

    def test_fifo_prevents_queue_jumping(self):
        lm = LockManager(1)
        lm.acquire("T1", "x", LockMode.SHARED)
        lm.acquire("T2", "x", LockMode.EXCLUSIVE)  # queued
        # T3's shared request is compatible with T1 but must not jump T2
        assert not lm.acquire("T3", "x", LockMode.SHARED)

    def test_queued_abort_wakes_followers(self):
        """Lost-wakeup regression: a txn aborting while its ungranted
        request heads another item's queue must wake the waiters behind
        it — they were only blocked by FIFO fairness."""
        lm = LockManager(1)
        granted = []
        lm.acquire("T1", "x", LockMode.SHARED)
        lm.acquire("T2", "x", LockMode.EXCLUSIVE)  # queued at the head
        lm.acquire("T3", "x", LockMode.SHARED, on_grant=lambda: granted.append("T3"))
        lm.release_all("T2")  # T2 aborts while queued, holding nothing
        assert granted == ["T3"]
        assert lm.holder_modes("x") == {"T1": LockMode.SHARED, "T3": LockMode.SHARED}
        assert lm.waiting("x") == []

    def test_queued_abort_wakes_on_every_item(self):
        """The head request may sit on several items' queues at once."""
        lm = LockManager(1)
        granted = []
        for item in ("x", "y"):
            lm.acquire("H", item, LockMode.SHARED)
            lm.acquire("T2", item, LockMode.EXCLUSIVE)
            lm.acquire(
                "T3", item, LockMode.SHARED, on_grant=lambda item=item: granted.append(item)
            )
        lm.release_all("T2")
        assert granted == ["x", "y"]


class TestTableFootprint:
    """The vote hot path and the introspection reads must not grow the
    lock table: long sweeps probe thousands of distinct items."""

    def test_refused_try_acquire_allocates_no_entry(self):
        lm = LockManager(1)
        lm.acquire("T1", "x", LockMode.EXCLUSIVE)
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
            assert lm.waiting(item) == []
        assert len(lm._items) == 0

    def test_release_prunes_empty_entries(self):
        lm = LockManager(1)
        for i in range(20):
            assert lm.try_acquire("T1", f"i{i}", LockMode.EXCLUSIVE)
        assert len(lm._items) == 20
        lm.release_all("T1")
        assert len(lm._items) == 0

    def test_release_keeps_entries_with_waiters(self):
        lm = LockManager(1)
        lm.acquire("T1", "x", LockMode.EXCLUSIVE)
        lm.acquire("T2", "x", LockMode.EXCLUSIVE)  # queued
        lm.acquire("T3", "x", LockMode.EXCLUSIVE)  # queued behind T2
        lm.release_all("T1")  # wakes T2; T3 still waits — entry must stay
        assert lm.holder_modes("x") == {"T2": LockMode.EXCLUSIVE}
        assert [r.txn for r in lm.waiting("x")] == ["T3"]


class TestIntrospection:
    def test_is_locked_unrestricted(self):
        lm = LockManager(1)
        assert not lm.is_locked("x")
        lm.acquire("T1", "x", LockMode.SHARED)
        assert lm.is_locked("x")

    def test_is_locked_filtered_by_txn_set(self):
        lm = LockManager(1)
        lm.acquire("T1", "x", LockMode.EXCLUSIVE)
        assert lm.is_locked("x", {"T1"})
        assert not lm.is_locked("x", {"T9"})

    def test_waits_edges(self):
        lm = LockManager(1)
        lm.acquire("T1", "x", LockMode.EXCLUSIVE)
        lm.acquire("T2", "x", LockMode.EXCLUSIVE)
        assert lm.waits_edges() == [("T2", "T1")]


class TestDeadlock:
    def _cycle(self):
        lm1, lm2 = LockManager(1), LockManager(2)
        lm1.acquire("T1", "x", LockMode.EXCLUSIVE)
        lm2.acquire("T2", "y", LockMode.EXCLUSIVE)
        lm1.acquire("T2", "x", LockMode.EXCLUSIVE)  # T2 waits on T1
        lm2.acquire("T1", "y", LockMode.EXCLUSIVE)  # T1 waits on T2
        return [lm1, lm2]

    def test_detects_cross_site_cycle(self):
        cycle = find_deadlock(self._cycle())
        assert cycle is not None
        assert set(cycle) == {"T1", "T2"}

    def test_no_cycle_returns_none(self):
        lm = LockManager(1)
        lm.acquire("T1", "x", LockMode.EXCLUSIVE)
        lm.acquire("T2", "x", LockMode.EXCLUSIVE)
        assert find_deadlock([lm]) is None

    def test_victim_is_greatest(self):
        assert choose_victim(["T1", "T3", "T2"]) == "T3"

    def test_waits_for_graph_nodes(self):
        graph = build_waits_for(self._cycle())
        assert set(graph) == {"T1", "T2"}
        assert set(graph["T1"]) == {"T2"} and set(graph["T2"]) == {"T1"}


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
        if lm.waiting(item):  # FIFO fairness
            return False
        return all(mode.compatible_with(h) for h in holders.values())

    @given(st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_grant_decisions_identical(self, seed):
        rng = random.Random(seed)
        lm = LockManager(1)
        txns = [f"T{i}" for i in range(5)]
        items = ["x", "y", "z"]
        for _ in range(60):
            action = rng.randrange(3)
            txn = rng.choice(txns)
            item = rng.choice(items)
            mode = LockMode.EXCLUSIVE if rng.random() < 0.5 else LockMode.SHARED
            if action == 0:
                expected = self._expected_grant(lm, txn, item, mode)
                assert lm.acquire(txn, item, mode) == expected
            elif action == 1:
                expected = self._expected_grant(lm, txn, item, mode)
                queued = [r.txn for r in lm.waiting(item)]
                assert lm.try_acquire(txn, item, mode) == expected
                assert [r.txn for r in lm.waiting(item)] == queued  # never queues
            else:
                held = lm.held_by(txn)
                assert sorted(lm.release_all(txn)) == held
                assert lm.held_by(txn) == []
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
            elif rng.random() < 0.5:
                lm.acquire(txn, "hot", mode)
            else:
                lm.try_acquire(txn, "hot", mode)
            entry = lm._items.get("hot")
            if entry is not None:
                scanned = sum(
                    held is LockMode.EXCLUSIVE for held in entry.holders.values()
                )
                assert entry.exclusive == scanned
