"""Lock-release performance.

Every decision releases the transaction's locks at each participant.
The lock manager indexes its table by transaction, so a release
visits the items that transaction holds or waits on — a manager that
scanned its whole table instead would make each release cost as much
as every lock held at the site by anyone.  The scenario baselines pin
the lock grants (every ``BENCH_*.json`` row); this suite pins the
shape of the release's time with a noise-proof ratio.
"""

import time

import pytest

from repro.concurrency.locks import LockManager, LockMode


def release_cost(unrelated: int, rounds: int = 2000) -> float:
    """Seconds per lock-two-items-and-release, with ``unrelated`` other
    items locked at the site by other transactions the whole time."""
    manager = LockManager(1)
    for i in range(unrelated):
        assert manager.try_acquire(f"other{i}", f"busy{i}", LockMode.EXCLUSIVE)
    t0 = time.perf_counter()
    for r in range(rounds):
        txn = f"T{r}"
        manager.try_acquire(txn, "x", LockMode.EXCLUSIVE)
        manager.try_acquire(txn, "y", LockMode.SHARED)
        manager.release_all(txn)
    return (time.perf_counter() - t0) / rounds


@pytest.mark.perf
def test_release_cost_ignores_unrelated_locks():
    """Releasing 2 items costs about the same beside 10 or 2 000 other
    locked items: the release is O(the transaction's items)."""
    best = {10: float("inf"), 2000: float("inf")}
    for _ in range(5):
        for unrelated in best:
            best[unrelated] = min(best[unrelated], release_cost(unrelated))
    ratio = best[2000] / best[10]
    # a table scan per release would make the 2 000-item site ~200x
    # slower than the 10-item one; the indexed release stays flat
    assert ratio < 3.0, f"release_all looks O(table): {ratio:.1f}x time for 200x the table"
