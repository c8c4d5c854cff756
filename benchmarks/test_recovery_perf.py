"""Crash-recovery replay performance.

``replay_data`` rides the WAL's per-item newest-``apply`` index, so a
recovery costs O(items touched), not O(len(wal)) — and it is paid on
every ``recover_site`` event of a storm.
``tests/property/test_prop_bench.py`` holds the replay against an
LSN-order scan on logs harvested from a heavy E18 run at 1x and 4x
length; here the assertion pins the *shape* of its time with a
noise-proof bound: the replay is sublinear in log length — quadrupling
the log must come nowhere near quadrupling the replay time, because the
index holds the same per-item map either way.
"""

import time

import pytest

from repro.storage.recovery import replay_data
from repro.storage.store import ReplicaStore
from repro.storage.wal import WriteAheadLog


def _apply_heavy_wal(n_txns: int, n_items: int = 16, versions: int = 4) -> WriteAheadLog:
    """A commit-heavy log: every txn walks its item up a version ladder."""
    wal = WriteAheadLog(1)
    for t in range(n_txns):
        txn = f"T{t}"
        item = f"i{t % n_items}"
        wal.force(txn, "begin")
        wal.force(txn, "vote", vote="yes")
        for v in range(versions):
            wal.force(txn, "apply", item=item, value=t * 10 + v, version=t * versions + v + 1)
        wal.force(txn, "commit")
    return wal


def _fresh_store(wal: WriteAheadLog) -> ReplicaStore:
    store = ReplicaStore(1)
    for record in wal:
        if record.kind == "apply" and not store.hosts(record.payload["item"]):
            store.host(record.payload["item"], value=0, version=0)
    return store


def _best_replay(wal: WriteAheadLog, rounds: int = 20) -> float:
    best = float("inf")
    for _ in range(rounds):
        store = _fresh_store(wal)
        t0 = time.perf_counter()
        replay_data(wal, store)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.perf
def test_indexed_replay_sublinear_in_wal_length():
    short = _apply_heavy_wal(300)
    long = _apply_heavy_wal(1200)
    ratio = _best_replay(long) / _best_replay(short)
    # both logs touch the same 16 items, so the replay does the same
    # work on either; a record-by-record replay would walk 4x the
    # records.  Demand a clear separation from 4x rather than an exact
    # constant (timers are noisy at µs).
    assert ratio < 2.5, f"replay grows with the log: {ratio:.2f}x over a 4x log"
