"""Crash-recovery replay cost.

``replay_data`` rides the WAL's per-item newest-``apply`` index, so a
recovery costs O(items touched), not O(len(wal)) — and it is paid on
every ``recover_site`` event of a storm.
``tests/property/test_prop_bench.py`` holds the replay against an
LSN-order scan on logs harvested from a heavy E18 run at 1x and 4x
length; here the assertion pins the *shape* of its cost, counted rather
than timed: on a log four times as long the replay examines the same
items, once each, and a replay of an unchanged log indexes no row again.
"""

import pytest

from repro.storage.recovery import replay_data
from repro.storage.store import ReplicaStore
from repro.storage.wal import WriteAheadLog

N_ITEMS = 16


def _apply_heavy_wal(n_txns: int, n_items: int = N_ITEMS, versions: int = 4) -> WriteAheadLog:
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


class _CountingStore(ReplicaStore):
    """A store that notes every item the replay asks it about."""

    def __init__(self, site: int) -> None:
        super().__init__(site)
        self.examined: list[str] = []

    def hosts(self, item: str) -> bool:
        self.examined.append(item)
        return super().hosts(item)


def _fresh_store(wal: WriteAheadLog) -> _CountingStore:
    store = _CountingStore(1)
    for record in wal:
        if record.kind == "apply" and not store.hosts(record.payload["item"]):
            store.host(record.payload["item"], value=0, version=0)
    store.examined.clear()
    return store


def _replay_cost(wal: WriteAheadLog) -> tuple[list[str], int, int]:
    """The items a replay examines, and the log rows the first and a
    second replay of the unchanged log index."""
    store = _fresh_store(wal)
    before = wal._indexed
    replay_data(wal, store)
    first = wal._indexed - before
    replay_data(wal, _fresh_store(wal))
    return store.examined, first, wal._indexed - before - first


@pytest.mark.perf
def test_indexed_replay_sublinear_in_wal_length():
    short, long = _apply_heavy_wal(300), _apply_heavy_wal(1200)
    assert len(long) == 4 * len(short)
    examined = {}
    for name, wal in (("short", short), ("long", long)):
        items, first, again = _replay_cost(wal)
        # a record-by-record replay would examine each of the log's
        # 4-per-txn applies; the index names each touched item once
        assert sorted(items) == sorted({f"i{k}" for k in range(N_ITEMS)}), name
        assert (first, again) == (len(wal), 0), name  # every row indexed once
        examined[name] = items
    assert examined["short"] == examined["long"]
