"""WAL append-path performance.

The log answers the irrevocability check on every decision force, and
every per-transaction query, from per-transaction indexes — a log that
re-scanned its record list instead would be quadratic in run length
for heavy traffic.  The scenario baselines pin the WAL's counters
(``wal_forced`` / ``wal_flushes`` in every ``BENCH_*.json`` row); this
suite pins the shape of its time with noise-proof assertions.
"""

import time

import pytest

from repro.storage.wal import WriteAheadLog


def interleaved_append(n_txns: int = 400, applies: int = 3) -> WriteAheadLog:
    """Open many transactions, then decide them against a long log —
    the decision-scan worst case the indexes exist for."""
    wal = WriteAheadLog(1)
    for i in range(n_txns):
        wal.force(f"T{i}", "begin")
        wal.force(f"T{i}", "vote", vote="yes")
    for i in range(n_txns):
        for j in range(applies):
            wal.force(f"T{i}", "apply", item="x", value=j, version=j)
        wal.force(f"T{i}", "commit" if i % 3 else "abort")
    return wal


@pytest.mark.perf
def test_indexed_append_beats_legacy_scan():
    """The append path must not have the shape of a log that scans its
    records on every decision force."""
    best = {400: float("inf"), 1600: float("inf")}
    for _ in range(3):
        for n_txns in best:
            t0 = time.perf_counter()
            interleaved_append(n_txns)
            best[n_txns] = min(best[n_txns], time.perf_counter() - t0)
    ratio = best[1600] / best[400]
    # a scan per decision force would make 4x the transactions cost
    # ~16x; the indexed append must stay near 4x
    assert ratio < 8.0, f"WAL append looks superlinear: {ratio:.1f}x time for 4x the log"


@pytest.mark.perf
def test_decision_lookup_is_o1_under_load():
    wal = interleaved_append()
    t0 = time.perf_counter()
    for _ in range(20_000):
        assert wal.decision("T0") == "abort"
    elapsed = time.perf_counter() - t0
    # a reverse scan would walk ~2000 records per probe here; the
    # index answers 20k probes in well under a second anywhere.
    assert elapsed < 1.0, f"decision looks O(n) again: {elapsed:.2f}s for 20k probes"


@pytest.mark.perf
def test_group_commit_batches_flushes(benchmark):
    wal = benchmark.pedantic(interleaved_append, rounds=3, iterations=1)
    assert wal.flushes < wal.forced
    # one flush per vote (covering its begin) + one per decision
    # (covering its applies) = 2 per transaction
    assert wal.flushes == 800
