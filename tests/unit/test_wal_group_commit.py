"""Unit tests for the WAL group-commit buffer and per-txn indexes.

The indexes must be invisible: every query (``decision``, ``for_txn``,
``open_txns``, ``last_protocol_record``) answers exactly as a linear
scan over the record list does, and the irrevocability guard still
fires.  The flush accounting is the group-commit model — a record the
protocol answers on closes the open batch, so flushes <= forced.
"""

import random

import pytest

from repro.common.errors import StorageError
from repro.storage.wal import _FLUSH_KINDS, WriteAheadLog


def random_sequence(seed, n_txns=12, n_ops=120):
    """A WAL-legal force sequence: begin before anything, one decision."""
    rng = random.Random(seed)
    ops = []
    live = []
    decided = set()
    for i in range(n_txns):
        ops.append((f"T{i}", "begin"))
        live.append(f"T{i}")
    for _ in range(n_ops):
        txn = rng.choice(live)
        if txn in decided:
            kind = rng.choice(["apply"])  # post-decision applies are legal
        else:
            kind = rng.choice(["vote", "pc", "pa", "apply", "commit", "abort"])
            if kind in ("commit", "abort"):
                decided.add(txn)
        ops.append((txn, kind))
    return ops


def replay(ops):
    wal = WriteAheadLog(7)
    for txn, kind in ops:
        wal.force(txn, kind)
    return wal


def scan_decision(records, txn):
    """Reference: newest decision record for txn, by reverse scan."""
    for record in reversed(records):
        if record.txn == txn and record.kind in ("commit", "abort"):
            return record.kind
    return None


def scan_last_protocol_record(records, txn):
    """Reference: newest non-apply record for txn, by reverse scan."""
    for record in reversed(records):
        if record.txn == txn and record.kind != "apply":
            return record
    return None


def scan_open_txns(records):
    """Reference: begun-but-undecided txns in first-seen order."""
    seen = []
    decided = set()
    for record in records:
        if record.kind == "begin" and record.txn not in seen:
            seen.append(record.txn)
        elif record.kind in ("commit", "abort"):
            decided.add(record.txn)
    return [t for t in seen if t not in decided]


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_queries_match_legacy(self, seed):
        """Indexed answers vs a linear scan over ``list(wal)``."""
        ops = random_sequence(seed)
        wal = replay(ops)
        records = list(wal)
        assert [(r.lsn, r.txn, r.kind) for r in records] == [
            (lsn, txn, kind) for lsn, (txn, kind) in enumerate(ops, start=1)
        ]
        # every _FLUSH_KINDS record closes the batch it joins, which is
        # therefore never empty: one flush per such record, no others
        assert wal.flushes == sum(1 for _txn, kind in ops if kind in _FLUSH_KINDS)
        assert wal.open_txns() == scan_open_txns(records)
        txns = {txn for txn, _ in ops}
        for txn in sorted(txns) + ["T-missing"]:
            assert wal.decision(txn) == scan_decision(records, txn)
            assert wal.for_txn(txn) == [r for r in records if r.txn == txn]
            assert wal.last_protocol_record(txn) == scan_last_protocol_record(records, txn)

    def test_conflicting_decision_rejected_in_both_modes(self):
        # both decision kinds are irrevocable, whichever was logged first
        for first, second in (("commit", "abort"), ("abort", "commit")):
            wal = WriteAheadLog(1)
            wal.force("T1", "begin")
            wal.force("T1", first)
            with pytest.raises(StorageError, match=f"already logged {first}"):
                wal.force("T1", second)
            wal.force("T1", first)  # same decision again is legal

    def test_unknown_kind_rejected(self):
        wal = WriteAheadLog(1)
        with pytest.raises(StorageError, match="unknown log record kind"):
            wal.force("T1", "checkpoint")


class TestGroupCommitAccounting:
    def test_protocol_answer_records_close_the_batch(self):
        """vote/pc/pa/commit/abort must be durable before the site
        replies, so each closes the open batch; begin and apply ride."""
        wal = WriteAheadLog(1)
        wal.force("T1", "begin")
        assert wal.flushes == 0  # begin rides the batch
        wal.force("T1", "vote", vote="yes")
        assert wal.flushes == 1  # vote answers the coordinator: flush
        wal.force("T1", "pc")
        assert wal.flushes == 2  # ack-gating record: flush
        wal.force("T1", "apply", item="x", value=1, version=1)
        wal.force("T1", "apply", item="y", value=2, version=1)
        assert wal.flushes == 2  # applies ride
        wal.force("T1", "commit")
        assert wal.flushes == 3  # decision closes the applies' batch
        assert wal.forced == 6

    def test_explicit_flush_and_noop(self):
        wal = WriteAheadLog(1)
        assert wal.flush() == 0
        assert wal.flushes == 0
        wal.force("T1", "begin")
        assert wal.flush() == 1
        assert wal.flushes == 1
        assert wal.flush() == 0
        assert wal.flushes == 1

    def test_grouped_flushes_never_exceed_forced(self):
        ops = random_sequence(3)
        grouped = replay(ops)
        grouped.flush()
        assert 0 < grouped.flushes <= grouped.forced
        # with multi-record transactions, batching must actually batch
        assert grouped.flushes < grouped.forced
