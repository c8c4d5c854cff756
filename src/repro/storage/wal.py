"""Write-ahead log.

The log is the only thing a site keeps across a crash.  Records are
appended with :meth:`WriteAheadLog.force` — named after the classical
"force-write" that must hit stable storage before the protocol takes
its next step (Gray's notes [9], Lampson & Sturgis [11]).

Record kinds used by the commit protocols:

=============  =====================================================
kind           meaning
=============  =====================================================
``begin``      site became a participant of txn (payload: writeset)
``vote``       site voted yes/no (payload: vote)
``pc``         site entered the PC (prepare-to-commit) state
``pa``         site entered the PA (prepare-to-abort) state
``commit``     site committed the transaction (irrevocable)
``abort``      site aborted the transaction (irrevocable)
``apply``      a committed write was applied (payload: item, value,
               version) — replayed by recovery into the replica store
=============  =====================================================

Hot-path notes: heavy-traffic runs append thousands of records per
site, and the commit protocols interrogate the log constantly
(``decision`` on every decision force and throughout termination,
``for_txn`` per in-doubt transaction per connectivity change).  The
log therefore keeps per-transaction indexes — ``decision`` and
``for_txn`` are O(1)/O(k) instead of a full reverse scan — plus a
per-*item* newest-``apply`` index (:meth:`WriteAheadLog.latest_applies`)
so crash recovery replays O(items touched) instead of rescanning the
whole log (see :func:`~repro.storage.recovery.replay_data`) — and
models stable-storage writes with a *group-commit buffer*: ``begin`` and
``apply`` records accumulate in the open batch, and a single flush is
charged when a record the protocol answers on (``vote``/``pc``/``pa``/
``commit``/``abort`` — all of which must hit stable storage before the
site replies to anyone) closes it.  :attr:`flushes` vs :attr:`forced` exposes
the batching to the benchmark harness.
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple

from repro.common.errors import StorageError

_VALID_KINDS = {"begin", "vote", "pc", "pa", "commit", "abort", "apply"}
_DECISION_KINDS = ("commit", "abort")
#: records a protocol step *answers on* — they must be on stable storage
#: before the site replies, so forcing one closes the group-commit batch.
#: ``begin`` and ``apply`` ride the batch: a begin is only acted on once
#: the vote it precedes is flushed, and applies are re-derivable from
#: the decision + writeset on recovery.
_FLUSH_KINDS = frozenset({"vote", "pc", "pa", "commit", "abort"})


class LogRecord(NamedTuple):
    """One durable log record (immutable: a tuple, built in one C call —
    a frozen dataclass pays an ``object.__setattr__`` per field on every
    ``force``)."""

    lsn: int
    txn: str
    kind: str
    payload: dict[str, Any]

    def __str__(self) -> str:
        body = f" {self.payload}" if self.payload else ""
        return f"[{self.lsn}] {self.txn} {self.kind}{body}"


class WriteAheadLog:
    """Append-only, crash-surviving log for one site."""

    def __init__(self, site: int) -> None:
        self.site = site
        self._records: list[LogRecord] = []
        self._next_lsn = 1
        # per-txn indexes
        self._by_txn: dict[str, list[LogRecord]] = {}
        self._decisions: dict[str, str] = {}
        self._begin_order: list[str] = []
        self._has_begin: set[str] = set()
        # item -> (version, value) of the newest apply record, so
        # recovery replays per item touched, not per log record.
        self._applies: dict[str, tuple[int, Any]] = {}
        # group-commit accounting: records in the open batch, and how
        # many stable-storage flushes have been charged so far.
        self._unflushed = 0
        self.flushes = 0

    @property
    def forced(self) -> int:
        """Total records appended (the deterministic bench counter)."""
        return len(self._records)

    def force(self, txn: str, kind: str, **payload: Any) -> LogRecord:
        """Append a record and (conceptually) force it to stable storage.

        The append joins the open batch; any record the protocol
        replies on (vote/pc/pa/commit/abort) closes the batch with a
        single flush covering everything buffered before it — the
        classical group commit, which preserves the paper's durability
        discipline while batching begins and applies behind the next
        protocol answer.

        Raises:
            StorageError: on an unknown record kind, or on an attempt to
                log a second, different decision for the same transaction
                — decisions are irrevocable (paper §1), and the log is
                where that irrevocability lives.
        """
        if kind not in _VALID_KINDS:
            raise StorageError(f"unknown log record kind {kind!r}")
        is_decision = kind in _DECISION_KINDS
        if is_decision:
            prior = self._decisions.get(txn)
            if prior is not None and prior != kind:
                raise StorageError(
                    f"site {self.site}: txn {txn} already logged {prior}; "
                    f"cannot log {kind}"
                )
        # the **payload kwargs dict is freshly built per call, so the
        # record can take ownership outright — no defensive re-copy.
        record = LogRecord(self._next_lsn, txn, kind, payload)
        self._next_lsn += 1
        self._records.append(record)
        bucket = self._by_txn.get(txn)
        if bucket is None:
            bucket = self._by_txn[txn] = []
        bucket.append(record)
        if kind == "begin" and txn not in self._has_begin:
            self._has_begin.add(txn)
            self._begin_order.append(txn)
        self._unflushed += 1
        if is_decision and txn not in self._decisions:
            self._decisions[txn] = kind
        elif kind == "apply" and "item" in record.payload:
            # synthetic tests may force bare applies; only well-formed
            # records (the protocol always writes item/value/version)
            # enter the recovery index
            item = record.payload["item"]
            version = record.payload.get("version", 0)
            prior = self._applies.get(item)
            if prior is None or version > prior[0]:
                self._applies[item] = (version, record.payload.get("value"))
        if kind in _FLUSH_KINDS:
            self.flush()
        return record

    def flush(self) -> int:
        """Close the open group-commit batch; returns its record count.

        A no-op (and no flush charged) when nothing is buffered.
        """
        batch = self._unflushed
        if batch:
            self.flushes += 1
            self._unflushed = 0
        return batch

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def for_txn(self, txn: str) -> list[LogRecord]:
        """All records for one transaction, in LSN order."""
        return list(self._by_txn.get(txn, ()))

    def decision(self, txn: str) -> str | None:
        """The logged decision ("commit"/"abort") for txn, if any."""
        return self._decisions.get(txn)

    def latest_applies(self) -> dict[str, tuple[int, Any]]:
        """Newest ``apply`` per item: ``item -> (version, value)``.

        The recovery index: :func:`~repro.storage.recovery.replay_data`
        re-installs at most one version per item from this map instead
        of scanning every log record.  The returned dict is the live
        index; treat it as read-only.
        """
        return self._applies

    def last_protocol_record(self, txn: str) -> LogRecord | None:
        """The most recent non-``apply`` record for txn (recovery anchor)."""
        for record in reversed(self._by_txn.get(txn, ())):
            if record.kind != "apply":
                return record
        return None

    def open_txns(self) -> list[str]:
        """Transactions with a ``begin`` but no decision, in first-seen order."""
        decided = self._decisions
        return [t for t in self._begin_order if t not in decided]
