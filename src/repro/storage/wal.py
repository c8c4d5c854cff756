"""Write-ahead log.

The log is the only thing a site keeps across a crash.  Every protocol
step appends a record that must hit stable storage before the site
takes its next step — the classical "force-write" (Gray's notes [9],
Lampson & Sturgis [11]).

Record kinds used by the commit protocols:

=============  =====================================================
kind           meaning
=============  =====================================================
``begin``      site became a participant of txn (payload: writeset,
               participants, coordinator, the membership epoch whose
               catalog holds its quorums; ``role="coordinator"`` on
               the coordinator's own begin)
``vote``       site voted yes/no (payload: vote)
``pc``         site entered the PC (prepare-to-commit) state
``pa``         site entered the PA (prepare-to-abort) state
``commit``     site committed the transaction (irrevocable;
               ``role="coordinator"`` when the coordinator decided)
``abort``      site aborted the transaction (irrevocable; same role)
``apply``      a committed write was applied (payload: item, value,
               version) — replayed by recovery into the replica store
=============  =====================================================

**Rows by shape.**  A heavy run forces tens of thousands of records and
reads almost none of them back until a crash, so the log stores rows,
not records: three parallel columns (txn, kind, payload), where a row's
position is its LSN − 1.  The protocol appends through one typed call
per kind — :meth:`~WriteAheadLog.begin`, :meth:`~WriteAheadLog.vote`,
:meth:`~WriteAheadLog.pc`, :meth:`~WriteAheadLog.pa`,
:meth:`~WriteAheadLog.decide`, :meth:`~WriteAheadLog.apply` — and each
stores its payload in the kind's own shape: a begin keeps ``(role,
writes, participants, coordinator, epoch)``, a vote ``"yes"``/``"no"``, an
apply ``(item, value, version)``, a pc/pa/decision its role or None.
The generic :meth:`~WriteAheadLog.force` (tests and tools) stores its
keyword dict as-is.

A begin row keeps the engine's writeset mapping (item -> ``(value,
version)``) and its participant list *by reference*.  That is safe
because nothing mutates either once the commit starts.  Both belong to
the submitted transaction: :meth:`InteractiveTransaction.submit
<repro.db.transactions.InteractiveTransaction.submit>` builds them once,
its handle, the coordinator's round and begin row and the vote-req share
them, and a participant's record and begin row keep the vote-req's.  No
code path writes to a handle's, a round's or a record's writeset or
participant list afterwards.

**Views on read.**  A :class:`LogRecord` is built, and memoised, only
when something reads the row back: iteration, :meth:`for_txn` (crash
recovery), :meth:`last_protocol_record` or the return value of
:meth:`force`.  A view equals the record the row stands for field for
field — a begin's ``writes`` rendered as ``{item: [value, version]}``.
The per-transaction position index, the begin positions (crash recovery
reads begins in their stored shape through :meth:`begins`) and the
per-*item* newest-``apply`` index (:meth:`latest_applies`, so recovery
replays O(items touched); see :func:`~repro.storage.recovery.replay_data`)
are likewise built on the first read and extended by later ones over
the rows appended since — the containers too: the first read of a row
builds the three indexes and the first view builds the memo.  What the
protocol asks while it runs stays O(1) and is kept on append:
:meth:`decision` and :meth:`participant_decision` (the decision index is
also where irrevocability is enforced), whose two tables the first
logged decision builds, and the group-commit accounting.  Until its
first read or decision a log holds one shared, read-only empty mapping
(a ``MappingProxyType``) in each of those places, so readers take no
branch and a write that skips the first-use step raises instead of
reaching another site's log.  A site that never logs — most of a WAN
storm's — allocates its three columns and nothing else.

**Group commit.**  Stable-storage writes are modelled with a group-commit
buffer: ``begin`` and ``apply`` rows accumulate in the open batch, and a
single flush is charged when a row the protocol answers on (``vote``/
``pc``/``pa``/``commit``/``abort`` — all of which must hit stable storage
before the site replies to anyone) closes it.  :attr:`flushes` vs
:attr:`forced` exposes the batching to the benchmark harness.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

from repro.common.errors import StorageError

_VALID_KINDS = {"begin", "vote", "pc", "pa", "commit", "abort", "apply"}
_DECISION_KINDS = ("commit", "abort")
#: records a protocol step *answers on* — they must be on stable storage
#: before the site replies, so forcing one closes the group-commit batch.
#: ``begin`` and ``apply`` ride the batch: a begin is only acted on once
#: the vote it precedes is flushed, and applies are re-derivable from
#: the decision + writeset on recovery.
_FLUSH_KINDS = frozenset({"vote", "pc", "pa", "commit", "abort"})
#: the indexes of a log nothing has read or decided yet: shared by every
#: such log and read-only, so a write that skips the first-use step
#: raises instead of reaching another site's log
_NONE: Mapping[Any, Any] = MappingProxyType({})


class LogRecord(NamedTuple):
    """One durable log record, as read back (immutable: a tuple)."""

    lsn: int
    txn: str
    kind: str
    payload: dict[str, Any]


#: one begin row as recovery reads it: (txn, role, writes, participants,
#: coordinator, epoch), writes as item -> (value, version).
BeginRow = tuple[str, str | None, Mapping[str, tuple[Any, int]], list[int], int, int]


def _payload_view(kind: str, row: Any) -> dict[str, Any]:
    """The record payload a typed row stands for (a generic row's dict
    is its payload already)."""
    if type(row) is dict:
        return row
    if kind == "begin":
        role, writes, participants, coordinator, epoch = row
        body: dict[str, Any] = {"role": role} if role else {}
        body["writes"] = {item: list(pair) for item, pair in writes.items()}
        body["participants"] = participants
        body["coordinator"] = coordinator
        body["epoch"] = epoch
        return body
    if kind == "vote":
        return {"vote": row}
    if kind == "apply":
        item, value, version = row
        return {"item": item, "value": value, "version": version}
    return {"role": row} if row else {}  # pc / pa / commit / abort


class WriteAheadLog:
    """Append-only, crash-surviving log for one site."""

    def __init__(self, site: int) -> None:
        self.site = site
        # the rows, by shape: row i has LSN i + 1
        self._txns: list[str] = []
        self._kinds: list[str] = []
        self._payloads: list[Any] = []
        # decision indexes, kept on append from the first decision on:
        # any role, and participant role
        self._decisions: Mapping[str, str] = _NONE
        self._participant_decisions: Mapping[str, str] = _NONE
        # group-commit accounting: records in the open batch, and how
        # many stable-storage flushes have been charged so far.
        self._unflushed = 0
        self.flushes = 0
        # built by the first read (see _index / _view): rows indexed so
        # far, txn -> row positions, begin positions, item -> (version,
        # value) of the newest apply, memoised views
        self._indexed = 0
        self._by_txn: Mapping[str, list[int]] = _NONE
        self._begins: Sequence[int] = ()
        self._applies: Mapping[str, tuple[int, Any]] = _NONE
        self._views: Mapping[int, LogRecord] = _NONE

    @property
    def forced(self) -> int:
        """Total records appended (the deterministic bench counter)."""
        return len(self._kinds)

    # -- typed appends (the protocol's commit path) ----------------------------

    def begin(
        self,
        txn: str,
        writes: Mapping[str, tuple[Any, int]],
        participants: list[int],
        coordinator: int,
        epoch: int,
        role: str | None = None,
    ) -> None:
        """Log joining txn in membership ``epoch``; ``writes`` and
        ``participants`` are kept by reference (see the module
        docstring).  Rides the open batch."""
        self._txns.append(txn)
        self._kinds.append("begin")
        self._payloads.append((role, writes, participants, coordinator, epoch))
        self._unflushed += 1

    def vote(self, txn: str, yes: bool) -> None:
        """Log the site's vote; closes the open batch."""
        self._txns.append(txn)
        self._kinds.append("vote")
        self._payloads.append("yes" if yes else "no")
        self._unflushed = 0
        self.flushes += 1

    def pc(self, txn: str) -> None:
        """Log entering PC; closes the open batch."""
        self._txns.append(txn)
        self._kinds.append("pc")
        self._payloads.append(None)
        self._unflushed = 0
        self.flushes += 1

    def pa(self, txn: str) -> None:
        """Log entering PA; closes the open batch."""
        self._txns.append(txn)
        self._kinds.append("pa")
        self._payloads.append(None)
        self._unflushed = 0
        self.flushes += 1

    def decide(self, txn: str, outcome: str, role: str | None = None) -> None:
        """Log a ``"commit"``/``"abort"`` decision; closes the open batch.

        Raises:
            StorageError: see :meth:`force`.
        """
        if outcome not in _DECISION_KINDS:
            raise StorageError(f"unknown decision kind {outcome!r}")
        self._log_decision(txn, outcome, role)
        self._txns.append(txn)
        self._kinds.append(outcome)
        self._payloads.append(role)
        self._unflushed = 0
        self.flushes += 1

    def apply(self, txn: str, item: str, value: Any, version: int) -> None:
        """Log one applied committed write; rides the open batch."""
        self._txns.append(txn)
        self._kinds.append("apply")
        self._payloads.append((item, value, version))
        self._unflushed += 1

    def _log_decision(self, txn: str, outcome: str, role: str | None) -> None:
        if self._decisions is _NONE:  # the first decision builds the indexes
            self._decisions = {}
            self._participant_decisions = {}
        prior = self._decisions.setdefault(txn, outcome)
        if prior != outcome:
            raise StorageError(
                f"site {self.site}: txn {txn} already logged {prior}; cannot log {outcome}"
            )
        if role != "coordinator":
            self._participant_decisions[txn] = outcome

    # -- the generic entry (tests and tools) -----------------------------------

    def force(self, txn: str, kind: str, **payload: Any) -> LogRecord:
        """Append a record of any kind and (conceptually) force it to
        stable storage; returns its view.

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
        if kind in _DECISION_KINDS:
            self._log_decision(txn, kind, payload.get("role"))
        # the **payload kwargs dict is freshly built per call, so the
        # row can take ownership outright — no defensive re-copy.
        self._txns.append(txn)
        self._kinds.append(kind)
        self._payloads.append(payload)
        if kind in _FLUSH_KINDS:
            self._unflushed = 0
            self.flushes += 1
        else:
            self._unflushed += 1
        return self._view(len(self._kinds) - 1)

    def flush(self) -> int:
        """Close the open group-commit batch; returns its record count.

        A no-op (and no flush charged) when nothing is buffered.
        """
        batch = self._unflushed
        if batch:
            self.flushes += 1
            self._unflushed = 0
        return batch

    # -- reads ------------------------------------------------------------------

    def _view(self, pos: int) -> LogRecord:
        """The memoised record of row ``pos``."""
        view = self._views.get(pos)
        if view is None:
            if self._views is _NONE:  # the first view builds the memo
                self._views = {}
            kind = self._kinds[pos]
            payload = _payload_view(kind, self._payloads[pos])
            view = self._views[pos] = LogRecord(pos + 1, self._txns[pos], kind, payload)
        return view

    def _index(self) -> Mapping[str, list[int]]:
        """Extend the read-side indexes over the rows appended since the
        last read; returns txn -> row positions."""
        end = len(self._kinds)
        if self._indexed == end:
            return self._by_txn
        if self._by_txn is _NONE:  # the first read of a row builds the indexes
            self._by_txn, self._begins, self._applies = {}, [], {}
        by_txn = self._by_txn
        for pos in range(self._indexed, end):
            txn, kind = self._txns[pos], self._kinds[pos]
            bucket = by_txn.get(txn)
            if bucket is None:
                by_txn[txn] = [pos]
            else:
                bucket.append(pos)
            if kind == "begin":
                self._begins.append(pos)
            elif kind == "apply":
                row = self._payloads[pos]
                if type(row) is dict:
                    # synthetic tests may force bare applies; only
                    # well-formed records enter the recovery index
                    if "item" not in row:
                        continue
                    item, value, version = row["item"], row.get("value"), row.get("version", 0)
                else:
                    item, value, version = row
                prior = self._applies.get(item)
                if prior is None or version > prior[0]:
                    self._applies[item] = (version, value)
        self._indexed = end
        return by_txn

    def __len__(self) -> int:
        return len(self._kinds)

    def __iter__(self) -> Iterator[LogRecord]:
        view = self._view
        return (view(pos) for pos in range(len(self._kinds)))

    def for_txn(self, txn: str) -> list[LogRecord]:
        """All records for one transaction, in LSN order."""
        view = self._view
        return [view(pos) for pos in self._index().get(txn, ())]

    def holds(self, txn: str) -> bool:
        """Has this site logged anything for ``txn``?  A scan of the
        rows' txn column: no index is built and no record viewed."""
        return txn in self._txns

    def decision(self, txn: str) -> str | None:
        """The logged decision ("commit"/"abort") for txn, if any, in
        either role."""
        return self._decisions.get(txn)

    def participant_decision(self, txn: str) -> str | None:
        """The decision this site logged *as a participant* — not the
        coordinator-role row a coordinator forces before its own
        participant half hears the command."""
        return self._participant_decisions.get(txn)

    def latest_applies(self) -> dict[str, tuple[int, Any]]:
        """Newest ``apply`` per item: ``item -> (version, value)``.

        The recovery index: :func:`~repro.storage.recovery.replay_data`
        re-installs at most one version per item from this map instead
        of scanning every log record.  The returned dict is the live
        index, current as of this call; treat it as read-only.
        """
        self._index()
        return self._applies

    def last_protocol_record(self, txn: str) -> LogRecord | None:
        """The most recent non-``apply`` record for txn, in either role
        (crash recovery anchors a participant on its own records only;
        see :func:`~repro.storage.recovery.recover_protocol_states`)."""
        kinds = self._kinds
        for pos in reversed(self._index().get(txn, ())):
            if kinds[pos] != "apply":
                return self._view(pos)
        return None

    def open_txns(self) -> list[str]:
        """Transactions with a ``begin`` but no decision, in first-seen order."""
        self._index()
        begun = dict.fromkeys(self._txns[pos] for pos in self._begins)
        return [t for t in begun if t not in self._decisions]

    def begins(self) -> list[BeginRow]:
        """Every ``begin`` row in LSN order, as recovery reads it:
        ``(txn, role, writes, participants, coordinator, epoch)`` with
        writes as item -> ``(value, version)``."""
        self._index()
        rows: list[BeginRow] = []
        for pos in self._begins:
            row = self._payloads[pos]
            if type(row) is dict:  # a generic begin: writes were given as lists
                writes = {item: (pair[0], pair[1]) for item, pair in row.get("writes", {}).items()}
                row = (row.get("role"), writes, row.get("participants", []),
                       row.get("coordinator"), row.get("epoch", 0))
            rows.append((self._txns[pos], *row))
        return rows
