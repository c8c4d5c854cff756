"""Structured simulation trace — the flight recorder.

Every interesting action (message send/drop/delivery, state transition,
quorum evaluation, decision, crash, election) is appended to a
:class:`Tracer` as a :class:`TraceRecord`.  The analysis layer, the
tests and the experiment harness all *read the trace* rather than
poking protocol internals, which keeps the protocols honest: a claim
like "no partition aborted after a commit quorum formed" is checked
against the recorded history of the run.

Hot-path notes: the tracer sits on every delivered message, so the
store is **columnar** — parallel arrays for time / site / category /
txn plus a compact per-category detail encoding.  An append is five
``list.append`` calls and no object construction; :class:`TraceRecord`
views are materialized lazily (and memoized) only when somebody
iterates or filters.  The compact ``send`` / ``deliver`` / ``drop``
details are **shared**: one tuple per distinct ``(mtype, peer)`` (per
``(mtype, peer, reason)`` for drops) is built on first sight and
appended by reference afterwards, so a repeated send/deliver/drop
append allocates nothing the cyclic collector tracks — a storm leaves
a few dozen detail tuples behind, not one per message.  On an unbounded
tracer :meth:`Tracer.record_send` / :meth:`~Tracer.record_deliver` /
:meth:`~Tracer.record_drop` do those five appends in place — one call
per message row; only a tracer with a ``capacity`` routes them through
``_append``, where the truncate / ring branch lives (the generic
:meth:`Tracer.record` always goes that way).  Per-category
and per-txn row indexes are built
lazily on the first query and extended incrementally, so :meth:`where`
/ :meth:`count` / :meth:`decisions` / :meth:`message_counts` touch O(k)
matching rows instead of scanning all O(n).

A reader that follows the run as it goes — the open-loop service
retiring decided transactions at each arrival — uses the cursor read
:meth:`Tracer.since` instead of a query: it keeps a position, gets the
``(time, site, txn)`` of one category's records appended after it, and
pays O(new rows) with no index and no :class:`TraceRecord` built.  A
position counts records ever stored, so it survives ring eviction:
what a ring evicted before the reader came back is skipped, never
replayed, and a ring must hold at least what is appended between two
reads for its reader to see every record.

``capacity`` bounds memory two ways: the default (truncate) mode drops
*new* records once full, while ``ring=True`` keeps the *last*
``capacity`` records instead, evicting the oldest; either way
:attr:`dropped` counts what was discarded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped event in a run.

    Attributes:
        time: virtual time the event occurred.
        site: site id the event is attributed to (-1 for global events
            such as partition changes).
        category: machine-readable kind, e.g. ``"state"``, ``"send"``,
            ``"drop"``, ``"deliver"``, ``"decision"``, ``"election"``,
            ``"crash"``, ``"recover"``, ``"partition"``, ``"quorum"``.
        txn: transaction id the event concerns ("" when not txn-scoped).
        detail: free-form payload (kept to plain dict/str/num values so
            traces can be serialized).
    """

    time: float
    site: int
    category: str
    txn: str = ""
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = [f"t={self.time:8.2f}", f"site={self.site:>3}", self.category]
        if self.txn:
            parts.append(self.txn)
        if self.detail:
            parts.append(str(self.detail))
        return "  ".join(parts)


def _expand_detail(category: str, detail: Any) -> dict[str, Any]:
    """Materialize a compact detail column entry into the dict form.

    Compact entries are tuples whose layout is fixed per category (the
    key order matches the equivalent ``record(...)`` keyword order, so
    ``str(record)`` and :meth:`Tracer.dump` render a fast-path append
    exactly like a generic one):

    * ``send``    -> ``(mtype, dst)``
    * ``deliver`` -> ``(mtype, src)``
    * ``drop``    -> ``(mtype, dst, reason)``
    """
    if type(detail) is not tuple:
        return detail
    if category == "send":
        return {"mtype": detail[0], "dst": detail[1]}
    if category == "deliver":
        return {"mtype": detail[0], "src": detail[1]}
    if category == "drop":
        return {"mtype": detail[0], "dst": detail[1], "reason": detail[2]}
    raise AssertionError(f"compact detail under unexpected category {category!r}")


def _share(table: dict[str, dict[int, tuple]], mtype: str, peer: int, *reason: str) -> tuple:
    """First sight of a compact detail: build its tuple and keep it in
    ``table`` (``mtype -> peer -> tuple``) for every later record."""
    detail = table.setdefault(mtype, {})[peer] = (mtype, peer, *reason)
    return detail


class Tracer:
    """Append-only trace with query helpers.

    The helpers cover the questions the analysis layer asks most:
    "all decision records for txn", "did site s ever enter state PC",
    "how many messages of type m were sent".

    Args:
        capacity: record budget (``None`` = unbounded, ``0`` = record
            nothing).
        ring: with a capacity, keep the *newest* ``capacity`` records
            (a flight recorder for long runs) instead of dropping new
            ones once full.
    """

    def __init__(self, capacity: int | None = None, ring: bool = False) -> None:
        if ring and capacity is None:
            raise ValueError("ring mode requires a capacity")
        self._capacity = capacity
        self._ring = ring
        self._dropped = 0
        # shared compact details (see the module docstring):
        # mtype -> peer -> (mtype, peer) for send and deliver records,
        # reason -> mtype -> peer -> (mtype, peer, reason) for drops.
        # Engines build a fresh f"{family}.{kind}" string per message;
        # a shared tuple keeps the one it was first seen with.
        self._pairs: dict[str, dict[int, tuple[str, int]]] = {}
        self._drops: dict[str, dict[str, dict[int, tuple[str, int, str]]]] = {}
        # parallel columns; one logical record = one row across all five
        self._times: list[float] = []
        self._sites: list[int] = []
        self._cats: list[str] = []
        self._txns: list[str] = []
        self._details: list[Any] = []
        self._memo: dict[int, TraceRecord] = {}  # row -> materialized view
        self._by_cat: dict[str, list[int]] = {}
        self._by_txn: dict[str, list[int]] = {}
        self._indexed_upto = 0
        self._next = 0  # ring write slot
        self._full = False  # ring wrapped at least once

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------

    def record(
        self,
        time: float,
        site: int,
        category: str,
        txn: str = "",
        **detail: Any,
    ) -> None:
        """Append one record (past ``capacity``: drop it, or the oldest)."""
        self._append(time, site, category, txn, detail)

    def record_send(self, time: float, site: int, txn: str, mtype: str, dst: int) -> None:
        """Fast-path append of a ``send`` record (no detail dict built)."""
        try:
            detail = self._pairs[mtype][dst]
        except KeyError:
            detail = _share(self._pairs, mtype, dst)
        if self._capacity is not None:
            self._append(time, site, "send", txn, detail)
            return
        self._times.append(time)
        self._sites.append(site)
        self._cats.append("send")
        self._txns.append(txn)
        self._details.append(detail)

    def record_deliver(self, time: float, site: int, txn: str, mtype: str, src: int) -> None:
        """Fast-path append of a ``deliver`` record."""
        try:
            detail = self._pairs[mtype][src]
        except KeyError:
            detail = _share(self._pairs, mtype, src)
        if self._capacity is not None:
            self._append(time, site, "deliver", txn, detail)
            return
        self._times.append(time)
        self._sites.append(site)
        self._cats.append("deliver")
        self._txns.append(txn)
        self._details.append(detail)

    def record_drop(
        self, time: float, site: int, txn: str, mtype: str, dst: int, reason: str
    ) -> None:
        """Fast-path append of a ``drop`` record (with its reason)."""
        try:
            detail = self._drops[reason][mtype][dst]
        except KeyError:
            detail = _share(self._drops.setdefault(reason, {}), mtype, dst, reason)
        if self._capacity is not None:
            self._append(time, site, "drop", txn, detail)
            return
        self._times.append(time)
        self._sites.append(site)
        self._cats.append("drop")
        self._txns.append(txn)
        self._details.append(detail)

    def _append(self, time: float, site: int, category: str, txn: str, detail: Any) -> None:
        cap = self._capacity
        if cap is not None and len(self._times) >= cap:
            if not self._ring or cap == 0:
                self._dropped += 1
                return
            # ring eviction: overwrite the oldest slot in place
            slot = self._next
            self._times[slot] = time
            self._sites[slot] = site
            self._cats[slot] = category
            self._txns[slot] = txn
            self._details[slot] = detail
            self._next = (slot + 1) % cap
            self._full = True
            self._dropped += 1
            self._memo.clear()  # row numbering shifted; views are stale
            self._indexed_upto = -1  # force index rebuild on next query
            return
        self._times.append(time)
        self._sites.append(site)
        self._cats.append(category)
        self._txns.append(txn)
        self._details.append(detail)

    # ------------------------------------------------------------------
    # row plumbing
    # ------------------------------------------------------------------

    def _slot(self, row: int) -> int:
        """Physical slot of logical ``row`` (identity until a ring wraps)."""
        if self._full:
            return (self._next + row) % self._capacity  # type: ignore[operator]
        return row

    def _row_slots(self, rows: Iterable[int]) -> Iterable[tuple[int, int]]:
        """``(row, physical slot)`` for each logical row of ``rows``.

        The two coincide until a ring wraps, so the bulk readers below
        pay no :meth:`_slot` call per row on an unwrapped trace.
        """
        if self._full:
            return zip(rows, map(self._slot, rows))
        return zip(rows, rows)

    def _rec(self, row: int) -> TraceRecord:
        """The (memoized) materialized view of logical row ``row``."""
        rec = self._memo.get(row)
        if rec is None:
            slot = self._slot(row) if self._full else row
            cat = self._cats[slot]
            rec = TraceRecord(
                self._times[slot],
                self._sites[slot],
                cat,
                self._txns[slot],
                _expand_detail(cat, self._details[slot]),
            )
            self._memo[row] = rec
        return rec

    def _ensure_index(self) -> None:
        """Build / extend the per-category and per-txn row indexes.

        Index maintenance is *off* the append hot path: rows appended
        since the last query are folded in here, so a run that never
        queries never pays.  A wrapped ring rebuilds wholesale (bounded
        by ``capacity``).
        """
        n = len(self._times)
        upto = self._indexed_upto
        if upto == n:
            return
        if upto < 0 or self._full:  # ring wrapped: renumber everything
            self._by_cat = {}
            self._by_txn = {}
            upto = 0
        by_cat = self._by_cat
        by_txn = self._by_txn
        cats = self._cats
        txns = self._txns
        for row, slot in self._row_slots(range(upto, n)):
            cat = cats[slot]
            rows = by_cat.get(cat)
            if rows is None:
                rows = by_cat[cat] = []
            rows.append(row)
            txn = txns[slot]
            rows = by_txn.get(txn)
            if rows is None:
                rows = by_txn[txn] = []
            rows.append(row)
        self._indexed_upto = n

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        return (self._rec(row) for row in range(len(self._times)))

    @property
    def records(self) -> list[TraceRecord]:
        """Materialized record list, in append order (do not mutate)."""
        return [self._rec(row) for row in range(len(self._times))]

    @property
    def dropped(self) -> int:
        """Records discarded: refused past capacity, or evicted (ring)."""
        return self._dropped

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def where(
        self,
        category: str | None = None,
        site: int | None = None,
        txn: str | None = None,
        pred: Callable[[TraceRecord], bool] | None = None,
    ) -> list[TraceRecord]:
        """Filter records by category / site / txn and an optional predicate."""
        rows = self._candidate_rows(category, txn)
        cats = self._cats
        sites = self._sites
        txns = self._txns
        out = []
        for row, slot in self._row_slots(rows):
            if category is not None and cats[slot] != category:
                continue
            if site is not None and sites[slot] != site:
                continue
            if txn is not None and txns[slot] != txn:
                continue
            rec = self._rec(row)
            if pred is not None and not pred(rec):
                continue
            out.append(rec)
        return out

    def _candidate_rows(self, category: str | None, txn: str | None) -> Iterable[int]:
        """The narrowest indexed row list covering the filters, in order."""
        if category is None and txn is None:
            return range(len(self._times))
        self._ensure_index()
        by_cat = self._by_cat.get(category) if category is not None else None
        by_txn = self._by_txn.get(txn) if txn is not None else None
        if category is not None and txn is not None:
            if by_cat is None or by_txn is None:
                return ()
            return by_cat if len(by_cat) <= len(by_txn) else by_txn
        if category is not None:
            return by_cat if by_cat is not None else ()
        return by_txn if by_txn is not None else ()

    def count(self, category: str, **kwargs: Any) -> int:
        """Count records matching :meth:`where` filters."""
        if not kwargs:
            self._ensure_index()
            return len(self._by_cat.get(category, ()))
        return len(self.where(category=category, **kwargs))

    def decisions(self, txn: str) -> dict[int, str]:
        """Map site -> final decision ("commit"/"abort") for a transaction.

        A site's final decision is its *last* decision record; decisions
        are irrevocable in all implemented protocols, and the consistency
        checker independently asserts that no site ever records two
        different decisions.
        """
        out: dict[int, str] = {}
        cats = self._cats
        sites = self._sites
        details = self._details
        for _row, slot in self._row_slots(self._candidate_rows("decision", txn)):
            if cats[slot] == "decision" and self._txns[slot] == txn:
                out[sites[slot]] = details[slot]["outcome"]
        return out

    def since(self, position: int, category: str) -> tuple[int, list[tuple[float, int, str]]]:
        """The ``category`` records appended after ``position``: a cursor read.

        Returns ``(new position, [(time, site, txn), ...])`` in append
        order; a caller that starts at 0 and feeds each returned
        position into its next call sees every record of the category
        once.  The cost is O(records appended since ``position``): the
        new rows' category column is scanned in place — no index is
        built and no :class:`TraceRecord` is materialized.

        A position counts records ever stored, so it stays valid while
        a ring evicts: records evicted before the caller came back for
        them are skipped, not replayed — a ring has to hold at least
        what is appended between two reads for its reader to see it
        all.  Records a full truncating tracer refused were never
        stored and are never seen, exactly as with :meth:`where`.
        """
        stored = len(self._times)
        evicted = self._dropped if self._ring else 0
        rows = range(max(position - evicted, 0), stored)
        times, sites, cats, txns = self._times, self._sites, self._cats, self._txns
        found = [
            (times[slot], sites[slot], txns[slot])
            for slot in (map(self._slot, rows) if self._full else rows)
            if cats[slot] == category
        ]
        return evicted + stored, found

    def message_counts(self) -> dict[str, int]:
        """Histogram of sent message types (for the Fig. 1 / Fig. 2 benches)."""
        self._ensure_index()
        details = self._details
        counts = Counter(
            det[0] if type(det := details[slot]) is tuple else det.get("mtype", "?")
            for _row, slot in self._row_slots(self._by_cat.get("send", ()))
        )
        return dict(counts)

    def txn_scope(self, txn: str) -> list[TraceRecord]:
        """Records of one transaction plus global ("" txn) events, in order.

        The slice a message-sequence chart renders; served by merging
        the two per-txn row indexes instead of scanning the full trace.
        """
        self._ensure_index()
        rows = sorted(self._by_txn.get("", []) + self._by_txn.get(txn, [])) if txn else None
        if rows is None:
            rows = self._by_txn.get("", [])
        return [self._rec(row) for row in rows]

    def dump(self, records: Iterable[TraceRecord] | None = None) -> str:
        """Human-readable multi-line rendering (used by examples)."""
        return "\n".join(str(r) for r in (records if records is not None else self.records))
