"""Structured simulation trace — the flight recorder.

Every interesting action (message send/drop/delivery, state transition,
quorum evaluation, decision, crash, election) is appended to a
:class:`Tracer` as a :class:`TraceRecord`.  The analysis layer, the
tests and the experiment harness all *read the trace* rather than
poking protocol internals, which keeps the protocols honest: a claim
like "no partition aborted after a commit quorum formed" is checked
against the recorded history of the run.

**Row shapes.**  The store is columnar — parallel arrays for time /
site / category / txn / detail — and a row has one of two shapes:

* a *scanned* row (``send``, ``deliver``, ``drop``, ``state``: about
  nine rows in ten) carries a compact detail tuple, **shared**: one
  tuple per distinct ``(mtype, peer)`` (``(mtype, peer, reason)`` for
  drops, ``(src, dst, via)`` for state transitions) is built on first
  sight and appended by reference afterwards, so a repeated row
  allocates nothing the cyclic collector tracks.  Each has a one-call
  fast-path append (:meth:`Tracer.record_send`, :meth:`~Tracer.record_deliver`,
  :meth:`~Tracer.record_drop`, :meth:`~Tracer.record_state`) that does
  the five column appends in place on an unbounded tracer; only a
  tracer with a ``capacity`` routes them through ``_append``, where the
  truncate / ring branch lives.  :func:`_expand_detail` renders the
  tuple with the keys and key order of the equivalent ``record(...)``.
* a *generic* row (everything else — decisions, quorum checks,
  elections, faults; about one row in ten) comes through
  :meth:`Tracer.record` with a detail dict, stored the same way.

:class:`TraceRecord` views are materialized lazily (and memoized) only
when somebody iterates or filters.

**Indexes.**  A generic row goes into a per-category index and a
per-``(category, txn)`` index as it is appended, so the verdict readers
(:meth:`Tracer.entries`, :meth:`~Tracer.decisions`, :meth:`~Tracer.count`
by ``txn=``) read one short list of positions and touch no message
row.  A scanned category is indexed the same two ways only when a query
names it, by the O(new rows) column read :meth:`Tracer.since` uses; the
per-txn index (all categories) only when a query filters by txn alone
(:meth:`~Tracer.txn_scope`, ``where(txn=...)``).  Each lazily built
index remembers how far it has read and is extended, never rebuilt.

**Positions.**  Every index — and the cursor :meth:`Tracer.since` hands
out — counts records ever stored, not slots: the record stored ``k``-th
sits at position ``k`` for as long as it is kept.  A truncating or
unbounded tracer stores position ``k`` in slot ``k``; a ring in slot
``k % capacity``.  So one index serves all three modes: a ring's
eviction only makes its oldest positions stale, a reader skips those,
and once per lap (every ``capacity`` evictions) they are cut out of
every index and the memo, which keeps a ring's memory bounded.

A reader that follows the run as it goes — the open-loop service
retiring decided transactions at each arrival — uses the cursor read
:meth:`Tracer.since` instead of a query: it keeps a position, gets the
``(time, site, txn)`` of one category's records appended after it, and
pays O(new rows) with no index and no :class:`TraceRecord` built.  What
a ring evicted before the reader came back is skipped, never replayed,
so a ring must hold at least what is appended between two reads for
its reader to see every record.

``capacity`` bounds memory two ways: the default (truncate) mode drops
*new* records once full, while ``ring=True`` keeps the *last*
``capacity`` records instead, evicting the oldest; either way
:attr:`dropped` counts what was discarded.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

#: the categories with a compact, shared detail and a fast-path append;
#: they are indexed only when a query names them
SCANNED = frozenset({"send", "deliver", "drop", "state"})


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
    * ``state``   -> ``(src, dst, via)``
    """
    if type(detail) is not tuple:
        return detail
    if category == "send":
        return {"mtype": detail[0], "dst": detail[1]}
    if category == "deliver":
        return {"mtype": detail[0], "src": detail[1]}
    if category == "drop":
        return {"mtype": detail[0], "dst": detail[1], "reason": detail[2]}
    if category == "state":
        return {"src": detail[0], "dst": detail[1], "via": detail[2]}
    raise AssertionError(f"compact detail under unexpected category {category!r}")


def _share(table: dict[Any, dict[Any, tuple]], first: Any, second: Any, *rest: str) -> tuple:
    """First sight of a compact detail: build ``(first, second, *rest)``
    and keep it in ``table`` (``first -> second -> tuple``) for every
    later record."""
    detail = table.setdefault(first, {})[second] = (first, second, *rest)
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
        # reason -> mtype -> peer -> (mtype, peer, reason) for drops,
        # via -> src -> dst -> (src, dst, via) for state transitions.
        # Engines build a fresh f"{family}.{kind}" string per message;
        # a shared tuple keeps the one it was first seen with.
        self._pairs: dict[str, dict[int, tuple[str, int]]] = {}
        self._drops: dict[str, dict[str, dict[int, tuple[str, int, str]]]] = {}
        self._states: dict[str, dict[str, dict[str, tuple[str, str, str]]]] = {}
        # parallel columns; one logical record = one row across all five
        self._times: list[float] = []
        self._sites: list[int] = []
        self._cats: list[str] = []
        self._txns: list[str] = []
        self._details: list[Any] = []
        self._memo: dict[int, TraceRecord] = {}  # position -> materialized view
        # position indexes (see the module docstring); no list is empty
        self._by_cat: dict[str, list[int]] = {}
        self._by_key: dict[tuple[str, str], list[int]] = {}
        self._scanned: dict[str, int] = {}  # scanned category -> positions indexed
        self._by_txn: dict[str, list[int]] = {}
        self._txn_upto = 0  # positions the per-txn index has read

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
        position = self._append(time, site, category, txn, detail)
        if position is None or category in SCANNED:
            return
        rows = self._by_cat.get(category)
        if rows is None:
            self._by_cat[category] = [position]
        else:
            rows.append(position)
        key = (category, txn)
        rows = self._by_key.get(key)
        if rows is None:
            self._by_key[key] = [position]
        else:
            rows.append(position)

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

    def record_state(
        self, time: float, site: int, txn: str, src: str, dst: str, via: str
    ) -> None:
        """Fast-path append of a ``state`` transition ``src -> dst``."""
        try:
            detail = self._states[via][src][dst]
        except KeyError:
            detail = _share(self._states.setdefault(via, {}), src, dst, via)
        if self._capacity is not None:
            self._append(time, site, "state", txn, detail)
            return
        self._times.append(time)
        self._sites.append(site)
        self._cats.append("state")
        self._txns.append(txn)
        self._details.append(detail)

    def _append(
        self, time: float, site: int, category: str, txn: str, detail: Any
    ) -> int | None:
        """Store one row; its position, or ``None`` when it was refused."""
        cap = self._capacity
        stored = len(self._times)
        if cap is not None and stored >= cap:
            if not self._ring or cap == 0:
                self._dropped += 1
                return None
            # ring eviction: the new row takes the oldest row's slot
            evicted = self._dropped
            slot = evicted % cap
            self._times[slot] = time
            self._sites[slot] = site
            self._cats[slot] = category
            self._txns[slot] = txn
            self._details[slot] = detail
            self._dropped = evicted + 1
            if slot == cap - 1:
                self._trim()
            return evicted + cap
        self._times.append(time)
        self._sites.append(site)
        self._cats.append(category)
        self._txns.append(txn)
        self._details.append(detail)
        return stored  # nothing was evicted before a ring filled up

    def _trim(self) -> None:
        """A ring lap is done: cut the evicted positions out of every
        index and the memo."""
        first = self._dropped
        for index in (self._by_cat, self._by_key, self._by_txn):
            for key, rows in list(index.items()):
                if rows[0] < first:
                    del rows[: bisect_left(rows, first)]
                    if not rows:
                        del index[key]
        self._memo = {pos: rec for pos, rec in self._memo.items() if pos >= first}

    # ------------------------------------------------------------------
    # positions
    # ------------------------------------------------------------------

    def _first(self) -> int:
        """Position of the oldest stored record (a ring's evictions)."""
        return self._dropped if self._ring else 0

    def _slots(self, positions: Sequence[int]) -> Sequence[int]:
        """The column slot of each position: ``positions`` itself until a
        ring wraps, so an unwrapped tracer translates nothing."""
        if self._ring and self._dropped:
            cap = self._capacity
            return [pos % cap for pos in positions]  # type: ignore[operator]
        return positions

    def _scan(self, start: int, category: str) -> tuple[list[int], int]:
        """Positions of the stored ``category`` records from ``start`` on,
        and the position after the last stored record: one read of the
        category column over the new rows."""
        first = self._first()
        end = first + len(self._cats)
        rows = range(max(start, first), end)
        slots = self._slots(rows)
        cats = self._cats
        if slots is rows:
            return [pos for pos in rows if cats[pos] == category], end
        return [pos for pos, slot in zip(rows, slots) if cats[slot] == category], end

    def _index_scanned(self, category: str) -> None:
        """Extend a scanned category's two indexes over the new rows."""
        positions, self._scanned[category] = self._scan(self._scanned.get(category, 0), category)
        if not positions:
            return
        self._by_cat.setdefault(category, []).extend(positions)
        by_key = self._by_key
        txns = self._txns
        for pos, slot in zip(positions, self._slots(positions)):
            by_key.setdefault((category, txns[slot]), []).append(pos)

    def _index_txns(self) -> None:
        """Extend the per-txn index over the new rows."""
        first = self._first()
        end = first + len(self._txns)
        positions = range(max(self._txn_upto, first), end)
        by_txn = self._by_txn
        txns = self._txns
        for pos, slot in zip(positions, self._slots(positions)):
            by_txn.setdefault(txns[slot], []).append(pos)
        self._txn_upto = end

    def _rows(self, category: str | None, txn: str | None) -> Sequence[int]:
        """The live positions matching both filters exactly, in order."""
        first = self._first()
        if category is None:
            if txn is None:
                return range(first, first + len(self._times))
            self._index_txns()
            rows = self._by_txn.get(txn, ())
        else:
            if category in SCANNED:
                self._index_scanned(category)
            if txn is None:
                rows = self._by_cat.get(category, ())
            else:
                rows = self._by_key.get((category, txn), ())
        if first and rows and rows[0] < first:  # a ring evicted them since its last lap
            return rows[bisect_left(rows, first) :]
        return rows

    def _recs(self, positions: Sequence[int]) -> Iterator[TraceRecord]:
        """The (memoized) materialized views of the records at ``positions``."""
        return map(self._rec, positions, self._slots(positions))

    def _rec(self, pos: int, slot: int) -> TraceRecord:
        """The (memoized) view of the record at ``pos``, stored in ``slot``."""
        rec = self._memo.get(pos)
        if rec is None:
            cat = self._cats[slot]
            rec = TraceRecord(
                self._times[slot],
                self._sites[slot],
                cat,
                self._txns[slot],
                _expand_detail(cat, self._details[slot]),
            )
            self._memo[pos] = rec
        return rec

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        return self._recs(self._rows(None, None))

    @property
    def records(self) -> list[TraceRecord]:
        """Materialized record list, in append order (do not mutate)."""
        return list(self)

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
        rows = self._rows(category, txn)
        if site is not None:
            sites = self._sites
            rows = [pos for pos, slot in zip(rows, self._slots(rows)) if sites[slot] == site]
        out = list(self._recs(rows))
        if pred is not None:
            out = [rec for rec in out if pred(rec)]
        return out

    def count(self, category: str, **kwargs: Any) -> int:
        """Count records matching :meth:`where` filters.

        With no filter but ``txn=`` the answer is the length of an
        index; only ``site=`` / ``pred=`` materialize records.
        """
        if kwargs.keys() <= {"txn"}:
            return len(self._rows(category, kwargs.get("txn")))
        return len(self.where(category=category, **kwargs))

    def entries(self, category: str, txn: str | None = None) -> list[tuple[float, int, Any]]:
        """``(time, site, detail)`` of each ``category`` record (of
        ``txn`` when given), in append order: the verdict readers' read.

        Served from the index columns — no :class:`TraceRecord` is
        built and, for a generic category, no message row is read.
        A detail is the record's own dict: do not mutate it.
        """
        slots = self._slots(self._rows(category, txn))
        times, sites, details = self._times, self._sites, self._details
        if category in SCANNED:
            return [(times[s], sites[s], _expand_detail(category, details[s])) for s in slots]
        return [(times[s], sites[s], details[s]) for s in slots]

    def decisions(self, txn: str) -> dict[int, str]:
        """Map site -> final decision ("commit"/"abort") for a transaction.

        A site's final decision is its *last* decision record; decisions
        are irrevocable in all implemented protocols, and the consistency
        checker independently asserts that no site ever records two
        different decisions.
        """
        return {site: detail["outcome"] for _time, site, detail in self.entries("decision", txn)}

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
        positions, end = self._scan(position, category)
        times, sites, txns = self._times, self._sites, self._txns
        return end, [(times[s], sites[s], txns[s]) for s in self._slots(positions)]

    def message_counts(self) -> dict[str, int]:
        """Histogram of sent message types (for the Fig. 1 / Fig. 2 benches)."""
        details = self._details
        counts = Counter(
            det[0] if type(det := details[slot]) is tuple else det.get("mtype", "?")
            for slot in self._slots(self._rows("send", None))
        )
        return dict(counts)

    def txn_scope(self, txn: str) -> list[TraceRecord]:
        """Records of one transaction plus global ("" txn) events, in order.

        The slice a message-sequence chart renders; served by merging
        the two per-txn row indexes instead of scanning the full trace.
        """
        rows = self._rows(None, "")
        if txn:
            rows = sorted([*rows, *self._rows(None, txn)])
        return list(self._recs(rows))

    def dump(self, records: Iterable[TraceRecord] | None = None) -> str:
        """Human-readable multi-line rendering (used by examples)."""
        return "\n".join(str(r) for r in (records if records is not None else self.records))
