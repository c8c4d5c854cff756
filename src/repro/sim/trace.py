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

* a *scanned* row (``send``, ``deliver``, ``drop``, ``state``) carries
  a compact detail tuple, **shared**: one
  tuple per distinct ``(mtype, peer)`` (``(mtype, peer, reason)`` for
  drops, ``(src, dst, via)`` for state transitions) is built on first
  sight and appended by reference afterwards, so a repeated row
  allocates nothing the cyclic collector tracks.  Each has a one-call
  fast-path append (:meth:`Tracer.record_send`, :meth:`~Tracer.record_deliver`,
  :meth:`~Tracer.record_drop`, :meth:`~Tracer.record_state`) that does
  the five column appends in place.  :func:`_expand_detail` renders the
  tuple with the keys and key order of the equivalent ``record(...)``.
* a *generic* row (everything else — decisions, quorum checks,
  elections, faults) comes through
  :meth:`Tracer.record` with a detail dict, stored the same way.  A
  caller that already holds the row's dict hands it over positionally
  (:meth:`Node.trace <repro.net.node.Node.trace>` passes its own
  keyword dict), so the dict is built once, not re-packed per hop.

**Message rows are opt-in.**  The ``send`` / ``deliver`` / ``drop``
rows (:data:`MESSAGES`) are kept only by a tracer built with
``messages=True``.  A bare ``Tracer()`` keeps them.  A
:class:`~repro.db.cluster.Cluster` builds its tracer from its
``message_rows`` switch, off by default; its network counts the wire
either way (``Network.sent_by_type``, ``Network.dropped_by``).  With
the switch on, scanned rows are about nine rows in ten and generic rows
one in ten; with it off, a run keeps its ``state`` rows and its generic
rows only.  A query that names a message category on a tracer that
kept none raises :class:`~repro.common.errors.MessageRowsOffError`,
which names the switch, rather than answer with an empty list that
reads as "no message was sent".

**First sights.**  A shared detail is found by a membership test per
level (``key in table``, then the subscript) and built by
:func:`_share` only when a level misses.  Every cluster gets a fresh
tracer, so in a WAN storm about one scanned row in five brings a
detail its tracer has not seen yet: a first sight costs a failed
membership test, not a raised and caught ``KeyError``, and a repeat
costs no call at all (``dict.get`` would add a C-level call per level
to every row).

:class:`TraceRecord` views are materialized lazily (and memoized) only
when somebody iterates or filters.

**Indexes.**  A generic row goes into a per-category index and a
nested per-category, per-txn index (``category -> txn -> positions``)
as it is appended, so the verdict readers (:meth:`Tracer.entries`,
:meth:`~Tracer.decisions`, :meth:`~Tracer.count` by ``txn=``) read one
short list of positions and touch no message row.  The nested index
keys on the row's own strings, so an append builds no key object: one
table per category holds one position list per transaction.  A
whole-run verdict reads a category's index once, through
:meth:`Tracer.txn_entries`, instead of one short list per transaction
(:func:`~repro.analysis.consistency.read_decisions`).  A scanned category is
indexed the same two ways only when a query names it, by an O(new rows)
read of the category column; the per-txn index (all categories) only
when a query filters by txn alone (:meth:`~Tracer.txn_scope`,
``where(txn=...)``).  Each lazily built index remembers how far it has
read and is extended, never rebuilt.

**Positions.**  The tracer has one storage mode: every row it keeps is
kept for the life of the run.  The record stored ``k``-th sits in slot ``k``
of every column, and every index — and the cursor :meth:`Tracer.since`
hands out — holds these positions.

A reader that follows the run as it goes — the open-loop service
retiring decided transactions at each arrival — uses the cursor read
:meth:`Tracer.since` instead of a query: it keeps a position, gets the
``(time, site, txn)`` of one category's records appended after it, and
builds no :class:`TraceRecord`.  For a generic category the cursor
bisects that category's position list, so a read costs the category's
new records, not every new row; a scanned category, which has no index
until a query names it, is read from the category column in place.

There is deliberately no bounded mode.  Atomicity and termination are
judged from every site's decision record, and those verdicts
(``Cluster.verdicts``, ``outcome``, ``live_undecided``, the open-loop
decision cursor) read them from this trace; a tracer that refused new
rows or evicted old ones would hand those readers a partial history and
turn a wrong verdict into a silent one.  Message rows are no verdict's
input: the conservation check reads the network's counters.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import repeat
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.common.errors import MessageRowsOffError

#: the categories with a compact, shared detail and a fast-path append;
#: they are indexed only when a query names them
SCANNED = frozenset({"send", "deliver", "drop", "state"})
#: the per-message categories, kept only by a ``Tracer(messages=True)``
MESSAGES = frozenset({"send", "deliver", "drop"})


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
    "how many messages of type m were sent".  Every row is kept (see
    the module docstring); the message rows only when ``messages`` is
    true, which :attr:`messages` reports.
    """

    def __init__(self, messages: bool = True) -> None:
        #: whether this trace keeps ``send`` / ``deliver`` / ``drop`` rows
        #: (read once by the network built on it)
        self.messages = messages
        # shared compact details (see the module docstring):
        # mtype -> peer -> (mtype, peer) for send and deliver records,
        # reason -> mtype -> peer -> (mtype, peer, reason) for drops,
        # via -> src -> dst -> (src, dst, via) for state transitions.
        # Engines take their mtypes from tables built once per protocol
        # name, so every message of a type carries the one string its
        # shared tuple holds.
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
        # category -> txn -> positions, over the categories of _by_cat
        self._by_cat_txn: dict[str, dict[str, list[int]]] = {}
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
        detail: dict[str, Any] | None = None,
        /,
        **fields: Any,
    ) -> None:
        """Append one generic record.

        Its detail is ``detail`` when given — a dict the caller hands
        over and no longer changes, stored as it is — and the keyword
        ``fields`` otherwise.  The first five parameters are
        positional-only, so every keyword is a detail field.
        """
        position = self._append(time, site, category, txn, fields if detail is None else detail)
        if category in SCANNED:
            return
        rows = self._by_cat.get(category)
        if rows is None:
            self._by_cat[category] = [position]
            self._by_cat_txn[category] = {txn: [position]}
            return
        rows.append(position)
        by_txn = self._by_cat_txn[category]
        rows = by_txn.get(txn)
        if rows is None:
            by_txn[txn] = [position]
        else:
            rows.append(position)

    def record_send(self, time: float, site: int, txn: str, mtype: str, dst: int) -> None:
        """Fast-path append of a ``send`` record (no detail dict built)."""
        pairs = self._pairs
        if mtype in pairs and dst in (peers := pairs[mtype]):
            detail = peers[dst]
        else:
            detail = _share(pairs, mtype, dst)
        self._times.append(time)
        self._sites.append(site)
        self._cats.append("send")
        self._txns.append(txn)
        self._details.append(detail)

    def record_deliver(self, time: float, site: int, txn: str, mtype: str, src: int) -> None:
        """Fast-path append of a ``deliver`` record."""
        pairs = self._pairs
        if mtype in pairs and src in (peers := pairs[mtype]):
            detail = peers[src]
        else:
            detail = _share(pairs, mtype, src)
        self._times.append(time)
        self._sites.append(site)
        self._cats.append("deliver")
        self._txns.append(txn)
        self._details.append(detail)

    def record_drop(
        self, time: float, site: int, txn: str, mtype: str, dst: int, reason: str
    ) -> None:
        """Fast-path append of a ``drop`` record (with its reason)."""
        drops = self._drops
        if reason in drops and mtype in (pairs := drops[reason]) and dst in (peers := pairs[mtype]):
            detail = peers[dst]
        else:
            detail = _share(drops.setdefault(reason, {}), mtype, dst, reason)
        self._times.append(time)
        self._sites.append(site)
        self._cats.append("drop")
        self._txns.append(txn)
        self._details.append(detail)

    def record_state(
        self, time: float, site: int, txn: str, src: str, dst: str, via: str
    ) -> None:
        """Fast-path append of a ``state`` transition ``src -> dst``."""
        states = self._states
        if via in states and src in (pairs := states[via]) and dst in (dsts := pairs[src]):
            detail = dsts[dst]
        else:
            detail = _share(states.setdefault(via, {}), src, dst, via)
        self._times.append(time)
        self._sites.append(site)
        self._cats.append("state")
        self._txns.append(txn)
        self._details.append(detail)

    def _append(self, time: float, site: int, category: str, txn: str, detail: Any) -> int:
        """Store one row; its position."""
        position = len(self._times)
        self._times.append(time)
        self._sites.append(site)
        self._cats.append(category)
        self._txns.append(txn)
        self._details.append(detail)
        return position

    # ------------------------------------------------------------------
    # positions
    # ------------------------------------------------------------------

    def _scan(self, start: int, category: str) -> tuple[list[int], int]:
        """Positions of the ``category`` records from ``start`` on, and the
        position after the last record: one read of the category column
        over the new rows.  Every read of a scanned category comes here,
        so this is where a message category this tracer did not keep is
        refused."""
        if category in MESSAGES and not self.messages:
            raise MessageRowsOffError(category)
        end = len(self._cats)
        cats = self._cats
        return [pos for pos in range(start, end) if cats[pos] == category], end

    def _index_scanned(self, category: str) -> None:
        """Extend a scanned category's two indexes over the new rows."""
        positions, self._scanned[category] = self._scan(self._scanned.get(category, 0), category)
        if not positions:
            return
        self._by_cat.setdefault(category, []).extend(positions)
        by_txn = self._by_cat_txn.setdefault(category, {})
        txns = self._txns
        for pos in positions:
            by_txn.setdefault(txns[pos], []).append(pos)

    def _index_txns(self) -> None:
        """Extend the per-txn index over the new rows."""
        end = len(self._txns)
        by_txn = self._by_txn
        txns = self._txns
        for pos in range(self._txn_upto, end):
            by_txn.setdefault(txns[pos], []).append(pos)
        self._txn_upto = end

    def _rows(self, category: str | None, txn: str | None) -> Sequence[int]:
        """The positions matching both filters exactly, in order."""
        if category is None:
            if txn is None:
                return range(len(self._times))
            self._index_txns()
            return self._by_txn.get(txn, ())
        if category in SCANNED:
            self._index_scanned(category)
        if txn is None:
            return self._by_cat.get(category, ())
        by_txn = self._by_cat_txn.get(category)
        return () if by_txn is None else by_txn.get(txn, ())

    def _recs(self, positions: Sequence[int]) -> Iterator[TraceRecord]:
        """The (memoized) materialized views of the records at ``positions``."""
        return map(self._rec, positions)

    def _rec(self, pos: int) -> TraceRecord:
        """The (memoized) view of the record at ``pos``."""
        rec = self._memo.get(pos)
        if rec is None:
            cat = self._cats[pos]
            rec = TraceRecord(
                self._times[pos],
                self._sites[pos],
                cat,
                self._txns[pos],
                _expand_detail(cat, self._details[pos]),
            )
            self._memo[pos] = rec
        return rec

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        """Every record, in append order."""
        return self._recs(self._rows(None, None))

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
            rows = [pos for pos in rows if sites[pos] == site]
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
        rows = self._rows(category, txn)
        times, sites, details = self._times, self._sites, self._details
        if category in SCANNED:
            return [(times[p], sites[p], _expand_detail(category, details[p])) for p in rows]
        return [(times[p], sites[p], details[p]) for p in rows]

    def decisions(self, txn: str) -> dict[int, str]:
        """Map site -> final decision ("commit"/"abort") for a transaction.

        A site's final decision is its *last* decision record; decisions
        are irrevocable in all implemented protocols, and the consistency
        checker independently asserts that no site ever records two
        different decisions.
        """
        return {site: detail["outcome"] for _time, site, detail in self.entries("decision", txn)}

    def txn_entries(self, category: str) -> Iterator[tuple[int, str, Any]]:
        """``(site, txn, detail)`` of every ``category`` record, in append
        order: a whole-run verdict's one read of a category, where
        :meth:`entries` serves one transaction at a time.

        Served lazily from the category index (an iterator: read it
        once), so a whole-run read holds no list of rows.  A detail is
        the record's own dict: do not mutate it.
        """
        rows = self._rows(category, None)
        details = map(self._details.__getitem__, rows)
        if category in SCANNED:
            details = map(_expand_detail, repeat(category), details)
        return zip(map(self._sites.__getitem__, rows), map(self._txns.__getitem__, rows), details)

    def since(self, position: int, category: str) -> tuple[int, list[tuple[float, int, str]]]:
        """The ``category`` records appended after ``position``: a cursor read.

        Returns ``(new position, [(time, site, txn), ...])`` in append
        order; a caller that starts at 0 and feeds each returned
        position into its next call sees every record of the category
        once.  No :class:`TraceRecord` is materialized.  A generic
        category's records are found by bisecting its position index at
        ``position`` — the cost is the category's new records; a scanned
        category's by reading the new rows' category column in place —
        O(rows appended since ``position``), with no index built.
        """
        if category in SCANNED:
            positions, end = self._scan(position, category)
        else:
            rows = self._by_cat.get(category, ())
            positions, end = rows[bisect_left(rows, position) :], len(self._cats)
        times, sites, txns = self._times, self._sites, self._txns
        return end, [(times[p], sites[p], txns[p]) for p in positions]

    def message_counts(self) -> dict[str, int]:
        """Histogram of sent message types, read from the ``send`` rows;
        a cluster's own :meth:`~repro.db.cluster.Cluster.message_counts`
        reads its network's counter, with or without message rows."""
        details = self._details
        counts = Counter(
            det[0] if type(det := details[pos]) is tuple else det.get("mtype", "?")
            for pos in self._rows("send", None)
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
        return "\n".join(str(r) for r in (records if records is not None else self))
