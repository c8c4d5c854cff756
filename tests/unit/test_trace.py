"""Unit tests for the trace recorder.

The columnar store must be observationally a plain list of records —
materialized views compare equal to hand-built ``TraceRecord`` values,
every indexed query answers like a naive filter over ``tracer.records``, and
dumps render record by record.  Every row appended is kept, and a
tracer built without message rows refuses to answer for them.
"""

import pytest

from repro.common.errors import MessageRowsOffError
from repro.sim.trace import TraceRecord, Tracer


class TestRecording:
    def test_record_and_len(self, tracer):
        tracer.record(1.0, 3, "send", "T1", mtype="x.y")
        assert len(tracer) == 1

    def test_records_preserve_order(self, tracer):
        tracer.record(1.0, 1, "a")
        tracer.record(2.0, 2, "b")
        assert [r.category for r in tracer] == ["a", "b"]


class TestQueries:
    def test_where_by_category(self, tracer):
        tracer.record(1.0, 1, "send")
        tracer.record(2.0, 1, "deliver")
        assert len(tracer.where(category="send")) == 1

    def test_where_by_site_and_txn(self, tracer):
        tracer.record(1.0, 1, "send", "T1")
        tracer.record(1.0, 2, "send", "T1")
        tracer.record(1.0, 1, "send", "T2")
        assert len(tracer.where(site=1, txn="T1")) == 1

    def test_where_with_predicate(self, tracer):
        tracer.record(1.0, 1, "send", detail_key=1)
        tracer.record(2.0, 1, "send", detail_key=2)
        found = tracer.where(category="send", pred=lambda r: r.detail["detail_key"] == 2)
        assert len(found) == 1

    def test_count(self, tracer):
        for __ in range(3):
            tracer.record(1.0, 1, "drop")
        assert tracer.count("drop") == 3

    def test_decisions_takes_last_per_site(self, tracer):
        tracer.record(1.0, 1, "decision", "T1", outcome="commit")
        tracer.record(2.0, 2, "decision", "T1", outcome="commit")
        assert tracer.decisions("T1") == {1: "commit", 2: "commit"}

    @pytest.mark.parametrize("category", ["decision", "partition", "send", "state"])
    def test_txn_entries_is_every_record_of_a_category_in_order(self, category):
        tracer = Tracer()
        expected = _fill(tracer, 40)
        assert list(tracer.txn_entries(category)) == [
            (r.site, r.txn, r.detail) for r in _naive_where(expected, category)
        ]

    def test_decisions_scoped_to_txn(self, tracer):
        tracer.record(1.0, 1, "decision", "T1", outcome="commit")
        tracer.record(1.0, 1, "decision", "T2", outcome="abort")
        assert tracer.decisions("T1") == {1: "commit"}

    def test_message_counts(self, tracer):
        tracer.record(1.0, 1, "send", mtype="a.b")
        tracer.record(1.0, 1, "send", mtype="a.b")
        tracer.record(1.0, 1, "send", mtype="a.c")
        assert tracer.message_counts() == {"a.b": 2, "a.c": 1}

    @pytest.mark.parametrize("compact", [True, False])
    def test_message_counts_buckets_missing_mtype(self, compact):
        # a send is counted the same whether it carries the fast path's
        # compact detail or a generic record()'s detail dict
        tracer = Tracer()
        tracer.record(1.0, 1, "send")
        if compact:
            tracer.record_send(1.0, 1, "", "a.b", 2)
        else:
            tracer.record(1.0, 1, "send", mtype="a.b")
        assert tracer.message_counts() == {"?": 1, "a.b": 1}

    def test_dump_renders_all_records(self, tracer):
        tracer.record(1.0, 1, "send", "T1", mtype="m")
        text = tracer.dump()
        assert "send" in text and "T1" in text


def _fill(tracer: Tracer, n: int = 30) -> list[TraceRecord]:
    """A deterministic mixed workload exercising every append path.

    Returns the records the appends describe, built by hand — the
    reference the store's materialized views are compared against.
    """
    expected = []
    for i in range(n):
        t = float(i)
        site = i % 5
        txn = f"T{i % 3}"
        kind = i % 6
        if kind == 0:
            dst = (site + 1) % 5
            tracer.record_send(t, site, txn, "qtp1.vote-req", dst)
            rec = TraceRecord(t, site, "send", txn, {"mtype": "qtp1.vote-req", "dst": dst})
        elif kind == 1:
            src = (site + 4) % 5
            tracer.record_deliver(t, site, txn, "qtp1.vote-req", src)
            rec = TraceRecord(t, site, "deliver", txn, {"mtype": "qtp1.vote-req", "src": src})
        elif kind == 2:
            dst = (site + 2) % 5
            tracer.record_drop(t, site, txn, "qtp1.ack", dst, "partitioned")
            detail = {"mtype": "qtp1.ack", "dst": dst, "reason": "partitioned"}
            rec = TraceRecord(t, site, "drop", txn, detail)
        elif kind == 3:
            tracer.record(t, site, "state", txn, src="W", dst="PC")
            rec = TraceRecord(t, site, "state", txn, {"src": "W", "dst": "PC"})
        elif kind == 4:
            outcome = "commit" if i % 4 else "abort"
            tracer.record(t, site, "decision", txn, outcome=outcome)
            rec = TraceRecord(t, site, "decision", txn, {"outcome": outcome})
        else:
            tracer.record(t, -1, "partition", groups=[[0, 1], [2, 3, 4]])
            rec = TraceRecord(t, -1, "partition", "", {"groups": [[0, 1], [2, 3, 4]]})
        expected.append(rec)
    return expected


def _naive_where(records, category=None, site=None, txn=None, pred=None):
    """The reference filter: one pass over the materialized records."""
    return [
        r
        for r in records
        if (category is None or r.category == category)
        and (site is None or r.site == site)
        and (txn is None or r.txn == txn)
        and (pred is None or pred(r))
    ]


class TestColumnarLegacyEquivalence:
    """The store against a naive list-of-records reference."""

    def test_records_and_dump_identical(self):
        tracer = Tracer()
        expected = _fill(tracer)
        assert tracer.records == expected
        assert tracer.dump() == "\n".join(str(r) for r in expected)
        assert list(tracer) == expected
        assert len(tracer) == len(expected)

    def test_queries_identical(self):
        tracer = Tracer()
        _fill(tracer)
        records = tracer.records
        for kwargs in [
            {"category": "send"},
            {"category": "send", "site": 0},
            {"category": "decision", "txn": "T1"},
            {"txn": "T2"},
            {"site": 3},
            {"category": "send", "pred": lambda r: r.detail["dst"] == 1},
            {"category": "no-such-category"},
            {"txn": "no-such-txn"},
            {"category": "send", "txn": "T0", "site": 0},
        ]:
            assert tracer.where(**kwargs) == _naive_where(records, **kwargs), kwargs
        assert tracer.count("deliver") == len(_naive_where(records, category="deliver"))
        assert tracer.count("deliver", site=2) == len(
            _naive_where(records, category="deliver", site=2)
        )
        last_decision = {}
        for r in _naive_where(records, category="decision", txn="T1"):
            last_decision[r.site] = r.detail["outcome"]
        assert tracer.decisions("T1") == last_decision
        histogram = {}
        for r in _naive_where(records, category="send"):
            histogram[r.detail["mtype"]] = histogram.get(r.detail["mtype"], 0) + 1
        assert tracer.message_counts() == histogram
        assert tracer.txn_scope("T0") == [r for r in records if r.txn in ("", "T0")]
        assert tracer.txn_scope("") == [r for r in records if r.txn == ""]

    def test_compact_details_expand_in_kwarg_order(self):
        tracer = Tracer()
        tracer.record_send(1.0, 0, "T", "m", 2)
        tracer.record_deliver(2.0, 2, "T", "m", 0)
        tracer.record_drop(3.0, 0, "T", "m", 2, "sender-down")
        tracer.record_state(4.0, 2, "T", "W", "PC", "prepare")
        send, deliver, drop, state = tracer.records
        assert list(send.detail) == ["mtype", "dst"]
        assert list(deliver.detail) == ["mtype", "src"]
        assert list(drop.detail) == ["mtype", "dst", "reason"]
        assert state.detail == {"src": "W", "dst": "PC", "via": "prepare"}
        assert list(state.detail) == ["src", "dst", "via"]
        assert drop.detail["reason"] == "sender-down"

    def test_materialized_views_are_memoized(self):
        tracer = Tracer()
        _fill(tracer, 10)
        assert tracer.records[0] is tracer.records[0]
        assert tracer.where(category="send")[0] is tracer.records[0]

    def test_queries_see_appends_after_a_query(self):
        # indexes extend incrementally once built
        tracer = Tracer()
        tracer.record_send(1.0, 0, "T", "m", 1)
        assert tracer.count("send") == 1
        tracer.record_send(2.0, 0, "T", "m", 2)
        tracer.record(3.0, 1, "decision", "T", outcome="abort")
        assert tracer.count("send") == 2
        assert tracer.decisions("T") == {1: "abort"}


def _query_everything(tracer: Tracer):
    """One of each read the indexes serve."""
    return (
        tracer.where(category="send"),
        tracer.where(txn="T1", site=1),
        tracer.count("state"),
        tracer.decisions("T1"),
        tracer.message_counts(),
        tracer.txn_scope("T2"),
        tracer.entries("decision", "T1"),
    )


class TestEveryRowIsKept:
    """One storage mode: the verdict readers see the whole history."""

    def test_a_long_run_keeps_every_row(self):
        tracer = Tracer()
        expected = []
        for _ in range(100):
            expected += _fill(tracer, 30)
        assert len(tracer) == 3000
        assert tracer.records == expected
        assert tracer.decisions("T1") == {
            r.site: r.detail["outcome"] for r in _naive_where(expected, "decision", txn="T1")
        }

    def test_a_position_is_its_slot(self):
        tracer = Tracer()
        expected = _fill(tracer, 60)
        _query_everything(tracer)
        tracer.where(category="deliver")
        tracer.where(category="drop")
        for category, by_txn in tracer._by_cat_txn.items():
            for txn, positions in by_txn.items():
                assert [expected[p] for p in positions] == _naive_where(
                    expected, category, txn=txn
                )
        for txn, positions in tracer._by_txn.items():
            assert [expected[p] for p in positions] == _naive_where(expected, txn=txn)

    def test_interleaved_queries_and_appends_match_a_naive_filter(self):
        # the indexes are extended over each batch, never rebuilt, and
        # hold every position exactly once however long the run
        tracer, reference = Tracer(), Tracer()
        for _ in range(40):
            _fill(tracer, 11)
            _fill(reference, 11)
            assert _query_everything(tracer) == _query_everything(_rebuilt(reference))
            assert sum(map(len, tracer._by_txn.values())) == len(tracer)
            nested = [positions for by_txn in tracer._by_cat_txn.values() for positions in by_txn.values()]
            for positions in [*tracer._by_cat.values(), *nested, *tracer._by_txn.values()]:
                assert positions == sorted(set(positions))
            assert tracer._by_cat_txn.keys() == tracer._by_cat.keys()


def _rebuilt(tracer: Tracer) -> Tracer:
    """A fresh tracer holding ``tracer``'s records, indexed from scratch."""
    fresh = Tracer()
    for r in tracer.records:
        fresh.record(r.time, r.site, r.category, r.txn, **r.detail)
    return fresh


class TestCursor:
    """``since`` hands each record of a category to its reader once."""

    @staticmethod
    def _keys(records, category):
        return [(r.time, r.site, r.txn) for r in records if r.category == category]

    def test_reads_resume_where_the_last_one_stopped(self):
        tracer = Tracer()
        position, rows = tracer.since(0, "decision")
        assert (position, rows) == (0, [])
        seen = []
        for _ in range(3):
            expected = _fill(tracer, 12)  # times restart at 0; order is what counts
            position, rows = tracer.since(position, "decision")
            assert rows == self._keys(expected, "decision") != []
            seen += rows
        assert position == len(tracer) == 36
        assert seen == self._keys(tracer.records, "decision")
        assert tracer.since(position, "decision") == (36, [])
        assert tracer.since(0, "send")[1] == self._keys(tracer.records, "send")

    def test_a_read_builds_no_index_and_no_record(self):
        tracer = Tracer()
        _fill(tracer, 30)
        # generic rows were indexed as they landed; a cursor read adds nothing
        indexed = {cat: list(rows) for cat, rows in tracer._by_cat.items()}
        assert set(indexed) == {"decision", "partition"}
        assert tracer.since(0, "decision")[1] and tracer.since(0, "send")[1]
        assert tracer._memo == {} and tracer._by_cat == indexed
        assert tracer._scanned == {} and tracer._by_txn == {} and tracer._txn_upto == 0

    def test_a_reader_that_falls_behind_still_gets_every_record(self):
        tracer = Tracer()
        expected = _fill(tracer, 5)
        position, rows = tracer.since(0, "decision")
        assert position == 5 and rows == self._keys(expected, "decision")
        later = [
            TraceRecord(float(10 + i), i % 3, "decision", f"T{i}", {"outcome": "commit"})
            for i in range(500)
        ]
        for rec in later:  # many more rows than the reader has seen
            tracer.record(rec.time, rec.site, rec.category, rec.txn, **rec.detail)
        position, rows = tracer.since(position, "decision")
        assert position == 505 and rows == self._keys(later, "decision")
        assert tracer.since(position, "decision") == (505, [])

    def test_readers_keep_their_own_positions(self):
        # the cursor is the caller's: two readers at different paces
        # each see every record of their category once
        tracer = Tracer()
        fast, slow = (0, []), (0, [])
        for batch in range(6):
            _fill(tracer, 12)
            position, rows = tracer.since(fast[0], "decision")
            fast = (position, fast[1] + rows)
            if batch % 3 == 2:
                position, rows = tracer.since(slow[0], "send")
                slow = (position, slow[1] + rows)
        assert fast == (len(tracer), self._keys(tracer.records, "decision"))
        assert slow == (len(tracer), self._keys(tracer.records, "send"))

    @pytest.mark.parametrize("category", ["decision", "partition"])
    def test_interleaved_appends_and_reads_of_a_generic_category_match_a_naive_filter(self, category):
        # a generic category's cursor bisects its index: from any
        # position — a batch boundary, mid-batch, past the end — a read
        # returns what a filter over every row from that position keeps
        tracer = Tracer()
        cursor = 0
        for batch in range(1, 30):
            _fill(tracer, batch % 7)
            records = tracer.records
            for position in (cursor, cursor // 2, len(tracer) - 1, len(tracer) + 3):
                expected = [
                    (r.time, r.site, r.txn)
                    for pos, r in enumerate(records)
                    if pos >= position and r.category == category
                ]
                assert tracer.since(position, category) == (len(tracer), expected)
            cursor = tracer.since(cursor, category)[0]
        assert cursor == len(tracer)

    @pytest.mark.parametrize(
        "category", ["send", "deliver", "drop", "state", "decision", "partition"]
    )
    def test_a_cursor_read_agrees_with_the_indexed_query(self, category):
        tracer = Tracer()
        _fill(tracer, 48)
        indexed = [(r.time, r.site, r.txn) for r in tracer.where(category=category)]
        assert indexed
        assert tracer.since(0, category) == (48, indexed)
        assert tracer.since(24, category)[1] == [row for row in indexed if row[0] >= 24.0]


class TestRecordRendering:
    def test_str_shape(self):
        rec = TraceRecord(2.0, 1, "send", "T1", {"mtype": "m", "dst": 3})
        text = str(rec)
        assert "send" in text and "T1" in text and "'mtype': 'm'" in text

    def test_dump_subset(self):
        tracer = Tracer()
        _fill(tracer, 12)
        subset = tracer.where(category="send")
        assert tracer.dump(subset) == "\n".join(str(r) for r in subset)


class TestWithoutMessageRows:
    """A tracer built with ``messages=False`` keeps no send / deliver /
    drop row, and every query that names one of them says so instead
    of answering with nothing."""

    @staticmethod
    def tracer():
        tracer = Tracer(messages=False)
        tracer.record_state(1.0, 1, "T1", "Q", "W", "vote-req")
        tracer.record(2.0, 1, "decision", "T1", outcome="commit")
        return tracer

    @pytest.mark.parametrize("category", ["send", "deliver", "drop"])
    @pytest.mark.parametrize(
        "query",
        [
            lambda t, c: t.where(category=c),
            lambda t, c: t.where(category=c, txn="T1"),
            lambda t, c: t.count(c),
            lambda t, c: t.count(c, txn="T1"),
            lambda t, c: t.entries(c),
            lambda t, c: t.entries(c, "T1"),
            lambda t, c: t.txn_entries(c),
            lambda t, c: t.since(0, c),
        ],
        ids=["where", "where-txn", "count", "count-txn", "entries", "entries-txn", "txn_entries", "since"],
    )
    def test_a_query_naming_a_message_category_raises(self, query, category):
        with pytest.raises(MessageRowsOffError, match="message_rows=True"):
            query(self.tracer(), category)

    def test_message_counts_raises(self):
        with pytest.raises(MessageRowsOffError, match="message_rows=True"):
            self.tracer().message_counts()

    def test_every_other_row_is_kept_and_read(self):
        tracer = self.tracer()
        assert not tracer.messages and Tracer().messages
        assert [r.category for r in tracer] == ["state", "decision"]
        assert tracer.count("state") == 1 and tracer.decisions("T1") == {1: "commit"}
        assert tracer.since(0, "state") == (2, [(1.0, 1, "T1")])
        assert [r.category for r in tracer.txn_scope("T1")] == ["state", "decision"]
