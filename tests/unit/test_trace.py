"""Unit tests for the trace recorder.

The columnar store must be observationally a plain list of records —
materialized views compare equal to hand-built ``TraceRecord`` values,
every indexed query answers like a naive filter over ``tracer.records``, and
dumps render record by record — while the capacity modes differ on
purpose: truncate drops *new* records, ring drops the *oldest*.
"""

import pytest

from repro.sim.trace import TraceRecord, Tracer


class TestRecording:
    def test_record_and_len(self, tracer):
        tracer.record(1.0, 3, "send", "T1", mtype="x.y")
        assert len(tracer) == 1

    def test_records_preserve_order(self, tracer):
        tracer.record(1.0, 1, "a")
        tracer.record(2.0, 2, "b")
        assert [r.category for r in tracer] == ["a", "b"]

    def test_capacity_drops_overflow(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.record(float(i), 0, "x")
        assert len(tracer) == 2
        assert tracer.dropped == 3


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


class TestCapacityTruncate:
    @pytest.mark.parametrize("indexed", [True, False])
    def test_drops_new_records_past_capacity(self, indexed):
        tracer = Tracer(capacity=4)
        if indexed:
            tracer.count("send")  # the row indexes exist before the overflow
        _fill(tracer, 10)
        assert len(tracer) == 4
        assert tracer.dropped == 6
        # the *first* four records survive
        assert [r.time for r in tracer.records] == [0.0, 1.0, 2.0, 3.0]
        assert [r.time for r in tracer.where(category="send")] == [0.0]

    @pytest.mark.parametrize("ring", [True, False])
    def test_capacity_zero_records_nothing(self, ring):
        tracer = Tracer(capacity=0, ring=ring)
        _fill(tracer, 5)
        assert len(tracer) == 0
        assert tracer.dropped == 5
        assert tracer.records == []
        assert tracer.where(category="send") == []


class TestRingBuffer:
    def test_ring_requires_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(ring=True)

    def test_keeps_newest_and_counts_evictions(self):
        tracer = Tracer(capacity=4, ring=True)
        _fill(tracer, 10)
        assert len(tracer) == 4
        assert tracer.dropped == 6
        # the *last* four records survive, oldest -> newest
        assert [r.time for r in tracer.records] == [6.0, 7.0, 8.0, 9.0]

    def test_under_capacity_behaves_plainly(self):
        tracer = Tracer(capacity=10, ring=True)
        _fill(tracer, 6)
        assert len(tracer) == 6
        assert tracer.dropped == 0
        assert [r.time for r in tracer.records] == [float(i) for i in range(6)]

    def test_queries_after_wrap_match_surviving_window(self):
        ring = Tracer(capacity=7, ring=True)
        full = Tracer()
        _fill(ring, 30)
        _fill(full, 30)
        survivors = full.records[-7:]
        assert ring.records == survivors
        assert ring.where(category="send") == [
            r for r in survivors if r.category == "send"
        ]
        assert ring.count("state") == sum(1 for r in survivors if r.category == "state")
        expected = {}
        for r in survivors:
            if r.category == "send":
                expected[r.detail["mtype"]] = expected.get(r.detail["mtype"], 0) + 1
        assert ring.message_counts() == expected

    def test_interleaved_queries_and_wraps(self):
        tracer = Tracer(capacity=3, ring=True)
        tracer.record_send(1.0, 0, "T", "m", 1)
        assert tracer.count("send") == 1
        for t in (2.0, 3.0, 4.0, 5.0):
            tracer.record_send(t, 0, "T", "m", 1)
        assert tracer.count("send") == 3
        assert [r.time for r in tracer.records] == [3.0, 4.0, 5.0]
        assert tracer.dropped == 2

    def test_indexes_stay_bounded_over_many_laps(self):
        # one index for every mode: a ring's evicted positions are cut
        # out once per lap, so the indexes and the memo never outgrow
        # two laps, however long the run
        capacity = 7
        tracer = Tracer(capacity=capacity, ring=True)
        for _ in range(40):
            _fill(tracer, 11)
            TestDirectColumnReads._query_everything(tracer)
            for index in (tracer._by_cat, tracer._by_key, tracer._by_txn):
                assert sum(map(len, index.values())) <= 2 * capacity
            assert len(tracer._memo) <= 2 * capacity
        assert tracer.dropped == 40 * 11 - capacity


class TestDirectColumnReads:
    """Until a ring wraps, a position *is* its slot: nothing is
    translated.  After, it answers from its window."""

    @staticmethod
    def _query_everything(tracer):
        return (
            tracer.where(category="send"),
            tracer.where(txn="T1", site=1),
            tracer.count("state"),
            tracer.decisions("T1"),
            tracer.message_counts(),
            tracer.txn_scope("T2"),
            tracer.entries("decision", "T1"),
        )

    @staticmethod
    def _spy_slots(monkeypatch):
        """Record, per ``_slots`` call, whether it translated anything."""
        translated = []
        original = Tracer._slots

        def spy(self, positions):
            slots = original(self, positions)
            translated.append(slots is not positions)
            return slots

        monkeypatch.setattr(Tracer, "_slots", spy)
        return translated

    def test_an_unwrapped_ring_never_translates_a_position(self, monkeypatch):
        tracer = Tracer(capacity=64, ring=True)  # a ring, but not wrapped
        _fill(tracer, 30)
        translated = self._spy_slots(monkeypatch)
        answers = self._query_everything(tracer)
        assert translated and not any(translated)  # no modulo, no second list
        plain = Tracer()
        _fill(plain, 30)
        assert answers == self._query_everything(plain)

    def test_a_wrapped_ring_does(self, monkeypatch):
        tracer = Tracer(capacity=7, ring=True)
        _fill(tracer, 30)
        full = Tracer()
        _fill(full, 30)
        survivors = _naive_where(full.records[-7:], category="decision", txn="T1")
        translated = self._spy_slots(monkeypatch)
        assert tracer.decisions("T1") == {r.site: r.detail["outcome"] for r in survivors} != {}
        assert tracer.entries("decision", "T1") == [(r.time, r.site, r.detail) for r in survivors]
        assert translated and all(translated)


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

    def test_a_full_truncating_tracer_hands_out_what_it_stored(self):
        tracer = Tracer(capacity=10)
        expected = _fill(tracer, 30)
        position, rows = tracer.since(0, "decision")
        assert position == 10 and rows == self._keys(expected[:10], "decision")
        assert tracer.since(position, "decision") == (10, [])

    def test_a_ring_skips_what_it_evicted_before_the_reader_came_back(self):
        tracer = Tracer(capacity=7, ring=True)
        expected = _fill(tracer, 5)
        position, rows = tracer.since(0, "decision")
        assert position == 5 and rows == self._keys(expected, "decision")
        later = [
            TraceRecord(float(10 + i), i % 3, "decision", f"T{i}", {"outcome": "commit"})
            for i in range(12)
        ]
        for rec in later[:4]:  # wraps, but the ring still holds all four
            tracer.record(rec.time, rec.site, rec.category, rec.txn, **rec.detail)
        position, rows = tracer.since(position, "decision")
        assert position == 9 and rows == self._keys(later[:4], "decision")
        for rec in later[4:]:  # eight more: the first of them is evicted unread
            tracer.record(rec.time, rec.site, rec.category, rec.txn, **rec.detail)
        position, rows = tracer.since(position, "decision")
        assert position == 17 and rows == self._keys(later[5:], "decision")
        assert tracer.since(position, "decision") == (17, [])


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
