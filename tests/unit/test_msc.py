"""Unit tests for the message-sequence-chart renderer."""

import pytest

from repro import CatalogBuilder, Cluster, FailurePlan
from repro.common.errors import MessageRowsOffError
from repro.sim.msc import format_event, message_sequence_chart
from repro.sim.trace import TraceRecord, Tracer


class TestFormatEvent:
    def test_send_arrow(self):
        rec = TraceRecord(1.0, 2, "send", "T1", {"mtype": "qtp1.prepare", "dst": 4})
        line = format_event(rec)
        assert "2" in line and "> 4" in line and "prepare" in line

    def test_drop_annotated(self):
        rec = TraceRecord(
            1.0, 2, "drop", "T1", {"mtype": "qtp1.vote", "dst": 4, "reason": "partitioned"}
        )
        assert "partitioned" in format_event(rec)

    def test_state_change(self):
        rec = TraceRecord(1.0, 2, "state", "T1", {"src": "W", "dst": "PC", "via": "x"})
        assert "[W -> PC]" in format_event(rec)

    def test_decision(self):
        rec = TraceRecord(1.0, 2, "decision", "T1", {"outcome": "commit", "via": "x"})
        assert "COMMIT" in format_event(rec)

    def test_uncharted_returns_none(self):
        rec = TraceRecord(1.0, 2, "quorum", "T1", {})
        assert format_event(rec) is None

    def test_crash_and_partition(self):
        assert "CRASH" in format_event(TraceRecord(1.0, 2, "crash"))
        assert "PARTITION" in format_event(
            TraceRecord(1.0, -1, "partition", "", {"groups": [[1], [2]]})
        )
        assert "HEAL" in format_event(TraceRecord(1.0, -1, "heal"))

    def test_family_prefix_stripped(self):
        rec = TraceRecord(1.0, 1, "send", "T1", {"mtype": "qtp1.t.state-req", "dst": 2})
        line = format_event(rec)
        assert "t.state-req" in line and "qtp1" not in line


class TestChart:
    def _run(self):
        catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3], r=2, w=2).build()
        cluster = Cluster(catalog, protocol="qtp1", message_rows=True)
        txn = cluster.update(origin=1, writes={"x": 1})
        cluster.run()
        return cluster, txn

    def test_chart_contains_protocol_phases(self):
        cluster, txn = self._run()
        chart = message_sequence_chart(cluster.tracer, txn.txn)
        assert "vote-req" in chart
        assert "prepare" in chart
        assert "COMMIT" in chart

    def test_txn_filter(self):
        cluster, txn = self._run()
        cluster.update(origin=2, writes={"x": 2})
        cluster.run()
        chart = message_sequence_chart(cluster.tracer, txn.txn)
        # the second transaction's decision lines are excluded
        assert chart.count("coordinator decides") == 1

    def test_send_and_drop_merged(self):
        catalog = CatalogBuilder().replicated_item("x", sites=[1, 2], r=1, w=2).build()
        cluster = Cluster(catalog, protocol="qtp1", message_rows=True)
        cluster.network.set_link_loss(1, 2, 1.0)
        txn = cluster.update(origin=1, writes={"x": 1})
        cluster.run()
        chart = message_sequence_chart(cluster.tracer, txn.txn)
        # each lost vote-req appears once (the annotated line), not twice
        lost_lines = [ln for ln in chart.splitlines() if "vote-req" in ln and "> 2" in ln]
        assert len(lost_lines) == 1
        assert "✗" in lost_lines[0]

    def test_drops_can_be_hidden(self):
        cluster, txn = self._run()
        chart = message_sequence_chart(cluster.tracer, txn.txn, include_drops=False)
        assert "✗" not in chart

    def test_truncation(self):
        cluster, txn = self._run()
        chart = message_sequence_chart(cluster.tracer, txn.txn, max_lines=5)
        lines = chart.splitlines()
        assert len(lines) == 6
        assert "more events" in lines[-1]

    def test_empty_trace(self):
        assert message_sequence_chart(Tracer()) == ""

    def test_a_trace_without_message_rows_is_refused(self):
        catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3], r=2, w=2).build()
        cluster = Cluster(catalog, protocol="qtp1")
        txn = cluster.update(origin=1, writes={"x": 1})
        cluster.run()
        # an empty or arrowless chart would read as "no message was sent"
        with pytest.raises(MessageRowsOffError, match="message_rows=True"):
            message_sequence_chart(cluster.tracer, txn.txn)
        with pytest.raises(MessageRowsOffError, match="message_rows=True"):
            message_sequence_chart(Tracer(messages=False))
