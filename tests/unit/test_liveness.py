"""Unit tests for the liveness timeline extraction."""

import math

from repro.analysis.liveness import termination_timeline
from repro.sim.trace import Tracer


def make_trace(with_fault=True, with_decisions=True):
    tracer = Tracer()
    tracer.record(0.0, 1, "coord-begin", "T1", participants=[1, 2])
    if with_fault:
        tracer.record(3.5, 1, "crash")
        tracer.record(3.5, -1, "partition", groups=[[1], [2]])
    tracer.record(6.0, 2, "election", "T1", round=1)
    tracer.record(8.0, 2, "term-phase1", "T1", attempt=1)
    if with_decisions:
        tracer.record(12.0, 2, "decision", "T1", outcome="abort", via="term")
        tracer.record(13.0, 3, "decision", "T1", outcome="abort", via="term")
    return tracer


class TestTimeline:
    def test_latencies(self):
        timeline = termination_timeline(make_trace(), "T1")
        assert timeline.begin_time == 0.0
        assert timeline.first_fault_time == 3.5
        assert timeline.last_decision_time == 13.0
        assert timeline.termination_latency == 9.5
        assert timeline.ever_decided

    def test_counts(self):
        timeline = termination_timeline(make_trace(), "T1")
        assert timeline.elections == 1
        assert timeline.term_attempts == 1

    def test_no_decisions(self):
        timeline = termination_timeline(make_trace(with_decisions=False), "T1")
        assert not timeline.ever_decided
        assert math.isnan(timeline.termination_latency)

    def test_no_fault(self):
        timeline = termination_timeline(make_trace(with_fault=False), "T1")
        assert math.isnan(timeline.first_fault_time)

    def test_empty_trace(self):
        timeline = termination_timeline(Tracer(), "T1")
        assert timeline.begin_time == 0.0
        assert not timeline.ever_decided
