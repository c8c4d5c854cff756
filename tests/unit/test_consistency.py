"""Unit tests for the atomicity checker."""

from repro.analysis.consistency import check_atomicity
from repro.sim.trace import Tracer


def trace_with(decisions, conflicts=0, illegal=0, blocked=()):
    tracer = Tracer()
    for site, outcome in decisions:
        tracer.record(1.0, site, "decision", "T1", outcome=outcome, via="test")
    for __ in range(conflicts):
        tracer.record(2.0, 0, "decision-conflict", "T1", have="C", wanted="A")
    for __ in range(illegal):
        tracer.record(2.0, 0, "illegal-transition", "T1", src="PC", dst="PA")
    for site in blocked:
        tracer.record(2.0, site, "blocked", "T1", reason="no-quorum")
    return tracer


class TestAtomicity:
    def test_all_commit_is_atomic(self):
        report = check_atomicity(trace_with([(1, "commit"), (2, "commit")]), "T1", [1, 2])
        assert report.atomic
        assert report.outcome == "commit"
        assert report.fully_terminated

    def test_all_abort_is_atomic(self):
        report = check_atomicity(trace_with([(1, "abort")]), "T1", [1])
        assert report.atomic and report.outcome == "abort"

    def test_mixed_outcome_violates(self):
        report = check_atomicity(
            trace_with([(1, "commit"), (2, "abort")]), "T1", [1, 2]
        )
        assert not report.atomic
        assert report.outcome == "mixed"

    def test_per_site_conflict_counts(self):
        report = check_atomicity(trace_with([(1, "commit")], conflicts=2), "T1", [1])
        assert report.conflicts == 2
        assert not report.atomic

    def test_conflicting_decision_records_same_site(self):
        tracer = trace_with([(1, "commit")])
        tracer.record(3.0, 1, "decision", "T1", outcome="abort", via="late")
        report = check_atomicity(tracer, "T1", [1])
        assert report.conflicts >= 1

    def test_undecided_and_blocked(self):
        report = check_atomicity(
            trace_with([(1, "commit")], blocked=(2,)), "T1", [1, 2]
        )
        assert report.undecided_sites == [2]
        assert report.blocked_sites == [2]
        assert not report.fully_terminated

    def test_blocked_outcome(self):
        report = check_atomicity(trace_with([], blocked=(1, 2)), "T1", [1, 2])
        assert report.outcome == "blocked"
        assert report.atomic  # blocked is safe, just unavailable

    def test_decisions_outside_participants_ignored(self):
        report = check_atomicity(trace_with([(9, "commit")]), "T1", [1])
        assert report.committed_sites == []

    def test_illegal_transitions_counted(self):
        report = check_atomicity(trace_with([(1, "commit")], illegal=1), "T1", [1])
        assert report.illegal_transitions == 1

    def test_describe_renders(self):
        report = check_atomicity(trace_with([(1, "commit")]), "T1", [1])
        assert "T1" in report.describe()
