"""Unit-level tests of the election mixin, driven directly."""

import pytest

from repro import CatalogBuilder, Cluster
from repro.election.bully import MAX_ELECTION_ROUNDS
from repro.net.message import Message


def build(**kwargs):
    catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3).build()
    return Cluster(catalog, protocol="qtp1", **kwargs)


@pytest.fixture
def cluster():
    return build()


def with_records(cluster):
    """Give every site a W-state record without running a protocol."""
    txn = cluster.update(origin=1, writes={"x": 1})
    cluster.run_until(1.5)  # votes cast; records exist, state W
    return txn


class TestStartElection:
    def test_no_record_is_noop(self, cluster):
        engine = cluster.sites[2].ensure_engine()
        engine.start_election("ghost")  # must not raise
        assert not cluster.tracer.where(category="election", txn="ghost")

    def test_decided_record_is_noop(self, cluster):
        txn = cluster.update(origin=1, writes={"x": 1})
        cluster.run()
        engine = cluster.sites[2].ensure_engine()
        engine.start_election(txn.txn)
        assert not cluster.tracer.where(category="election", txn=txn.txn)

    def test_blocked_record_is_noop(self, cluster):
        txn = with_records(cluster)
        record = cluster.sites[2].ensure_engine().record(txn.txn)
        record.blocked = True
        cluster.sites[2].ensure_engine().start_election(txn.txn)
        assert record.election_rounds == 0

    def test_round_counter_increments(self, cluster):
        txn = with_records(cluster)
        engine = cluster.sites[2].ensure_engine()
        engine.start_election(txn.txn)
        assert engine.record(txn.txn).election_rounds == 1

    def test_round_budget_enforced(self, cluster):
        txn = with_records(cluster)
        engine = cluster.sites[2].ensure_engine()
        record = engine.record(txn.txn)
        record.election_rounds = MAX_ELECTION_ROUNDS
        engine.start_election(txn.txn)
        assert record.blocked
        gave_up = cluster.tracer.where(
            category="blocked",
            txn=txn.txn,
            pred=lambda r: r.detail.get("reason") == "election-rounds-exhausted",
        )
        assert gave_up

    def test_highest_site_self_elects_immediately(self, cluster):
        txn = with_records(cluster)
        engine = cluster.sites[4].ensure_engine()  # no higher participant
        engine.start_election(txn.txn)
        cluster.run_until(cluster.scheduler.now + 0.01)
        assert cluster.tracer.where(category="coordinator", txn=txn.txn, site=4)


class TestInquiryResponses:
    @pytest.fixture
    def cluster(self):
        # the replies are read from the trace's send rows
        return build(message_rows=True)

    def test_alive_reply_to_inquiry(self, cluster):
        txn = with_records(cluster)
        engine = cluster.sites[3].ensure_engine()
        engine._on_elect_inquiry(Message(2, 3, "elect.inquiry", txn.txn))
        cluster.run()
        alive = [
            r
            for r in cluster.tracer.where(category="send", txn=txn.txn)
            if r.detail.get("mtype") == "elect.alive" and r.site == 3
        ]
        assert alive

    def test_decided_site_sends_outcome(self, cluster):
        txn = cluster.update(origin=1, writes={"x": 1})
        cluster.run()
        sends_before = cluster.tracer.count("send")
        engine = cluster.sites[3].ensure_engine()
        engine._on_elect_inquiry(Message(2, 3, "elect.inquiry", txn.txn))
        new_sends = cluster.tracer.where(category="send")[sends_before:]
        mtypes = {r.detail["mtype"] for r in new_sends}
        assert "qtp1.commit" in mtypes

    def test_nonparticipant_stays_silent(self, cluster):
        engine = cluster.sites[3].ensure_engine()
        sends_before = cluster.tracer.count("send")
        engine._on_elect_inquiry(Message(2, 3, "elect.inquiry", "ghost"))
        assert cluster.tracer.count("send") == sends_before

    def test_alive_marks_heard_higher(self, cluster):
        txn = with_records(cluster)
        engine = cluster.sites[2].ensure_engine()
        record = engine.record(txn.txn)
        record.electing = True
        engine._on_elect_alive(Message(3, 2, "elect.alive", txn.txn))
        assert record.heard_higher
