"""Edge-case tests of the shared protocol engine: duplicates, stale
attempts, idempotency, conflicting commands, recovery corners."""

import pytest

from repro import CatalogBuilder, Cluster, FailurePlan
from repro.net.message import Message
from repro.protocols.states import TxnState


@pytest.fixture
def catalog():
    return CatalogBuilder().replicated_item("x", sites=[1, 2, 3], r=2, w=2).build()


@pytest.fixture
def cluster(catalog):
    return Cluster(catalog, protocol="qtp1")


def committed_cluster(cluster):
    txn = cluster.update(origin=1, writes={"x": 5})
    cluster.run()
    assert cluster.outcome(txn.txn).outcome == "commit"
    return txn


class TestIdempotency:
    def test_duplicate_commit_command_absorbed(self, cluster):
        txn = committed_cluster(cluster)
        before = len(cluster.sites[2].wal)
        cluster.sites[2].deliver(Message(1, 2, "qtp1.commit", txn.txn))
        assert len(cluster.sites[2].wal) == before  # no re-logging
        assert cluster.outcome(txn.txn).conflicts == 0

    def test_conflicting_command_traced_not_applied(self, cluster):
        txn = committed_cluster(cluster)
        engine = cluster.sites[2].ensure_engine()
        cluster.sites[2].deliver(Message(1, 2, "qtp1.abort", txn.txn))
        # the first decision stands; the conflict is recorded
        assert engine.record(txn.txn).state is TxnState.C
        assert cluster.tracer.count("decision-conflict", txn=txn.txn) == 1
        assert cluster.sites[2].store.read("x").value == 5

    def test_duplicate_vote_req_ignored(self, cluster):
        txn = committed_cluster(cluster)
        engine = cluster.sites[2].ensure_engine()
        begins_before = len([r for r in cluster.sites[2].wal if r.kind == "begin"])
        engine._on_vote_req(
            Message(
                1,
                2,
                "qtp1.vote-req",
                txn.txn,
                {
                    "writes": {"x": [5, 1]},
                    "participants": [1, 2, 3],
                    "coordinator": 1,
                    "epoch": 0,
                },
            )
        )
        begins_after = len([r for r in cluster.sites[2].wal if r.kind == "begin"])
        assert begins_after == begins_before

    def test_duplicate_prepare_reacked(self, cluster):
        """A re-delivered PREPARE to a PC site is re-acked, not re-logged."""
        txn = cluster.update(origin=1, writes={"x": 5})
        cluster.run_until(3.2)  # participants are in PC now
        engine = cluster.sites[2].ensure_engine()
        assert engine.record(txn.txn).state is TxnState.PC
        pcs_before = len([r for r in cluster.sites[2].wal if r.kind == "pc"])
        engine._on_prepare(Message(1, 2, "qtp1.prepare", txn.txn))
        pcs_after = len([r for r in cluster.sites[2].wal if r.kind == "pc"])
        assert pcs_after == pcs_before

    def test_commands_for_unknown_txn_ignored(self, cluster):
        engine = cluster.sites[2].ensure_engine()
        cluster.sites[2].deliver(Message(1, 2, "qtp1.commit", "ghost"))
        cluster.sites[2].deliver(Message(1, 2, "qtp1.abort", "ghost"))
        assert engine.record("ghost") is None


class TestStaleTerminationMessages:
    def test_stale_attempt_state_reply_ignored(self, cluster):
        txn = cluster.update(origin=1, writes={"x": 5})
        cluster.arm_failures(FailurePlan().crash(1.5, 1))
        cluster.run_until(7.0)  # site 3 is coordinating attempt 1
        engine = cluster.sites[3].ensure_engine()
        record = engine.record(txn.txn)
        if record.terminating:
            engine._on_term_state(
                Message(2, 3, "qtp1.t.state", txn.txn, {"attempt": 999, "state": "C"})
            )
            assert 2 not in record.term_states or record.term_states[2] is not TxnState.C
        cluster.run()
        assert cluster.outcome(txn.txn).atomic

    def test_stale_ack_ignored(self, cluster):
        txn = cluster.update(origin=1, writes={"x": 5})
        cluster.arm_failures(FailurePlan().crash(1.5, 1))
        cluster.run_until(7.0)
        engine = cluster.sites[3].ensure_engine()
        record = engine.record(txn.txn)
        cluster.sites[3].deliver(Message(2, 3, "qtp1.t.pc-ack", txn.txn, {"attempt": 999}))
        assert 2 not in record.term_supporters
        cluster.run()
        assert cluster.outcome(txn.txn).atomic

    def test_ack_of_the_other_direction_ignored(self, cluster):
        """An abort round counts PA-ACKs of its attempt, never a PC-ACK."""
        txn = cluster.update(origin=1, writes={"x": 5})
        cluster.arm_failures(FailurePlan().crash(1.5, 1))
        cluster.run_until(7.0)  # site 3 runs attempt 1's abort round
        site = cluster.sites[3]
        record = site.engine.record(txn.txn)
        assert record.term_round.mode == "abort-round"
        assert record.term_supporters == {3}
        site.deliver(Message(2, 3, "qtp1.t.pc-ack", txn.txn, {"attempt": 1}))
        assert record.term_supporters == {3}
        site.deliver(Message(2, 3, "qtp1.t.pa-ack", txn.txn, {"attempt": 1}))
        assert record.term_supporters == {2, 3}
        cluster.run()
        assert cluster.outcome(txn.txn).outcome == "abort"

    def test_state_req_materializes_q_record(self, cluster):
        """A site that never saw the vote-req answers a termination poll
        from the initial state — the paper's immediate-abort witness."""
        engine = cluster.sites[3].ensure_engine()
        engine._on_term_state_req(
            Message(
                2,
                3,
                "qtp1.t.state-req",
                "T-new",
                {
                    "attempt": 1,
                    "coordinator": 2,
                    "writes": {"x": [1, 1]},
                    "participants": [1, 2, 3],
                    "epoch": 0,
                },
            )
        )
        record = engine.record("T-new")
        assert record is not None
        assert record.state is TxnState.Q

    def test_q_site_never_accepts_prepare(self, cluster):
        """A Q participant must not enter a committable state."""
        engine = cluster.sites[3].ensure_engine()
        engine._on_term_state_req(
            Message(
                2, 3, "qtp1.t.state-req", "T-q",
                {"attempt": 1, "coordinator": 2, "writes": {"x": [1, 1]},
                 "participants": [1, 2, 3], "epoch": 0},
            )
        )
        cluster.sites[3].deliver(Message(2, 3, "qtp1.t.ptc", "T-q", {"attempt": 1}))
        assert engine.record("T-q").state is TxnState.Q


class TestIgnoreRuleBothDirections:
    """Fig. 6 has no PC <-> PA move, so a site in PA ignores
    PREPARE-TO-COMMIT and a site in PC ignores PREPARE-TO-ABORT: each
    direction of the one prepare handler.  With the rule off (Example
    3's broken variant) both prepares are taken and acked."""

    @staticmethod
    def prepared(catalog, enforce):
        """Site 2 in PA and site 3 in PC, put there by site 1's
        prepares while every participant waits in W."""
        cluster = Cluster(catalog, protocol="qtp1", enforce_ignore_rules=enforce, message_rows=True)
        txn = cluster.update(origin=1, writes={"x": 5}).txn
        cluster.run_until(1.5)  # every participant voted yes
        cluster.sites[2].deliver(Message(1, 2, "qtp1.t.pta", txn, {"attempt": 1}))
        cluster.sites[3].deliver(Message(1, 3, "qtp1.t.ptc", txn, {"attempt": 1}))
        return cluster, txn

    @staticmethod
    def cross_prepares(cluster, txn):
        """Each site gets the other direction's prepare."""
        cluster.sites[2].deliver(Message(1, 2, "qtp1.t.ptc", txn, {"attempt": 1}))
        cluster.sites[3].deliver(Message(1, 3, "qtp1.t.pta", txn, {"attempt": 1}))

    @staticmethod
    def observed(cluster, txn):
        """(acks sent, state moves, prepared-state log rows) per site 2 and 3."""
        tracer = cluster.tracer
        acks = [
            (site, detail["mtype"])
            for _, site, detail in tracer.entries("send", txn)
            if detail["mtype"].endswith("-ack")
        ]
        moves = [
            (site, detail["src"], detail["dst"], detail["via"])
            for _, site, detail in tracer.entries("state", txn)
            if site in (2, 3) and detail["via"].startswith("t.")
        ]
        logged = {
            site: [r.kind for r in cluster.sites[site].wal if r.kind in ("pc", "pa")]
            for site in (2, 3)
        }
        return acks, moves, logged

    def test_pa_ignores_ptc_and_pc_ignores_pta(self, catalog):
        cluster, txn = self.prepared(catalog, enforce=True)
        self.cross_prepares(cluster, txn)
        ignored = [
            (site, detail["mtype"], detail["state"])
            for _, site, detail in cluster.tracer.entries("ignored", txn)
        ]
        assert ignored == [(2, "t.ptc", "PA"), (3, "t.pta", "PC")]
        acks, moves, logged = self.observed(cluster, txn)
        assert acks == [(2, "qtp1.t.pa-ack"), (3, "qtp1.t.pc-ack")]
        assert moves == [(2, "W", "PA", "t.pta-from-1"), (3, "W", "PC", "t.ptc-from-1")]
        assert logged == {2: ["pa"], 3: ["pc"]}
        assert cluster.sites[2].engine.record(txn).state is TxnState.PA
        assert cluster.sites[3].engine.record(txn).state is TxnState.PC

    def test_without_the_rule_both_prepares_are_acked(self, catalog):
        cluster, txn = self.prepared(catalog, enforce=False)
        self.cross_prepares(cluster, txn)
        assert cluster.tracer.count("ignored", txn=txn) == 0
        acks, moves, logged = self.observed(cluster, txn)
        assert acks == [
            (2, "qtp1.t.pa-ack"),
            (3, "qtp1.t.pc-ack"),
            (2, "qtp1.t.pc-ack"),
            (3, "qtp1.t.pa-ack"),
        ]
        assert moves == [
            (2, "W", "PA", "t.pta-from-1"),
            (3, "W", "PC", "t.ptc-from-1"),
            (2, "PA", "PC", "t.ptc-from-1"),
            (3, "PC", "PA", "t.pta-from-1"),
        ]
        assert logged == {2: ["pa", "pc"], 3: ["pc", "pa"]}
        # the moves Fig. 6 forbids, each traced as such
        assert cluster.tracer.count("illegal-transition", txn=txn) == 2


class TestCoordinatorRecoveryCorners:
    def test_decided_coordinator_rebroadcasts(self, catalog):
        """Coordinator crashes after logging commit but before all
        commands land; recovery re-announces."""
        cluster = Cluster(catalog, protocol="2pc")
        # the commit command to site 3 is lost
        cluster.network.add_filter(
            lambda m: m.mtype == "2pc.commit" and m.dst == 3
        )
        txn = cluster.update(origin=1, writes={"x": 5})
        cluster.arm_failures(FailurePlan().crash(2.5, 1))
        cluster.run_until(4.0)
        cluster.network.clear_filters()
        cluster.arm_failures(FailurePlan().recover(50.0, 1))
        cluster.run()
        report = cluster.outcome(txn.txn)
        assert report.outcome == "commit"
        assert 3 in report.committed_sites  # learned from the re-broadcast

    def test_pure_coordinator_recovery(self, catalog):
        """An origin hosting no copies still recovers its coordinator
        role from the WAL (presumed abort for 2PC)."""
        cluster = Cluster(catalog, protocol="2pc", extra_sites=[9])
        txn = cluster.update(origin=9, writes={"x": 5})
        cluster.arm_failures(FailurePlan().crash(1.5, 9).recover(40.0, 9))
        cluster.run()
        report = cluster.outcome(txn.txn)
        assert report.outcome == "abort"
        assert set(report.aborted_sites) == {1, 2, 3}

    def test_threepc_recovered_coordinator_does_not_presume_abort(self, catalog):
        """For the three-phase families the prepare may have gone out;
        the recovered coordinator must defer to termination (which here
        commits — everyone reached PC)."""
        cluster = Cluster(catalog, protocol="qtp1", extra_sites=[9])
        txn = cluster.update(origin=9, writes={"x": 5})
        cluster.arm_failures(FailurePlan().crash(3.5, 9).recover(60.0, 9))
        cluster.run()
        report = cluster.outcome(txn.txn)
        assert report.outcome == "commit"


class TestMultiTransactionIndependence:
    def test_termination_is_per_transaction(self, cluster):
        """A failure terminating one transaction must not disturb an
        unrelated committed one."""
        t1 = cluster.update(origin=1, writes={"x": 1})
        cluster.run()
        t2 = cluster.update(origin=2, writes={"x": 2})
        cluster.arm_failures(FailurePlan().crash(cluster.scheduler.now + 1.5, 2))
        cluster.run()
        assert cluster.outcome(t1.txn).outcome == "commit"
        report2 = cluster.outcome(t2.txn)
        assert report2.atomic
        assert cluster.read(1, "x").value in (1, 2)

    def test_interleaved_transactions_both_atomic(self, cluster):
        t1 = cluster.update(origin=1, writes={"x": 1})
        cluster.run_until(0.5)
        # t2 conflicts on locks and will vote no -> abort; t1 commits
        cluster.update(origin=2, writes={"x": 2}, txn_id="T-late")
        cluster.run()
        assert cluster.outcome(t1.txn).atomic
        assert cluster.outcome("T-late").atomic