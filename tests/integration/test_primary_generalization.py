"""Tests for the §5 generalization: termination over primary copies."""

import pytest

from repro import CatalogBuilder, Cluster, FailurePlan
from repro.common.errors import ConfigurationError, QuorumUnreachableError
from repro.experiments.sweeps import modelcheck
from repro.protocols.base import Decision
from repro.protocols.qtp.generalized import PrimaryTerminationRule
from repro.protocols.states import TxnState
from repro.experiments.examples import example1_catalog

W, PA, PC, A, C, Q = (
    TxnState.W,
    TxnState.PA,
    TxnState.PC,
    TxnState.A,
    TxnState.C,
    TxnState.Q,
)


def fig3_catalog(x=None, y=None):
    """The Fig. 3 database (x at 1-4, y at 5-8) with the given primaries."""
    return (
        CatalogBuilder()
        .replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3, primary=x)
        .replicated_item("y", sites=[5, 6, 7, 8], r=2, w=3, primary=y)
        .build()
    )


def primaries(catalog):
    return {name: catalog.primary(name) for name in catalog.item_names}


class TestCatalogPrimary:
    """The primary is part of placement: one per item, per epoch."""

    def test_defaults_to_lowest_host(self):
        assert primaries(example1_catalog()) == {"x": 1, "y": 5}

    def test_primary_must_host_a_copy(self):
        with pytest.raises(ConfigurationError, match="hosts no copy"):
            fig3_catalog(x=7)

    def test_an_explicit_primary_survives_an_unrelated_leave(self):
        catalog = fig3_catalog(x=2, y=6)
        for leaver in (1, 3, 5, 8):
            nxt, __ = catalog.evict_site(leaver)
            assert primaries(nxt) == {"x": 2, "y": 6}, leaver

    def test_a_join_keeps_every_primary(self):
        for catalog in (fig3_catalog(x=2, y=6), example1_catalog()):
            before = primaries(catalog)
            # site 0 would be the lowest host of both items
            nxt = catalog.admit_site(0, {"x": 1, "y": 1})
            assert primaries(nxt) == before
            assert primaries(nxt.admit_site(9, {"x": 1})) == before

    def test_evicting_the_primary_rederives_it_in_the_next_epoch_only(self):
        catalog = fig3_catalog(x=2, y=6)
        nxt, __ = catalog.evict_site(2)
        assert primaries(nxt) == {"x": 1, "y": 6}
        assert primaries(catalog) == {"x": 2, "y": 6}  # the earlier epoch keeps its own
        default = example1_catalog()
        nxt, __ = default.evict_site(5)
        assert primaries(nxt) == {"x": 1, "y": 6}
        assert primaries(default) == {"x": 1, "y": 5}


class TestPrimaryRule:
    @pytest.fixture
    def rule(self):
        return PrimaryTerminationRule()

    #: primaries x -> 2, y -> 6
    CATALOG = fig3_catalog(x=2, y=6)
    ITEMS = ["x", "y"]

    def decide(self, rule, states):
        return rule.evaluate(self.ITEMS, states, catalog=self.CATALOG)

    def test_commit_when_all_primaries_in_pc(self, rule):
        assert self.decide(rule, {2: PC, 6: PC}) is Decision.COMMIT

    def test_no_commit_on_partial_primaries(self, rule):
        assert self.decide(rule, {2: PC, 5: PC}) is not Decision.COMMIT

    def test_abort_when_some_primary_in_pa(self, rule):
        assert self.decide(rule, {2: PA, 3: W}) is Decision.ABORT

    def test_try_abort_with_reachable_primary(self, rule):
        assert self.decide(rule, {2: W, 3: W}) is Decision.TRY_ABORT

    def test_block_without_any_primary(self, rule):
        assert self.decide(rule, {3: W, 4: W, 5: PC}) is Decision.BLOCK

    def test_try_commit_needs_pc_and_all_primaries(self, rule):
        assert self.decide(rule, {2: W, 5: PC, 6: W}) is Decision.TRY_COMMIT

    def test_rounds(self, rule):
        catalog = self.CATALOG
        assert rule.commits(self.ITEMS, {2, 6}, None, catalog)
        assert not rule.commits(self.ITEMS, {2}, None, catalog)
        assert not rule.commits([], {2, 6}, None, catalog)  # vacuous no
        assert rule.aborts(self.ITEMS, {6}, None, catalog)
        assert not rule.aborts(self.ITEMS, {3, 7}, None, catalog)

    def test_q_and_c_dominance(self, rule):
        assert self.decide(rule, {2: Q, 6: PC}) is Decision.ABORT
        assert self.decide(rule, {3: C}) is Decision.COMMIT

    def test_primaries_come_from_the_catalog_handed_in(self, rule):
        # the same states under the default primaries (x -> 1, y -> 5)
        assert rule.evaluate(self.ITEMS, {2: PC, 6: PC}, catalog=example1_catalog()) is (
            Decision.BLOCK
        )

    def test_unknown_item(self, rule):
        with pytest.raises(ConfigurationError, match="unknown item"):
            rule.evaluate(["ghost"], {2: PC}, catalog=self.CATALOG)


class TestPrimaryEngineEndToEnd:
    def test_fig3_partitions_with_primaries_terminate(self):
        cluster = Cluster(fig3_catalog(x=2, y=6), protocol="qtpp")
        cluster.network.add_filter(
            lambda m: m.mtype.endswith(".prepare") and m.dst != 5
        )
        txn = cluster.update(origin=1, writes={"x": 1, "y": 2})
        cluster.arm_failures(
            FailurePlan().crash(3.5, 1).partition(3.5, [1, 2, 3], [4, 5], [6, 7, 8])
        )
        cluster.run()
        report = cluster.outcome(txn.txn)
        assert report.atomic
        states = cluster.states(txn.txn)
        assert states[2] == "A" and states[3] == "A"  # G1 holds x's primary
        assert states[6] == "A"  # G3 holds y's primary
        assert states[4] == "W" and states[5] == "PC"  # G2 blocked

    def test_early_commit_on_primary_acks(self):
        catalog = (
            CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4, 5], r=2, w=4, primary=2).build()
        )
        cluster = Cluster(catalog, protocol="qtpp")
        # only the primary's ack arrives
        cluster.network.add_filter(
            lambda m: m.mtype == "qtpp.ack" and m.src != 2
        )
        txn = cluster.update(origin=1, writes={"x": 9})
        cluster.run()
        assert cluster.outcome(txn.txn).outcome == "commit"
        early = cluster.tracer.where(category="coord-early-commit", txn=txn.txn)
        assert early and early[0].detail["ackers"] == [2]

    def test_only_the_primarys_partition_may_write(self):
        # {3, 4, 5} holds w(x) = 3 votes but not x's primary: under the
        # primary-copy strategy it may not write x (the transaction
        # could never gather the primary's ack, and would block)
        catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4, 5], r=3, w=3).build()
        for protocol in ("qtpp", "qtp1"):
            cluster = Cluster(catalog, protocol=protocol)
            cluster.network.set_partition([[1, 2], [3, 4, 5]])
            if protocol == "qtpp":
                with pytest.raises(QuorumUnreachableError):
                    cluster.update(origin=3, writes={"x": 1})
                txn = cluster.transaction(origin=3)
                txn.write("x", 1)
                with pytest.raises(QuorumUnreachableError):
                    txn.submit()
            else:
                cluster.update(origin=3, writes={"x": 1})

    def test_modelcheck_qtpp_atomic(self):
        result = modelcheck("qtpp", runs=40, base_seed=300)
        assert result.theorem_holds, result.seeds_with_violation