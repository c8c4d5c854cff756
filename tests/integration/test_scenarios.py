"""Tests of the canned paper scenarios themselves."""

import pytest

from repro.experiments.examples import (
    EXAMPLE1_GROUPS,
    FAILURE_TIME,
    example1_catalog,
    example3_catalog,
    run_example1_scenario,
    run_example3_scenario,
)


class TestCatalogs:
    def test_example1_layout(self):
        catalog = example1_catalog()
        assert catalog.sites_of("x") == [1, 2, 3, 4]
        assert catalog.sites_of("y") == [5, 6, 7, 8]
        assert (catalog.r("x"), catalog.w("x")) == (2, 3)
        assert (catalog.r("y"), catalog.w("y")) == (2, 3)

    def test_example3_layout(self):
        catalog = example3_catalog()
        assert catalog.sites_of("x") == [2, 3, 4, 5]
        assert catalog.sites_of("y") == [2, 3, 4, 5]


class TestExample1Scenario:
    def test_snapshot_state_is_fig3(self):
        """At the failure instant, site 5 is in PC and every other
        active participant is in W — exactly Fig. 3 (the last state row
        of each site up to that instant)."""
        result = run_example1_scenario("qtp1")
        states = {
            row.site: row.detail["dst"]
            for row in result.cluster.tracer.where(category="state", txn=result.txn.txn)
            if row.time <= FAILURE_TIME
        }
        assert states[5] == "PC"
        for site in (2, 3, 4, 6, 7, 8):
            assert states[site] == "W"

    def test_partition_groups_applied(self):
        result = run_example1_scenario("skq")
        components = result.cluster.network.partition.components
        expected = {frozenset(g) for g in EXAMPLE1_GROUPS}
        assert {frozenset(c) for c in components} == expected

    def test_coordinator_is_down(self):
        result = run_example1_scenario("skq")
        assert not result.cluster.sites[1].alive

    @pytest.mark.parametrize("protocol", ["2pc", "3pc", "skq", "qtp1", "qtp2"])
    def test_runs_to_quiescence_for_all_protocols(self, protocol):
        result = run_example1_scenario(protocol)
        assert result.cluster.scheduler.pending == 0

    def test_qtp2_blocks_everywhere_here(self):
        """Fig. 8's abort threshold (w of every item) is out of reach in
        every Fig. 3 partition, so TP2 blocks — the documented trade-off
        against TP1."""
        result = run_example1_scenario("qtp2")
        assert result.outcome == "blocked"


class TestExample3Scenario:
    def test_two_coordinators_polled(self):
        result = run_example3_scenario(enforce_ignore_rules=True)
        coordinators = {
            r.site
            for r in result.cluster.tracer.where(
                category="term-phase1", txn=result.txn.txn
            )
        }
        assert {2, 5} <= coordinators

    def test_broken_run_shows_conflicting_commands(self):
        result = run_example3_scenario(enforce_ignore_rules=False)
        assert result.report.conflicts + (not result.report.atomic) >= 1

    def test_seed_determinism(self):
        a = run_example3_scenario(True, seed=1)
        b = run_example3_scenario(True, seed=1)
        assert a.states() == b.states()
        assert a.outcome == b.outcome
