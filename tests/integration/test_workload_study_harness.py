"""Tests of the live-workload study harness (E17)."""

import pytest

from repro.experiments.workload_study import workload_scenario, workload_study
from repro.traffic import run_scenario


class TestRunWorkload:
    def test_tallies_are_complete(self):
        result = run_scenario(workload_scenario(n_txns=12), "qtp1", 3).result
        total = (
            result.committed
            + result.client_aborted
            + result.protocol_aborted
            + result.blocked
        )
        assert total == result.submitted
        assert result.submitted > 0

    def test_every_run_serializable(self):
        for seed in range(4):
            assert run_scenario(workload_scenario(n_txns=12), "qtp2", seed).result.serializable

    def test_deterministic(self):
        a = run_scenario(workload_scenario(n_txns=12), "qtp1", 5).result
        b = run_scenario(workload_scenario(n_txns=12), "qtp1", 5).result
        assert a.txn_outcomes == b.txn_outcomes

    def test_partition_actually_causes_friction(self):
        """With the partition window covering the whole run, some
        transactions must fail to commit (otherwise the episode tested
        nothing)."""
        result = run_scenario(workload_scenario(n_txns=16, partition_window=(2.0, 200.0)), "qtp1", 1).result
        assert result.committed < result.submitted

    def test_outcomes_vocabulary(self):
        result = run_scenario(workload_scenario(n_txns=10), "2pc", 2).result
        assert set(result.txn_outcomes.values()) <= {
            "commit",
            "abort",
            "blocked",
            "client-aborted",
        }


class TestStudy:
    def test_aggregation(self):
        rows = workload_study(("qtp1",), runs=2, n_txns=8)
        assert rows[0].submitted > 0
        assert rows[0].serializable

    def test_protocols_see_same_seeds(self):
        rows = workload_study(("qtp1", "qtp2"), runs=2, n_txns=8)
        assert rows[0].submitted == rows[1].submitted
