"""Integration tests of the E18 heavy-traffic workload (extension)."""

from repro.experiments.workload_study import heavy_traffic_study, heavy_workload_scenario
from repro.traffic import run_scenario


class TestRunHeavyWorkload:
    def test_tallies_are_complete(self):
        result = run_scenario(heavy_workload_scenario(n_txns=40), "qtp1", 3).result
        total = (
            result.committed
            + result.client_aborted
            + result.protocol_aborted
            + result.blocked
        )
        assert total == result.submitted
        assert result.submitted > 0

    def test_contention_is_real(self):
        """Poisson arrivals at this rate must actually overlap: some
        transactions lose locks or quorums, or the workload isn't heavy."""
        result = run_scenario(heavy_workload_scenario(n_txns=60), "qtp1", 0).result
        assert result.client_aborted + result.protocol_aborted > 0
        assert result.committed > 0

    def test_serializable_under_contention(self):
        for seed in range(3):
            assert run_scenario(heavy_workload_scenario(n_txns=40), "qtp2", seed).result.serializable

    def test_nothing_blocked_after_final_heal(self):
        for protocol in ("qtp1", "qtp2"):
            result = run_scenario(heavy_workload_scenario(n_txns=40), protocol, 1).result
            assert result.blocked == 0

    def test_deterministic(self):
        a = run_scenario(heavy_workload_scenario(n_txns=30), "qtp1", 5).result
        b = run_scenario(heavy_workload_scenario(n_txns=30), "qtp1", 5).result
        assert a.txn_outcomes == b.txn_outcomes

    def test_multiple_episodes_scheduled(self):
        """With episodes=3 the run must survive three partition/heal
        cycles and still satisfy the correctness bar."""
        result = run_scenario(heavy_workload_scenario(n_txns=50, episodes=3), "qtp1", 2).result
        assert result.serializable
        assert result.blocked == 0


class TestHeavyTrafficStudy:
    def test_protocols_see_same_seeds(self):
        rows = heavy_traffic_study(("qtp1", "qtp2"), runs=2, n_txns=30)
        assert rows[0].submitted == rows[1].submitted

    def test_parallel_matches_serial(self):
        serial = heavy_traffic_study(("qtp1",), runs=2, n_txns=30, workers=1)
        parallel = heavy_traffic_study(("qtp1",), runs=2, n_txns=30, workers=2)
        assert serial == parallel

    def test_every_run_serializable(self):
        for row in heavy_traffic_study(runs=2, n_txns=30):
            assert row.serializable
