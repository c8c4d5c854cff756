"""Integration tests for the E22–E25 WorkloadSpec scenario drivers."""

import pytest

from repro.experiments.workload_scenarios import (
    cross_region_scenario,
    elastic_join_scenario,
    read_mostly_scenario,
    skewed_contention_scenario,
)
from repro.experiments.workload_study import heavy_workload_scenario
from repro.sim.failures import JoinSite
from repro.traffic import run_scenario
from repro.workload.spec import WorkloadSpec


class TestSkewedContention:
    def test_zipf_opens_contention_uniform_cannot_reach(self):
        """The whole point of the regime: the same harness under Zipf
        popularity collides far more often than under uniform."""
        skewed = run_scenario(skewed_contention_scenario(n_txns=60, zipf_s=1.6), "qtp1", 0).counters()
        uniform = run_scenario(heavy_workload_scenario(n_txns=60, mean_spacing=1.2), "qtp1", 0).result
        assert skewed["client_aborted"] > 2 * uniform.client_aborted
        assert skewed["submitted"] == 60
        assert skewed["serializable"]

    def test_hot_item_draws_the_stream(self):
        out = run_scenario(skewed_contention_scenario(n_txns=60, zipf_s=1.6), "2pc", 1).counters()
        # among the transactions that made it past the no-wait client
        # (most hot-item ones abort right there), the rank-1 item still
        # draws far more than the uniform 1/n_items share
        protocol_txns = out["committed"] + out["protocol_aborted"] + out["blocked"]
        assert out["hot_txns"] > protocol_txns * 0.25


class TestReadMostly:
    def test_reads_ride_the_fast_path(self):
        out = run_scenario(read_mostly_scenario(n_txns=60, read_fraction=0.8), "qtp1", 0).counters()
        # ~80% of the stream is read-only; under contention a share of
        # those no-wait reads abort on conflicting update locks
        assert out["reads_committed"] > 20
        assert out["reads_committed"] > out["committed"]
        assert out["committed"] > 0  # the update tail still commits
        assert out["serializable"]

    def test_zero_read_fraction_degenerates_to_heavy_workload(self):
        spec = WorkloadSpec(n_txns=30, read_fraction=0.0, mean_spacing=1.0)
        via_spec = run_scenario(heavy_workload_scenario(), "qtp1", 3, workload=spec).result
        direct = run_scenario(heavy_workload_scenario(n_txns=30, mean_spacing=1.0), "qtp1", 3).result
        assert via_spec.txn_outcomes == direct.txn_outcomes


class TestCrossRegion:
    def test_spanning_slice_originates_remotely(self):
        out = run_scenario(cross_region_scenario(n_txns=30, cross_region=1.0), "qtp1", 0).counters()
        assert out["cross_origin"] > 20  # nearly every op is cross-region
        assert out["submitted"] == 30

    def test_region_partition_refuses_remote_quorums(self):
        cut = run_scenario(cross_region_scenario(n_txns=30, cross_region=1.0), "qtp1", 0).counters()
        never = (1000.0, 1001.0)  # a partition window the run never reaches
        calm = run_scenario(
            cross_region_scenario(n_txns=30, cross_region=1.0, partition_window=never), "qtp1", 0
        ).counters()
        assert cut["refused"] > calm["refused"]

    def test_home_traffic_still_commits(self):
        out = run_scenario(cross_region_scenario(n_txns=30, cross_region=0.3), "qtp1", 2).counters()
        assert out["committed"] > 0


class TestElasticJoin:
    def test_joins_apply_and_enlist_participants(self):
        run = run_scenario(elastic_join_scenario(n_txns=60, n_joins=3), "qtp1", 0)
        out = run.counters()
        assert out["joins_applied"] == 3
        assert out["joined_hosting"] == 3 * 2  # every joiner hosts both hot items
        assert out["participants_with_joined"] > 0
        assert out["serializable"]
        # the stream draws origins from the current placement: a joined
        # site issues transactions too
        joined = {a.site for a in run.cluster.injector.applied if isinstance(a, JoinSite)}
        assert joined & {handle.origin for handle in run.engine.handles.values()}

    def test_consistent_across_protocols(self):
        for protocol in ("qtp1", "qtp2", "2pc"):
            out = run_scenario(elastic_join_scenario(n_txns=40, n_joins=2), protocol, 1).counters()
            assert out["joins_applied"] == 2
            assert out["serializable"], protocol

    def test_deterministic_in_seed(self):
        a = run_scenario(elastic_join_scenario(), "qtp1", 5).counters()
        b = run_scenario(elastic_join_scenario(), "qtp1", 5).counters()
        assert a == b


@pytest.mark.slow
class TestScenarioDeepSweep:
    """Weekly deep run: every driver across many seeds and protocols —
    1SR must hold in every single run, and elastic joins must always
    land cleanly."""

    def test_serializable_across_seeds_and_protocols(self):
        for seed in range(8):
            for protocol in ("2pc", "qtp1", "qtp2"):
                skewed = run_scenario(skewed_contention_scenario(n_txns=40), protocol, seed).counters()
                assert skewed["serializable"], (protocol, seed)
                mixed = run_scenario(read_mostly_scenario(n_txns=40), protocol, seed).counters()
                assert mixed["serializable"], (protocol, seed)
                elastic = run_scenario(elastic_join_scenario(n_txns=40), protocol, seed).counters()
                assert elastic["serializable"], (protocol, seed)
                assert elastic["joins_applied"] == 3, (protocol, seed)

    def test_cross_region_never_pins_locks_forever(self):
        """A stranded cross-region coordinator may leave a transaction
        undecided (no participant ever durably joined), but after the
        final heal nothing may stay blocked *holding locks*."""
        for seed in range(8):
            out = run_scenario(cross_region_scenario(n_txns=30), "qtp1", seed).counters()
            assert out["blocked_holding_locks"] == 0, seed
