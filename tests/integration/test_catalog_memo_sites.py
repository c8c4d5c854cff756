"""Stream-identity checks for the memoized-catalog call sites.

The experiment drivers that build their catalog through
:func:`~repro.workload.generators.memoized_catalog` must be
*bit-identical* to a cold build: the memo captures the pre-build RNG
state and restores the post-build state on a hit, so a warm run draws
the exact same stream as a cold one.  Each test clears the worker cache
(cold), runs once to populate it, and asserts the warm rerun agrees on
every deterministic output.
"""

from repro.engine.executor import clear_worker_cache
from repro.experiments.sweeps import modelcheck_run, storm_run
from repro.experiments.workload_study import workload_scenario
from repro.replay import cluster_counters
from repro.traffic import run_scenario
from repro.experiments.sweeps import wan_storm_scenario


class TestStreamIdentity:
    def test_storm_run_cold_vs_warm(self):
        clear_worker_cache()
        cold = [storm_run(seed, "qtp1") for seed in range(3)]
        warm = [storm_run(seed, "qtp1") for seed in range(3)]
        assert cold == warm

    def test_modelcheck_run_cold_vs_warm(self):
        clear_worker_cache()
        cold = [modelcheck_run(seed, "qtp2") for seed in range(3)]
        warm = [modelcheck_run(seed, "qtp2") for seed in range(3)]
        assert cold == warm

    def test_run_workload_cold_vs_warm(self):
        clear_worker_cache()
        cold = run_scenario(workload_scenario(n_txns=10), "qtp1", 4).result
        warm = run_scenario(workload_scenario(n_txns=10), "qtp1", 4).result
        assert cold == warm

    def test_run_wan_storm_cold_vs_warm(self):
        clear_worker_cache()
        scenario = wan_storm_scenario(n_regions=3, sites_per_region=4)
        cold = run_scenario(scenario, "qtp1", 2)
        warm = run_scenario(scenario, "qtp1", 2)
        txn = cold.txn.txn
        assert cold.cluster.outcome(txn).outcome == warm.cluster.outcome(txn).outcome
        assert cold.cluster.states(txn) == warm.cluster.states(txn)
        assert cluster_counters(cold.cluster) == cluster_counters(warm.cluster)
