"""E27/E28 integration: rolling upgrades, flash crowds, gray failures.

The drivers are deterministic counter machines like every other
experiment; these tests pin the semantics the bench baselines cannot
express — waves complete, the controller moves, the gray episode shows
up in the right counters and *only* the right counters.
"""

import pytest

from repro.experiments.resilience_study import (
    flash_crowd_scenario,
    gray_failure_plan,
    gray_failure_scenario,
    rolling_upgrade_plan,
    rolling_upgrade_scenario,
)
from repro.sim.rng import RngRegistry
from repro.traffic import AdaptiveWindow, run_scenario
from repro.workload.generators import random_catalog


class TestRollingUpgrade:
    def test_every_wave_completes_and_restores(self):
        result = run_scenario(rolling_upgrade_scenario(n_txns=50, waves=3), "qtp2", 3).counters()
        assert result["leaves_applied"] == 3
        assert result["joins_applied"] == 3
        assert result["sites_restored"] == 3
        assert result["serializable"] is True
        assert result["committed"] > 0
        # origins come from the current placement: a departed site is
        # never drawn while it is away
        assert result["unreachable_origin"] == 0

    def test_retries_absorb_upgrade_aborts(self):
        result = run_scenario(rolling_upgrade_scenario(n_txns=50, waves=3), "qtp2", 3).counters()
        assert result["retry_attempts"] > 0
        # re-submissions inflate the submitted count past the op count
        assert result["submitted"] >= 50

    def test_deterministic(self):
        first = run_scenario(rolling_upgrade_scenario(n_txns=40, waves=2), "qtp1", 7).counters()
        second = run_scenario(rolling_upgrade_scenario(n_txns=40, waves=2), "qtp1", 7).counters()
        assert first == second

    def test_plan_needs_a_surviving_anchor(self):
        rng = RngRegistry(0).stream("anchor")
        catalog = random_catalog(rng, n_sites=5, n_items=4, replication=3)
        sites = sorted(catalog.all_sites())
        with pytest.raises(ValueError, match="anchor"):
            rolling_upgrade_plan(catalog, sites, len(sites), 10.0, 10.0, 5.0)


class TestFlashCrowd:
    def test_controller_reacts_to_the_surge(self):
        result = run_scenario(flash_crowd_scenario(), "qtp2", 3).counters()
        # the default target sits below the contended tail: the surge
        # drives the controller down the shedding arm
        assert result["window_narrowed"] >= 1
        assert result["window_final"] < 4
        assert result["shed_backpressure"] > 0

    def test_surge_offers_more_than_quiet_baseline(self):
        crowd = run_scenario(flash_crowd_scenario(), "qtp2", 3).counters()
        quiet = run_scenario(flash_crowd_scenario(surge_rate=1.0), "qtp2", 3).counters()
        assert crowd["offered"] > quiet["offered"]

    def test_custom_controller_passes_through(self):
        lenient = AdaptiveWindow(target_p99=100.0, low=1, high=12, interval=10.0)
        result = run_scenario(flash_crowd_scenario(adapt=lenient), "qtp2", 3).counters()
        assert result["window_narrowed"] == 0

    def test_deterministic(self):
        first = run_scenario(flash_crowd_scenario(), "2pc", 5).counters()
        assert first == run_scenario(flash_crowd_scenario(), "2pc", 5).counters()


class TestGrayFailure:
    def test_episode_fattens_the_tail_without_killing_anyone(self):
        quiet = run_scenario(gray_failure_scenario(factor=1.0), "qtp2", 3).counters()
        gray = run_scenario(gray_failure_scenario(factor=12.0), "qtp2", 3).counters()
        # nothing is ever down: unreachable-shedding stays at the quiet
        # run's value, the damage shows up as timed-out decisions
        assert gray["shed_unreachable"] == quiet["shed_unreachable"]
        assert gray["protocol_aborted"] > quiet["protocol_aborted"]
        assert gray["committed"] < quiet["committed"]

    def test_explicit_plan_overrides_the_default_episode(self):
        plan = gray_failure_plan(10.0, 20.0, slow_site=None, factor=2.0,
                                 flap_src=None, flap_dst=None)
        # a plan naming nonexistent sites must fail loudly, not silently
        with pytest.raises(ValueError, match="unknown site"):
            run_scenario(gray_failure_scenario(), "qtp2", 3, failures=plan)

    def test_deterministic(self):
        first = run_scenario(gray_failure_scenario(), "qtp1", 9).counters()
        assert first == run_scenario(gray_failure_scenario(), "qtp1", 9).counters()


@pytest.mark.slow
class TestDeepRollingUpgradeSweep:
    """Waves x protocols x seeds, each run twice: the upgrade driver is
    a fixed point everywhere, every wave completes, and churn never
    costs one-copy serializability.  Minutes, not seconds — runs in the
    weekly slow suite."""

    def test_waves_by_protocol_deterministic_across_seeds(self):
        for protocol in ("2pc", "qtp1", "qtp2"):
            for waves in (1, 2, 3):
                for seed in range(3):
                    scenario = rolling_upgrade_scenario(n_txns=60, waves=waves)
                    first = run_scenario(scenario, protocol, seed).counters()
                    second = run_scenario(scenario, protocol, seed).counters()
                    assert first == second, (
                        f"diverged at {protocol} waves={waves} seed={seed}"
                    )
                    assert first["leaves_applied"] == waves
                    assert first["joins_applied"] == waves
                    assert first["sites_restored"] == waves
                    assert first["serializable"] is True
