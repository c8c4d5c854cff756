"""Robustness-layer A/B properties.

Every knob PR 10 adds — client retries, gray degradation, graceful
leave — is default-off, and these properties pin the "off" side to the
historical byte-exact behavior while pinning the "on" side's algebra:

* retries disabled (``retry=None`` or a one-attempt policy) leaves the
  closed-loop stream byte-identical across drivers;
* ``DegradeSite(factor=1.0)`` is an exact counter no-op;
* a graceful leave followed by a rejoin of the same site round-trips
  the catalog's replica placement and vote totals;
* a recorded gray-failure service replays to a fixed point (the
  artifact codec round-trips degrade/flap actions).
"""

from hypothesis import given, settings, strategies as st

from repro.db.cluster import Cluster
from repro.experiments.resilience_study import rolling_upgrade_scenario
from repro.experiments.service_study import open_loop_scenario
from repro.replay import DEFAULT_CONFIGS, RecordedTrace, fixed_point_ok, record, replay_trace
from repro.replay.recorder import cluster_counters
from repro.sim.failures import FailurePlan
from repro.sim.rng import RngRegistry
from repro.traffic import RetryPolicy, TrafficEngine, run_scenario
from repro.workload.generators import memoized_catalog, random_catalog
from repro.workload.spec import WorkloadSpec

PROTOCOLS = st.sampled_from(["2pc", "qtp1", "qtp2"])


def closed_fingerprint(seed: int, protocol: str, retry) -> dict:
    """Everything a closed-loop run leaves behind, for A/B comparison."""
    registry = RngRegistry(seed)
    rng = registry.stream("traffic")
    catalog = random_catalog(rng, n_sites=6, n_items=4, replication=3)
    compiled = WorkloadSpec(n_txns=25, mean_spacing=1.0).compile(catalog)
    cluster = Cluster(catalog, protocol=protocol, seed=seed)
    engine = TrafficEngine(cluster, compiled, rng, retry=retry)
    outcomes, handles = engine.run_closed()
    return {
        "outcomes": dict(outcomes),
        "decided": [cluster.outcome(t).outcome for t in handles],
        "history": cluster.committed_history(),
        "tallies": dict(engine.tallies),
        "retry_attempts": engine.retry_attempts,
        **cluster_counters(cluster),
    }


class TestRetriesOffByteIdentity:
    @given(st.integers(0, 2**16), PROTOCOLS)
    @settings(max_examples=6, deadline=None)
    def test_one_attempt_policy_equals_no_policy(self, seed, protocol):
        # max_attempts=1 means "never re-submit": the engine must take
        # the exact historical path, not a near-copy of it
        off = closed_fingerprint(seed, protocol, retry=None)
        one = closed_fingerprint(seed, protocol, retry=RetryPolicy(max_attempts=1))
        assert one == off
        assert one["retry_attempts"] == 0

    @given(st.integers(0, 2**10), st.sampled_from(["qtp1", "qtp2"]))
    @settings(max_examples=4, deadline=None)
    def test_upgrade_driver_with_retries_off_matches(self, seed, protocol):
        once = RetryPolicy(max_attempts=1)
        off = run_scenario(rolling_upgrade_scenario(n_txns=30, waves=2, retry=None), protocol, seed)
        one = run_scenario(rolling_upgrade_scenario(n_txns=30, waves=2, retry=once), protocol, seed)
        off, one = off.counters(), one.counters()
        assert one == off
        assert one["retry_attempts"] == 0


class TestDegradeUnitFactorNoop:
    @given(st.integers(0, 2**16), PROTOCOLS)
    @settings(max_examples=6, deadline=None)
    def test_factor_one_counter_parity(self, seed, protocol):
        # aim the degrade at a site that actually hosts copies (a random
        # catalog does not necessarily use every id in range)
        rng = RngRegistry(seed).stream("open-loop")
        catalog = memoized_catalog(
            rng,
            ("open-loop", 6, 4, 3),
            lambda r: random_catalog(r, n_sites=6, n_items=4, replication=3),
        )
        site = sorted(catalog.all_sites())[0]

        def service(failures):
            scenario = open_loop_scenario(
                rate=1.2, duration=20.0, n_sites=6, n_items=4, replication=3, episode_window=None
            )
            return dict(run_scenario(scenario, protocol, seed, failures=failures).counters())

        quiet = service(None)
        unit = service(FailurePlan().degrade(5.0, site, 1.0).restore(15.0, site))
        assert unit == quiet


class TestLeaveThenJoinRoundTrip:
    def _snapshot(self, catalog):
        return {
            name: (dict(catalog.item(name).copies), catalog.v(name))
            for name in catalog.item_names
        }

    @given(st.integers(0, 2**16), st.integers(0, 5))
    @settings(max_examples=10, deadline=None)
    def test_catalog_votes_and_placement_round_trip(self, seed, site_idx):
        rng = RngRegistry(seed).stream("roundtrip")
        catalog = random_catalog(rng, n_sites=7, n_items=5, replication=3)
        hosts = sorted(catalog.all_sites())
        site = hosts[site_idx % len(hosts)]
        before = self._snapshot(catalog)
        shrunk, evicted = catalog.evict_site(site)
        admitted_back = {name for name in before if site in before[name][0]}
        assert set(evicted) == admitted_back
        restored = shrunk.admit_site(site, evicted)
        assert self._snapshot(restored) == before == self._snapshot(catalog)
        assert restored.epoch == catalog.epoch + 2
        # the hand-off re-derives majority quorums over the restored
        # vote total for every touched item (untouched items keep their
        # originally drawn assignment), so Gifford holds by construction
        for name in sorted(admitted_back):
            v = restored.v(name)
            assert restored.w(name) == v // 2 + 1
            assert restored.r(name) == v - restored.w(name) + 1

    @given(st.integers(0, 2**10), st.sampled_from(["qtp1", "qtp2"]))
    @settings(max_examples=4, deadline=None)
    def test_cluster_leave_then_join_restores_placement(self, seed, protocol):
        rng = RngRegistry(seed).stream("churn")
        catalog = random_catalog(rng, n_sites=6, n_items=4, replication=3)
        site = sorted(catalog.all_sites())[0]
        hosted = [i for i in catalog.item_names if site in catalog.sites_of(i)]
        placement = {i: sorted(catalog.sites_of(i)) for i in catalog.item_names}
        cluster = Cluster(catalog, protocol=protocol, seed=seed)
        anchor = sorted(cluster.network.sites)[-1]
        plan = (
            FailurePlan()
            .leave(5.0, site)
            .join(20.0, site, copies={i: 1 for i in hosted}, near=anchor)
        )
        cluster.arm_failures(plan)
        cluster.scheduler.run()
        assert site in cluster.sites
        current = cluster.catalog
        assert current.epoch == catalog.epoch + 2
        assert {i: sorted(current.sites_of(i)) for i in current.item_names} == placement


class TestGrayRecordReplayFixedPoint:
    @given(st.integers(0, 2**16), st.sampled_from(["2pc", "qtp2"]))
    @settings(max_examples=4, deadline=None)
    def test_gray_service_replays_to_fixed_point(self, gray_service, seed, protocol):
        service, plan = gray_service(seed)
        trace = record(service, protocol, seed, failures=plan)
        # the plan fired in full: degrade + flap + restore all applied
        kinds = [type(action).__name__ for action in trace.actions]
        assert kinds.count("DegradeSite") == 1
        assert kinds.count("FlapLink") == 1
        assert kinds.count("RestoreSite") == 1
        recorded = next(c for c in DEFAULT_CONFIGS if c.name == "recorded")
        row = replay_trace(trace, recorded)
        assert fixed_point_ok(trace, row), (
            f"gray-failure replay diverged at seed {seed}: {row}"
        )

    def test_gray_artifact_bytes_stable_through_round_trip(self, gray_service, tmp_path):
        service, plan = gray_service(11)
        trace = record(service, "qtp2", 11, failures=plan)
        path = tmp_path / "gray.jsonl.gz"
        trace.save(path)
        reloaded = RecordedTrace.load(path)
        assert reloaded.to_lines() == trace.to_lines()
        assert reloaded.actions == trace.actions
