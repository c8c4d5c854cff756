"""The unified traffic layer: closed- and open-loop drives.

The closed-loop engine is a pure extraction of the historical driver
loops (the bench fixed-point suite proves byte-identity at scale); here
we pin the lifecycle semantics — arrival scheduling, outcome tallies,
determinism — and the open-loop mode's admission accounting identity
``offered == admitted + shed_backpressure + shed_unreachable``.
"""

import dataclasses

import pytest

from repro.common.errors import ConfigurationError, InvariantViolationError, ReproError
from repro.db.cluster import Cluster
from repro.experiments import SCENARIOS
from repro.experiments.service_study import (
    discover_ceiling,
    open_loop_scenario,
    service_failure_plan,
)
from repro.experiments.workload_study import heavy_workload_scenario
from repro.sim.rng import RngRegistry
from repro.traffic import (
    AdaptiveWindow,
    OpenLoopResult,
    RetryPolicy,
    TrafficEngine,
    ramp,
    run_open_loop,
    run_scenario,
)
from repro.workload.generators import random_catalog
from repro.workload.spec import WorkloadSpec


def _engine(seed=0, protocol="qtp1", spec=None, n_sites=6, n_items=4, retry=None):
    rng = RngRegistry(seed).stream("traffic-test")
    catalog = random_catalog(rng, n_sites=n_sites, n_items=n_items, replication=3)
    cluster = Cluster(catalog, protocol=protocol, seed=seed)
    if spec is None:
        spec = WorkloadSpec(n_txns=12, arrival="fixed", mean_spacing=2.0)
    return TrafficEngine(cluster, spec.compile(catalog), rng, retry=retry)


class TestClosedLoop:
    def test_every_arrival_resolves_to_an_outcome(self):
        engine = _engine()
        outcomes, handles = engine.run_closed()
        result = engine.tally("qtp1")
        # every arrival became exactly one client outcome (fast-path
        # reads and client aborts included), and every handle a verdict
        assert result.submitted == 12
        assert (
            result.committed
            + result.client_aborted
            + result.protocol_aborted
            + result.blocked
            + result.reads_committed
            == 12
        )
        assert set(handles) <= set(outcomes)

    def test_two_runs_identical(self):
        first = _engine().run_closed()[0]
        second = _engine().run_closed()[0]
        assert first == second

    def test_the_run_hands_back_the_finished_cluster(self):
        scenario = heavy_workload_scenario(n_txns=12, n_sites=6)
        run = run_scenario(scenario, "qtp1", 0)
        assert run.cluster.scheduler.pending == 0 and run.cluster.scheduler.now > 0
        assert run.result == run_scenario(scenario, "qtp1", 0).result

    def test_a_run_that_breaks_a_claim_is_not_handed_back(self):
        # a quiet single update that writes i0 and i1 at version 1, plus
        # a read-only footprint that saw i1 after it and i0 before it,
        # and a stale command's conflict row: two claims broken
        def break_two_claims(rng, cluster, first):
            cluster.record_footprint("R", {"i0": 0, "i1": 1}, {})
            cluster.tracer.record(0.0, 1, "decision-conflict", first.txn, have="C", wanted="A")

        scenario = dataclasses.replace(SCENARIOS["wan_storm"](), plan=break_two_claims)
        with pytest.raises(InvariantViolationError) as raised:
            run_scenario(scenario, "qtp1", 0)
        assert isinstance(raised.value, ReproError)
        assert [v.predicate for v in raised.value.violations] == ["atomicity", "serializability"]
        message = str(raised.value)
        assert message.startswith("wan_storm under qtp1, seed 0 broke 2 claim(s): atomicity: ")
        assert "decision-conflict" in message and "serializability: " in message and "'R'" in message

    def test_read_only_ops_commit_on_fast_path(self):
        spec = WorkloadSpec(
            n_txns=10, arrival="fixed", mean_spacing=2.0, read_fraction=1.0
        )
        engine = _engine(spec=spec)
        outcomes, handles = engine.run_closed()
        assert not handles  # nothing went through a commit protocol
        assert set(outcomes.values()) == {"read-committed"}
        assert engine.tally("qtp1").reads_committed == 10


class TestOpenSpec:
    def test_open_requires_rate_and_duration(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(arrival="open")
        with pytest.raises(ConfigurationError):
            WorkloadSpec(arrival="open", rate=2.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(arrival="open", rate=2.0, duration=-1.0)

    def test_rate_rejected_on_closed_specs(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(arrival="poisson", rate=2.0)

    def test_arrivals_refused_for_open_specs(self):
        spec = WorkloadSpec(arrival="open", rate=2.0, duration=10.0)
        engine = _engine(spec=spec)
        with pytest.raises(ConfigurationError):
            engine.compiled.arrivals(engine.rng)

    def test_next_gap_refused_for_closed_specs(self):
        engine = _engine()
        with pytest.raises(ConfigurationError):
            engine.compiled.next_gap(engine.rng)

    def test_open_drive_refuses_a_closed_spec_before_scheduling(self):
        engine = _engine(spec=WorkloadSpec(n_txns=5))
        with pytest.raises(ConfigurationError, match="arrival='poisson'"):
            run_open_loop(engine, "qtp1")
        assert engine.cluster.scheduler.pending == 0
        # and through the scenario runner, as the same named error
        with pytest.raises(ConfigurationError, match="arrival"):
            run_scenario(open_loop_scenario(), "qtp1", 0, workload=WorkloadSpec(n_txns=5))


class TestOpenLoop:
    def test_admission_accounting_identity(self):
        result = run_scenario(open_loop_scenario(rate=1.2, duration=40.0), "qtp1", 1).result
        assert result.offered > 0
        assert (
            result.offered
            == result.admitted + result.shed_backpressure + result.shed_unreachable
        )
        assert (
            result.admitted
            == result.committed
            + result.reads_committed
            + result.client_aborted
            + result.protocol_aborted
            + result.unresolved
        )

    def test_latency_digest_counts_decided_updates(self):
        result = run_scenario(open_loop_scenario(rate=1.2, duration=40.0), "qtp1", 1).result
        latency = result.latency
        assert latency["n"] == result.committed + result.protocol_aborted
        assert latency["p50"] <= latency["p99"] <= latency["p999"]
        assert result.counters()["latency_p999"] == latency["p999"]

    def test_two_runs_identical(self):
        first = run_scenario(open_loop_scenario(rate=1.0, duration=30.0), "qtp1", 3).result
        second = run_scenario(open_loop_scenario(rate=1.0, duration=30.0), "qtp1", 3).result
        assert first.counters() == second.counters()
        assert first.latency == second.latency

    def test_window_one_sheds_under_load(self):
        # a tiny admission window at a high rate must shed traffic
        scenario = open_loop_scenario(rate=8.0, duration=20.0, window=1, episode_window=None)
        result = run_scenario(scenario, "qtp1", 2).result
        assert result.shed_backpressure > 0

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            run_scenario(open_loop_scenario(rate=1.0, duration=10.0, window=0), "qtp1", 0)

    def test_partition_episode_sheds_unreachable(self):
        # the minority partition component refuses quorums; arrivals at
        # dead sites would be shed_unreachable, partition aborts show up
        # as client/protocol aborts — either way the quiet run commits
        # at least as much as the partitioned one
        stormy = run_scenario(open_loop_scenario(rate=1.5, duration=60.0), "qtp1", 4).result
        calm = open_loop_scenario(rate=1.5, duration=60.0, episode_window=None)
        quiet = run_scenario(calm, "qtp1", 4).result
        assert quiet.committed >= stormy.committed

    def test_the_run_hands_back_the_finished_cluster(self):
        scenario = open_loop_scenario(rate=1.0, duration=20.0)
        run = run_scenario(scenario, "qtp1", 0)
        assert run.cluster.scheduler.events_run > 0
        assert run.result.counters() == run_scenario(scenario, "qtp1", 0).result.counters()


class TestRetryPolicy:
    def test_defaults_are_bounded(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert not policy.quarantine
        assert policy.backoff_cap >= policy.backoff

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="negative"):
            RetryPolicy(backoff=-0.1)
        with pytest.raises(ValueError, match="negative"):
            RetryPolicy(backoff_cap=-1.0)

    def test_delay_doubles_and_caps(self):
        policy = RetryPolicy(backoff=0.1, backoff_cap=0.35)
        assert [policy.delay(k) for k in (1, 2, 3, 4)] == [0.1, 0.2, 0.35, 0.35]

    def test_zero_backoff_means_immediate(self):
        assert RetryPolicy(backoff=0.0).delay(1) == 0.0
        assert RetryPolicy(backoff=0.0).delay(9) == 0.0

    def test_policy_is_frozen(self):
        with pytest.raises(AttributeError):
            RetryPolicy().max_attempts = 7

    def test_header_form_keeps_every_field_in_order(self):
        """A trace header carries ``jsonable(policy)``; the E27
        recording's pinned bytes hold all five fields, in this order."""
        from repro.engine import jsonable

        assert list(jsonable(RetryPolicy())) == [
            "max_attempts",
            "backoff",
            "backoff_cap",
            "quarantine",
            "respawn_limit",
        ]


class TestRetryingClient:
    CONTENDED = WorkloadSpec(n_txns=30, mean_spacing=0.3)
    POLICY = RetryPolicy(max_attempts=3, backoff=0.5, backoff_cap=2.0)

    def test_delay_is_capped_exponential(self):
        policy = RetryPolicy(max_attempts=4, backoff=0.5, backoff_cap=1.5)
        assert [policy.delay(k) for k in (1, 2, 3)] == [0.5, 1.0, 1.5]
        assert RetryPolicy(max_attempts=4, backoff=0.0).delay(2) == 0.0

    def test_client_aborts_are_resubmitted(self):
        engine = _engine(spec=self.CONTENDED, retry=self.POLICY)
        outcomes, handles = engine.run_closed()
        client_aborted = sum(1 for o in outcomes.values() if o == "client-aborted")
        assert engine.retry_attempts > 0
        # every re-submission was provoked by a client abort, and the
        # accounting covers attempts, not just first submissions
        assert engine.retry_attempts <= client_aborted
        assert len(outcomes) + len(handles) >= self.CONTENDED.n_txns

    def test_retrying_runs_are_deterministic(self):
        def fingerprint():
            engine = _engine(seed=5, spec=self.CONTENDED, retry=self.POLICY)
            outcomes, handles = engine.run_closed()
            return (dict(outcomes), len(handles), engine.retry_attempts)

        assert fingerprint() == fingerprint()

    def test_retries_draw_nothing_from_the_workload_stream(self):
        # the retried op is re-submitted as-is: a retrying run generates
        # the same op stream as the no-retry run, so the committed
        # histories diverge only in scheduling, never in content
        plain = _engine(seed=5, spec=self.CONTENDED)
        plain.run_closed()
        retrying = _engine(seed=5, spec=self.CONTENDED, retry=self.POLICY)
        retrying.run_closed()
        assert retrying.rng.getstate() == plain.rng.getstate()


class TestAdaptiveWindow:
    def test_parameters_validated(self):
        with pytest.raises(ValueError, match="target_p99"):
            AdaptiveWindow(target_p99=0.0)
        with pytest.raises(ValueError, match="low <= high"):
            AdaptiveWindow(target_p99=1.0, low=4, high=2)
        with pytest.raises(ValueError, match="interval"):
            AdaptiveWindow(target_p99=1.0, interval=0.0)
        with pytest.raises(ValueError, match="hysteresis"):
            AdaptiveWindow(target_p99=1.0, hysteresis=1.0)

    def test_none_keeps_historical_counters(self):
        scenario = open_loop_scenario(rate=1.2, duration=30.0, episode_window=None)
        fixed = run_scenario(scenario, "qtp1", 2).result
        assert "window_final" not in fixed.counters()
        assert "window_widened" not in fixed.counters()

    def test_loose_target_widens_the_window(self):
        # commit latency is protocol-round-bound (seconds); a huge
        # target leaves the controller below the dead band every
        # interval, so it widens toward `high`
        scenario = open_loop_scenario(
            rate=1.2, duration=60.0, window=2, episode_window=None,
            adapt=AdaptiveWindow(target_p99=100.0, low=1, high=6, interval=10.0),
        )
        result = run_scenario(scenario, "qtp1", 2).result
        counters = result.counters()
        assert counters["window_widened"] >= 1
        assert counters.get("window_narrowed", 0) == 0
        assert counters["window_final"] > 2

    def test_tight_target_narrows_and_sheds(self):
        scenario = open_loop_scenario(
            rate=4.0, duration=60.0, window=6, episode_window=None,
            adapt=AdaptiveWindow(target_p99=0.5, low=1, high=8, interval=10.0),
        )
        result = run_scenario(scenario, "qtp1", 2).result
        counters = result.counters()
        assert counters["window_narrowed"] >= 1
        assert counters["window_final"] < 6
        assert result.shed_backpressure > 0

    def test_window_clamped_to_bounds(self):
        scenario = open_loop_scenario(
            rate=4.0, duration=90.0, window=2, episode_window=None,
            adapt=AdaptiveWindow(target_p99=0.5, low=2, high=8, interval=10.0),
        )
        result = run_scenario(scenario, "qtp1", 2).result
        assert result.counters()["window_final"] == 2

    def test_adaptive_runs_are_deterministic(self):
        adapt = AdaptiveWindow(target_p99=3.0, low=1, high=8, interval=10.0)
        scenario = open_loop_scenario(rate=2.0, duration=50.0, episode_window=None, adapt=adapt)
        first = run_scenario(scenario, "qtp2", 6).result
        second = run_scenario(scenario, "qtp2", 6).result
        assert first.counters() == second.counters()


class TestServiceFailurePlan:
    def test_majority_minority_split(self):
        plan = service_failure_plan(10.0, 5.0, list(range(9)))
        assert [type(a).__name__ for a in plan.actions] == [
            "PartitionNetwork",
            "HealNetwork",
        ]
        assert [a.time for a in plan.actions] == [10.0, 15.0]
        assert sorted(len(g) for g in plan.actions[0].groups) == [3, 6]


class TestRamp:
    def test_ceiling_discovery_is_deterministic(self):
        first = discover_ceiling("qtp1", seed=0, rates=(0.5, 1.0, 2.0), duration=30.0)
        second = discover_ceiling("qtp1", seed=0, rates=(0.5, 1.0, 2.0), duration=30.0)
        assert first.counters() == second.counters()
        assert len(first.steps) <= 3

    def test_untripped_ramp_reports_last_rate(self):
        def step(rate):
            return OpenLoopResult(
                protocol="qtp1",
                rate=rate,
                duration=10.0,
                offered=10,
                admitted=10,
                shed_backpressure=0,
                shed_unreachable=0,
                committed=10,
                reads_committed=0,
                client_aborted=0,
                protocol_aborted=0,
                unresolved=0,
                serializable=True,
                readable_fraction=1.0,
                latency={"n": 10, "p50": 1.0, "p99": 2.0},
            )

        result = ramp(step, [1.0, 2.0, 4.0])
        assert result.ceiling == 4.0
        assert result.tripped is None
        assert result.counters()["tripped"] == "none"

    def test_abort_threshold_trips(self):
        def step(rate):
            aborted = 9 if rate > 1.0 else 0
            return OpenLoopResult(
                protocol="qtp1",
                rate=rate,
                duration=10.0,
                offered=10,
                admitted=10,
                shed_backpressure=0,
                shed_unreachable=0,
                committed=10 - aborted,
                reads_committed=0,
                client_aborted=aborted,
                protocol_aborted=0,
                unresolved=0,
                serializable=True,
                readable_fraction=1.0,
                latency={"n": 10, "p50": 1.0, "p99": 2.0},
            )

        result = ramp(step, [0.5, 1.0, 2.0, 4.0])
        assert result.tripped == "abort_rate"
        assert result.ceiling == 1.0
        assert len(result.steps) == 3  # stopped at the first trip

    def test_latency_knee_trips(self):
        def step(rate):
            p99 = 1.0 if rate <= 2.0 else 50.0
            return OpenLoopResult(
                protocol="qtp1",
                rate=rate,
                duration=10.0,
                offered=10,
                admitted=10,
                shed_backpressure=0,
                shed_unreachable=0,
                committed=10,
                reads_committed=0,
                client_aborted=0,
                protocol_aborted=0,
                unresolved=0,
                serializable=True,
                readable_fraction=1.0,
                latency={"n": 10, "p50": 0.5, "p99": p99},
            )

        result = ramp(step, [1.0, 2.0, 4.0], knee_factor=4.0)
        assert result.tripped == "latency_knee"
        assert result.ceiling == 2.0
