"""Traffic-layer determinism properties.

The open-loop service must satisfy the same fixed-point contract the
closed-loop baselines pin: its counters are a pure function of the
seed — identical across repeated runs, across sweep worker counts, and
across a record→replay round trip.  The accounting identity
``offered == admitted + shed`` must hold at every seed, not just the
committed ones.
"""

from hypothesis import given, settings, strategies as st

from repro.engine import ResultStore, SweepSpec, run_sweep
from repro.experiments.service_study import open_loop_scenario
from repro.replay import DEFAULT_CONFIGS, RecordedTrace, fixed_point_ok, record, replay_trace
from repro.traffic import run_scenario


def open_loop_task(seed: int, protocol: str, rate: float) -> dict:
    """One small service interval, counters only (sweep-task shape)."""
    scenario = open_loop_scenario(rate=rate, duration=25.0, n_sites=6, episode_window=(8.0, 6.0))
    return run_scenario(scenario, protocol, seed).counters()


class TestOpenLoopSweepFixedPoint:
    def _artifact(self, workers: int) -> bytes:
        spec = SweepSpec(
            "traffic-open-loop",
            open_loop_task,
            grid={"protocol": ["2pc", "qtp1"], "rate": [0.8, 1.5]},
            runs=2,
            seeding="offset",
        )
        outcome = run_sweep(spec, workers=workers)
        return ResultStore.encode(ResultStore.payload(outcome))

    def test_identical_across_worker_counts(self):
        artifacts = {self._artifact(w) for w in (1, 2, 3)}
        assert len(artifacts) == 1


class TestOpenLoopAccounting:
    @given(st.integers(0, 2**16), st.sampled_from(["2pc", "qtp1", "qtp2"]))
    @settings(max_examples=8, deadline=None)
    def test_identities_hold_at_every_seed(self, seed, protocol):
        result = run_scenario(open_loop_scenario(rate=1.5, duration=20.0, n_sites=6), protocol, seed).result
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
        assert result.latency["n"] <= result.admitted
        assert result.latency["p50"] <= result.latency["p99"] <= result.latency["p999"]


class TestRecordReplayFixedPoint:
    @given(st.integers(0, 2**16), st.sampled_from(["2pc", "qtp1"]))
    @settings(max_examples=5, deadline=None)
    def test_recorded_replay_reproduces_counters(self, seed, protocol):
        trace = record(open_loop_scenario(rate=1.0, duration=20.0, n_sites=6), protocol, seed)
        recorded = next(c for c in DEFAULT_CONFIGS if c.name == "recorded")
        row = replay_trace(trace, recorded)
        assert fixed_point_ok(trace, row), (
            f"open-loop replay diverged at seed {seed}: {row}"
        )

    def test_artifact_bytes_stable_through_round_trip(self, tmp_path):
        trace = record(open_loop_scenario(rate=1.0, duration=20.0), "qtp1", seed=7)
        path = tmp_path / "trace.jsonl.gz"
        trace.save(path)
        reloaded = RecordedTrace.load(path)
        assert reloaded.gaps == trace.gaps
        assert reloaded.to_lines() == trace.to_lines()
