"""Integration tests for sweep-engine fault tolerance under the chaos
harness: worker-process death, sink I/O faults with resume, and
quarantine manifests — each pinned against the byte-identity invariant
(every recovery path converges to the uninterrupted artifact)."""

import faulthandler
import random
import sys

import pytest

from repro.common.errors import StoreError
from repro.engine import (
    ChaosPlan,
    FailureManifest,
    JsonlSink,
    RetryPolicy,
    SweepRunner,
    SweepSpec,
    WorkerCrashError,
    iter_stream_rows,
    run_sweep,
    scan_partial_stream,
)
from repro.engine.resilience import InjectedSinkError


def cell_task(seed: int, width: int = 3) -> dict:
    rng = random.Random(seed)
    return {"votes": [rng.randrange(100) for _ in range(width)], "seed": seed}


def _spec(task, runs: int = 12) -> SweepSpec:
    return SweepSpec(
        name="chaos-study",
        task=task,
        grid={"width": [2, 4]},
        runs=runs,
        seeding="offset",
    )


def _reference_bytes(plan_dir, path, runs: int = 12, **sweep_kwargs) -> bytes:
    """The uninterrupted artifact for a chaos-wrapped spec: same wrapped
    task (same artifact header), every fault pre-claimed so none fire."""
    plan = ChaosPlan(plan_dir)
    run_sweep(_spec(plan.wrap(cell_task), runs), sink=JsonlSink(path), **sweep_kwargs)
    return path.read_bytes()


class TestWorkerCrashRecovery:
    def test_killed_worker_is_respawned_and_rows_converge(self, tmp_path):
        reference = _reference_bytes(tmp_path / "ref-state", tmp_path / "ref.jsonl.gz")

        plan = ChaosPlan(tmp_path / "state").kill_worker(5)
        path = tmp_path / "rows.jsonl.gz"
        outcome = run_sweep(
            _spec(plan.wrap(cell_task)),
            workers=3,
            sink=JsonlSink(path),
            on_error="retry",
        )
        assert outcome.resilience["respawns"] >= 1
        assert outcome.resilience["completed"] == 24
        assert path.read_bytes() == reference

    def test_multiple_kills_within_budget(self, tmp_path):
        reference = _reference_bytes(tmp_path / "ref-state", tmp_path / "ref.jsonl.gz")

        plan = ChaosPlan(tmp_path / "state").kill_worker(2).kill_worker(17)
        path = tmp_path / "rows.jsonl.gz"
        outcome = run_sweep(
            _spec(plan.wrap(cell_task)),
            workers=2,
            sink=JsonlSink(path),
            on_error=RetryPolicy(max_attempts=2, backoff=0.0, respawn_limit=4),
        )
        assert 1 <= outcome.resilience["respawns"] <= 4
        assert path.read_bytes() == reference

    def test_respawn_budget_exhaustion_raises_worker_crash_error(self, tmp_path):
        plan = ChaosPlan(tmp_path / "state")
        for index in range(8):
            plan.kill_worker(index)
        with pytest.raises(WorkerCrashError, match="respawn"):
            run_sweep(
                _spec(plan.wrap(cell_task)),
                workers=2,
                on_error=RetryPolicy(max_attempts=1, respawn_limit=0),
            )


    def test_dead_worker_without_a_policy_raises_instead_of_hanging(self, tmp_path):
        plan = ChaosPlan(tmp_path / "state").kill_worker(9)
        path = tmp_path / "rows.jsonl.gz"
        # the regression is a sweep that waits for the dead worker forever
        faulthandler.dump_traceback_later(30, exit=True, file=sys.__stderr__)
        try:
            with pytest.raises(WorkerCrashError, match="respawn"):
                run_sweep(_spec(plan.wrap(cell_task)), workers=2, chunksize=4, sink=JsonlSink(path))
        finally:
            faulthandler.cancel_dump_traceback_later()
        # truncated, holding only whole chunks before the lost one (tasks 8..11)
        committed = sorted(scan_partial_stream(path))
        assert committed in ([], [0, 1, 2, 3], [0, 1, 2, 3, 4, 5, 6, 7])
        with pytest.raises(StoreError, match="truncated"):
            list(iter_stream_rows(path))

    def test_warm_pool_is_replaced_in_place_and_stays_usable(self, tmp_path):
        reference = _reference_bytes(tmp_path / "ref-state", tmp_path / "ref.jsonl.gz")

        plan = ChaosPlan(tmp_path / "state").kill_worker(9)
        spec = _spec(plan.wrap(cell_task))
        path = tmp_path / "rows.jsonl.gz"
        with SweepRunner(workers=2) as runner:
            outcome = runner.run_sweep(spec, chunksize=4, sink=JsonlSink(path), on_error="retry")
            assert outcome.resilience["respawns"] == 1
            assert runner.pools_created == 2
            assert path.read_bytes() == reference
            # the next sweep runs on the replacement pool
            again = runner.run_sweep(spec, sink=JsonlSink(path))
            assert again.resilience is None
            assert runner.pools_created == 2
            assert path.read_bytes() == reference


class TestSinkFaultResume:
    def test_sink_fault_then_resume_converges_to_reference(self, tmp_path):
        reference = _reference_bytes(tmp_path / "ref-state", tmp_path / "ref.jsonl.gz")

        path = tmp_path / "rows.jsonl.gz"
        crash_plan = ChaosPlan(tmp_path / "state").fail_sink(7)
        spec = _spec(crash_plan.wrap(cell_task))
        with pytest.raises(InjectedSinkError):
            run_sweep(spec, sink=crash_plan.wrap_sink(JsonlSink(path)), on_error="retry")
        # the interrupted artifact is detectably partial...
        assert path.read_bytes() != reference
        # ...and one resumed run rewrites it to the uninterrupted bytes
        outcome = run_sweep(spec, resume_from=path, on_error="retry")
        assert outcome.resilience["resumed"] == 7
        assert outcome.resilience["completed"] == 24
        assert path.read_bytes() == reference

    def test_resume_after_worker_kill_composes(self, tmp_path):
        reference = _reference_bytes(tmp_path / "ref-state", tmp_path / "ref.jsonl.gz")

        path = tmp_path / "rows.jsonl.gz"
        plan = ChaosPlan(tmp_path / "state").fail_sink(3).kill_worker(9)
        spec = _spec(plan.wrap(cell_task))
        with pytest.raises(InjectedSinkError):
            run_sweep(
                spec,
                workers=2,
                sink=plan.wrap_sink(JsonlSink(path)),
                on_error="retry",
            )
        outcome = run_sweep(
            spec,
            workers=2,
            sink=plan.wrap_sink(JsonlSink(path)),
            resume_from=path,
            on_error="retry",
        )
        assert outcome.resilience["resumed"] >= 1
        assert path.read_bytes() == reference

    def test_resume_from_nonexistent_path_is_a_plain_run(self, tmp_path):
        reference = _reference_bytes(tmp_path / "ref-state", tmp_path / "ref.jsonl.gz")
        path = tmp_path / "fresh.jsonl.gz"
        plan = ChaosPlan(tmp_path / "state")
        outcome = run_sweep(_spec(plan.wrap(cell_task)), resume_from=path)
        assert outcome.resilience["resumed"] == 0
        assert path.read_bytes() == reference


class TestQuarantineManifest:
    def test_poison_cells_survive_a_manifest_roundtrip(self, tmp_path):
        plan = ChaosPlan(tmp_path / "state").fail_task(4, attempts=5).fail_task(11, attempts=5)
        outcome = run_sweep(
            _spec(plan.wrap(cell_task)),
            workers=2,
            on_error=RetryPolicy(max_attempts=2, backoff=0.0, quarantine=True),
        )
        assert outcome.resilience["quarantined"] == [4, 11]
        manifest = FailureManifest(sweep=outcome.name, records=outcome.failures)
        loaded = FailureManifest.load(manifest.save(tmp_path / "failures.json"))
        assert loaded.indices() == [4, 11]
        assert all(r.error == "InjectedFault" for r in loaded.records)
        assert all(r.attempts == 2 for r in loaded.records)

    def test_quarantined_artifact_resumes_the_gaps_too(self, tmp_path):
        # quarantined cells heal after their scheduled fault count: a
        # resume re-executes only the gap indices and the artifact
        # converges to the fault-free reference
        reference = _reference_bytes(tmp_path / "ref-state", tmp_path / "ref.jsonl.gz")

        path = tmp_path / "rows.jsonl.gz"
        plan = ChaosPlan(tmp_path / "state").fail_task(6, attempts=1).fail_sink(10)
        spec = _spec(plan.wrap(cell_task))
        with pytest.raises(InjectedSinkError):
            run_sweep(
                spec,
                sink=plan.wrap_sink(JsonlSink(path)),
                on_error=RetryPolicy(max_attempts=1, quarantine=True),
            )
        outcome = run_sweep(spec, resume_from=path, on_error="retry")
        assert outcome.resilience["quarantined"] == []
        assert path.read_bytes() == reference
