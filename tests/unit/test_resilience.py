"""Unit tests for the resilience layer: retry policies, failure
manifests, the chaos harness, and the quarantine/provenance plumbing.

Worker-kill recovery and the crash-anywhere resume property live in
``tests/integration/test_chaos_recovery.py`` and
``tests/property/test_prop_resilience.py`` — this module covers the
value objects and the serial-path semantics."""

import gzip
import json

import pytest

from repro.common.errors import StoreError
from repro.engine import (
    ChaosPlan,
    FailureManifest,
    JsonlSink,
    MemorySink,
    ResultStore,
    RetryPolicy,
    SweepSpec,
    TaskFailure,
    load_stream,
    resolve_policy,
    run_sweep,
)
from repro.engine.resilience import (
    CHAOS_KILL_EXIT,
    MANIFEST_KIND,
    MANIFEST_SCHEMA,
    InjectedFault,
    InjectedSinkError,
)


def steady_task(seed: int) -> int:
    return seed * 2


def flaky_task(seed: int) -> int:
    """Fails on seed 2 — with seeding="offset" that is task index 2."""
    if seed == 2:
        raise ValueError("flaky cell")
    return seed


def _spec(name: str = "res", runs: int = 6, task=steady_task) -> SweepSpec:
    return SweepSpec(name=name, task=task, grid={}, runs=runs, seeding="offset")


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
        with pytest.raises(ValueError, match="respawn_limit"):
            RetryPolicy(respawn_limit=-1)

    def test_delay_doubles_and_caps(self):
        policy = RetryPolicy(backoff=0.1, backoff_cap=0.35)
        assert [policy.delay(k) for k in (1, 2, 3, 4)] == [0.1, 0.2, 0.35, 0.35]

    def test_zero_backoff_means_immediate(self):
        assert RetryPolicy(backoff=0.0).delay(1) == 0.0
        assert RetryPolicy(backoff=0.0).delay(9) == 0.0

    def test_policy_is_frozen(self):
        with pytest.raises(AttributeError):
            RetryPolicy().max_attempts = 7


class TestResolvePolicy:
    def test_none_and_raise_mean_legacy(self):
        assert resolve_policy(None) is None
        assert resolve_policy("raise") is None

    def test_shorthands(self):
        assert resolve_policy("retry") == RetryPolicy()
        assert resolve_policy("quarantine") == RetryPolicy(quarantine=True)

    def test_policy_passes_through(self):
        policy = RetryPolicy(max_attempts=5)
        assert resolve_policy(policy) is policy

    def test_unknown_value_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            resolve_policy("shrug")


class TestFailureManifest:
    def _failure(self, index: int = 3) -> TaskFailure:
        return TaskFailure(
            index=index,
            params={"p": 1},
            run=0,
            seed=index,
            attempts=3,
            error="ValueError",
            message="flaky cell",
        )

    def test_payload_shape_and_sorted_indices(self):
        manifest = FailureManifest("s", [self._failure(9), self._failure(2)])
        payload = manifest.payload()
        assert payload["schema"] == MANIFEST_SCHEMA
        assert payload["kind"] == MANIFEST_KIND
        assert [r["index"] for r in payload["quarantined"]] == [2, 9]
        assert manifest.indices() == [2, 9]

    def test_save_load_roundtrip_is_canonical(self, tmp_path):
        manifest = FailureManifest("s", [self._failure()])
        path = manifest.save(tmp_path / "failures.json")
        again = FailureManifest.load(path)
        assert again.sweep == "s"
        assert again.records == manifest.records
        # canonical bytes: saving the reload reproduces the file exactly
        twin = again.save(tmp_path / "twin.json")
        assert twin.read_bytes() == path.read_bytes()

    def test_load_rejects_foreign_and_stale_documents(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(StoreError, match="cannot read"):
            FailureManifest.load(missing)
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(StoreError, match="not a sweep failure manifest"):
            FailureManifest.load(foreign)
        stale = tmp_path / "stale.json"
        stale.write_text(
            json.dumps({"kind": MANIFEST_KIND, "schema": MANIFEST_SCHEMA + 1})
        )
        with pytest.raises(StoreError, match="schema"):
            FailureManifest.load(stale)


    @pytest.mark.parametrize(
        "quarantined", [[{"index": 1}], 3, [3], [None], {"index": 1}], ids=repr
    )
    def test_load_rejects_malformed_records(self, tmp_path, quarantined):
        path = tmp_path / "bent.json"
        path.write_text(
            json.dumps({"kind": MANIFEST_KIND, "schema": MANIFEST_SCHEMA, "quarantined": quarantined})
        )
        with pytest.raises(StoreError, match="malformed quarantined record") as err:
            FailureManifest.load(path)
        assert str(path) in str(err.value)


class TestChaosPlan:
    def test_chaining_and_len(self, tmp_path):
        plan = ChaosPlan(tmp_path).kill_worker(7).fail_task(12, attempts=2).fail_sink(30)
        assert len(plan) == 3

    def test_describe_sorted_by_coordinate(self, tmp_path):
        plan = ChaosPlan(tmp_path).fail_sink(30).fail_task(12).kill_worker(7)
        lines = plan.describe().splitlines()
        assert lines[0] == "at=7: KillWorker(index=7)"
        assert lines[1] == "at=12: FailTask(index=12, attempts=1)"
        assert lines[2] == "at=30: FailSink(row=30)"

    def test_fail_task_validates_attempts(self, tmp_path):
        with pytest.raises(ValueError, match="attempts"):
            ChaosPlan(tmp_path).fail_task(1, attempts=0)

    def test_claim_fires_exactly_once(self, tmp_path):
        plan = ChaosPlan(tmp_path)
        assert plan.claim("kill-3") is True
        assert plan.claim("kill-3") is False
        # a second plan over the same state_dir sees the same claims
        assert ChaosPlan(tmp_path).claim("kill-3") is False

    def test_claim_all_preclaims_every_marker(self, tmp_path):
        plan = ChaosPlan(tmp_path).kill_worker(1).fail_task(2, attempts=2).fail_sink(3)
        plan.claim_all()
        assert plan.claim("kill-1") is False
        assert plan.claim("fail-2-0") is False
        assert plan.claim("fail-2-1") is False
        assert plan.claim("sink-3") is False

    def test_wrapped_task_keeps_spec_summary_stable(self, tmp_path):
        a = ChaosPlan(tmp_path / "a").wrap(steady_task)
        b = ChaosPlan(tmp_path / "b").wrap(steady_task)
        assert a.__qualname__ == b.__qualname__ == "chaos[steady_task]"
        assert a.__module__ == steady_task.__module__
        assert a.needs_task_index

    def test_task_fault_fires_scheduled_count_then_heals(self, tmp_path):
        plan = ChaosPlan(tmp_path).fail_task(4, attempts=2)
        task = plan.wrap(steady_task)
        for _ in range(2):
            with pytest.raises(InjectedFault, match="task 4"):
                task(seed=4, task_index=4)
        assert task(seed=4, task_index=4) == 8  # healed after its quota
        assert task(seed=5, task_index=5) == 10  # other indices untouched

    def test_sink_fault_fires_once_and_delegates(self, tmp_path):
        from repro.engine.spec import RunResult

        plan = ChaosPlan(tmp_path).fail_sink(0)
        sink = plan.wrap_sink(MemorySink())
        sink.open({"name": "x"})
        row = RunResult(index=0, params={}, run=0, seed=0, value=1)
        with pytest.raises(InjectedSinkError, match="row 0"):
            sink.emit(row)
        sink.emit(row)  # marker claimed: second call delegates through
        assert sink.rows_emitted == 1
        assert sink.results[0].value == 1

    def test_sink_faults_abort_even_under_retry(self, tmp_path):
        # InjectedSinkError happens in the *parent*, not in a task:
        # on_error covers task execution only, so the sweep aborts and
        # leaves a resumable (truncated) artifact.
        path = tmp_path / "rows.jsonl.gz"
        plan = ChaosPlan(tmp_path / "chaos").fail_sink(1)
        with pytest.raises(InjectedSinkError):
            run_sweep(
                _spec(runs=4),
                sink=plan.wrap_sink(JsonlSink(path)),
                on_error="retry",
            )
        from repro.engine import scan_partial_stream

        assert sorted(scan_partial_stream(path)) == [0]

    def test_kill_exit_code_is_distinctive(self):
        assert CHAOS_KILL_EXIT not in (0, 1, 2)


class TestRetryAndQuarantineSemantics:
    def test_fault_free_resilient_run_matches_default(self):
        plain = run_sweep(_spec())
        resilient = run_sweep(_spec(), on_error="retry")
        assert resilient.results == plain.results
        assert plain.resilience is None  # legacy path untouched
        assert resilient.resilience["completed"] == len(plain.results)
        assert resilient.resilience["retried"] == 0
        assert resilient.resilience["quarantined"] == []

    def test_transient_fault_retries_to_identical_rows(self, tmp_path):
        plan = ChaosPlan(tmp_path).fail_task(2, attempts=2)
        spec = _spec(task=plan.wrap(steady_task))
        outcome = run_sweep(spec, on_error=RetryPolicy(max_attempts=3, backoff=0.0))
        reference = run_sweep(_spec(task=steady_task))
        assert [r.value for r in outcome.results] == [r.value for r in reference.results]
        assert outcome.resilience["retried"] == 2
        assert outcome.failures == []

    def test_exhausted_retries_raise_without_quarantine(self):
        with pytest.raises(ValueError, match="flaky cell"):
            run_sweep(
                _spec(task=flaky_task),
                on_error=RetryPolicy(max_attempts=2, backoff=0.0),
            )

    def test_quarantine_records_poison_cell_and_continues(self):
        outcome = run_sweep(
            _spec(task=flaky_task),
            on_error=RetryPolicy(max_attempts=2, backoff=0.0, quarantine=True),
        )
        assert [r.seed for r in outcome.results] == [0, 1, 3, 4, 5]
        assert outcome.resilience["quarantined"] == [2]
        (failure,) = outcome.failures
        assert failure.index == 2
        assert failure.attempts == 2
        assert failure.error == "ValueError"
        assert failure.message == "flaky cell"

    def test_quarantine_lands_in_jsonl_end_record(self, tmp_path):
        path = tmp_path / "rows.jsonl.gz"
        run_sweep(
            _spec(task=flaky_task),
            sink=JsonlSink(path),
            on_error=RetryPolicy(max_attempts=1, quarantine=True),
        )
        records = [
            json.loads(line)
            for line in gzip.decompress(path.read_bytes()).decode().splitlines()
        ]
        assert records[-1]["type"] == "end"
        assert records[-1]["quarantined"] == [2]
        # "records" counts every pre-end line (header + rows), matching
        # the fault-free artifact convention
        assert records[-1]["records"] == len(records) - 1
        spec_summary, rows = load_stream(path)
        assert [row["index"] for row in rows] == [0, 1, 3, 4, 5]

    def test_fault_free_end_record_has_no_quarantined_key(self, tmp_path):
        path = tmp_path / "clean.jsonl.gz"
        run_sweep(_spec(), sink=JsonlSink(path), on_error="retry")
        end = json.loads(
            gzip.decompress(path.read_bytes()).decode().splitlines()[-1]
        )
        assert "quarantined" not in end  # historical artifacts stay byte-stable

    def test_store_payload_carries_resilience(self, tmp_path):
        store = ResultStore(tmp_path)
        run_sweep(
            _spec(name="prov", task=flaky_task),
            store=store,
            on_error=RetryPolicy(max_attempts=1, quarantine=True),
        )
        payload = store.load("prov")
        assert payload["resilience"]["quarantined"] == [2]
        assert payload["resilience"]["resumed"] == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_on_error_composes_with_reduce(self, tmp_path, workers):
        from repro.engine import CountAcc, RowReducer

        reducer = RowReducer((("v", "", CountAcc()),))
        reference = run_sweep(_spec(), reduce=reducer)
        assert reference.resilience is None

        plan = ChaosPlan(tmp_path / "state").fail_task(2, attempts=2)
        spec = _spec(task=plan.wrap(steady_task))
        retried = run_sweep(
            spec, workers=workers, reduce=reducer, on_error=RetryPolicy(max_attempts=3, backoff=0.0)
        )
        assert retried.resilience["retried"] == 2
        provenance = retried.aggregate.pop("resilience")
        assert provenance == retried.resilience
        assert retried.aggregate == reference.aggregate
        assert reducer.rows == 0  # still a template

        # a crashed artifact resumed under reduce=: the salvaged rows fold
        # into the reducer without re-running, the summary is the whole sweep's
        path = tmp_path / "rows.jsonl.gz"
        crash = ChaosPlan(tmp_path / "crash").fail_sink(4)
        with pytest.raises(InjectedSinkError):
            run_sweep(_spec(), sink=crash.wrap_sink(JsonlSink(path)))
        resumed = run_sweep(_spec(), workers=workers, reduce=reducer, resume_from=path)
        assert resumed.resilience["resumed"] == 4
        assert resumed.resilience["completed"] == 6
        del resumed.aggregate["resilience"]
        assert resumed.aggregate == reference.aggregate
        full = tmp_path / "full.jsonl.gz"
        run_sweep(_spec(), sink=JsonlSink(full))
        assert path.read_bytes() == full.read_bytes()

    def test_resume_from_requires_matching_jsonl_in_tree(self, tmp_path):
        with pytest.raises(ValueError, match="names no JsonlSink"):
            run_sweep(
                _spec(),
                sink=MemorySink(),
                resume_from=tmp_path / "elsewhere.jsonl.gz",
            )

    def test_stray_salvaged_indices_are_rejected(self, tmp_path):
        # a handcrafted artifact whose header matches the spec but whose
        # rows name indices the spec cannot contain: resuming it would
        # silently drop rows, so it must refuse instead
        from repro.engine import STREAM_KIND, STREAM_SCHEMA
        from repro.engine.store import jsonable

        spec = _spec(runs=4)
        summary = jsonable(spec.summary())
        lines = [
            json.dumps(
                {
                    "type": "header",
                    "schema": STREAM_SCHEMA,
                    "kind": STREAM_KIND,
                    "sweep": summary.get("name"),
                    "spec": summary,
                }
            ),
            json.dumps(
                {"type": "row", "index": 10, "params": {}, "run": 0, "seed": 10, "value": 20}
            ),
        ]
        path = tmp_path / "stray.jsonl.gz"
        path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode(), mtime=0))
        with pytest.raises(StoreError, match="outside"):
            run_sweep(spec, resume_from=path)
