"""Unit tests for the persistent-pool sweep executor."""

import faulthandler
import gzip
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from unittest import mock

import pytest

from repro.common.errors import StoreError
from repro.engine.aggregate import CountAcc, RowReducer
from repro.engine.executor import (
    SweepRunner,
    WorkerCrashError,
    clear_worker_cache,
    run_sweep,
    shared_runner,
    shutdown_shared_runners,
    worker_cache,
)
from repro.engine.sink import JsonlSink, MemorySink, NoopSink, ReducerSink, TeeSink, iter_stream_rows
from repro.engine.spec import SweepSpec
from repro.bench.cases import suite_warm_pool_trial, warm_pool_probe

REPO = Path(__file__).resolve().parents[2]


def _spec(name: str, runs: int = 4) -> SweepSpec:
    return SweepSpec(
        name=name,
        task=warm_pool_probe,
        grid={},
        runs=runs,
        fixed={"n_events": 50},
    )


class TestSweepRunner:
    def test_matches_serial_results(self):
        serial = run_sweep(_spec("probe"), workers=1)
        with SweepRunner(workers=2) as runner:
            warm = runner.run_sweep(_spec("probe"))
        assert warm.results == serial.results
        assert warm.spec == serial.spec

    def test_one_pool_across_many_sweeps(self):
        with SweepRunner(workers=2) as runner:
            outcomes = [runner.run_sweep(_spec(f"s{i}")) for i in range(4)]
            assert runner.sweeps_run == 4
            assert runner.pools_created <= 1  # 0 when pooling is unavailable
        assert [len(o.results) for o in outcomes] == [4, 4, 4, 4]

    def test_serial_runner_never_pools(self):
        runner = SweepRunner(workers=1)
        outcome = runner.run_sweep(_spec("serial"))
        assert runner.pools_created == 0
        assert outcome.results == run_sweep(_spec("serial")).results
        runner.close()

    def test_close_is_idempotent(self):
        runner = SweepRunner(workers=2)
        runner.run_sweep(_spec("x", runs=2))
        runner.close()
        runner.close()
        # a closed runner can still execute, serially or on a fresh pool
        assert len(runner.run_sweep(_spec("y", runs=2)).results) == 2
        runner.close()

    def test_store_is_saved(self, tmp_path):
        from repro.engine.store import ResultStore

        store = ResultStore(tmp_path)
        with SweepRunner(workers=1) as runner:
            runner.run_sweep(_spec("stored"), store=store)
        assert store.load("stored")["spec"]["name"] == "stored"


def nested_campaign(seed: int, **shape) -> dict:
    """The warm-pool bench trial as a sweep task, reporting where it
    ran and how many pools the runner it opens in there created."""
    runners = []
    init = SweepRunner.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runners.append(self)

    with mock.patch.object(SweepRunner, "__init__", recording):
        counters = suite_warm_pool_trial(seed, **shape)
    return {
        "counters": counters,
        "pools_created": [runner.pools_created for runner in runners],
        "pid": os.getpid(),
    }


class TestNestedSweepsStaySerial:
    def test_a_campaign_inside_a_pool_worker_forks_no_grandchildren(self):
        """Executor workers are not daemonic, so nothing but the
        engine's own mark stops a worker from pooling."""
        committed = json.loads((REPO / "BENCH_suite_warm_pool.json").read_text())
        spec = SweepSpec(
            "nested", nested_campaign, grid={}, runs=2, seeding="offset", fixed=committed["spec"]["fixed"]
        )
        with SweepRunner(workers=2) as runner:
            outcome = runner.run_sweep(spec, chunksize=1)
            if runner.pools_created == 0:
                pytest.skip("this environment cannot create a process pool")
        for result, row in zip(outcome.results, committed["rows"], strict=True):
            assert result.seed == row["seed"]
            assert result.value["pid"] != os.getpid()
            assert result.value["pools_created"] == [0]
            assert result.value["counters"] == row["counters"]


def dying_cell(seed: int, parent: int, die_at: int) -> int:
    """Kills the pool worker running run ``die_at`` (offset seeding on an
    empty grid: the seed is the run); in the ``parent`` process it just
    returns, so a serial sweep of the same spec completes."""
    if seed == die_at and os.getpid() != parent:
        os._exit(86)
    return seed


def _dying(die_at: int) -> SweepSpec:
    fixed = {"parent": os.getpid(), "die_at": die_at}
    return SweepSpec("dying", dying_cell, grid={}, runs=16, seeding="offset", fixed=fixed)


class Lifecycle(NoopSink):
    """Records the lifecycle calls the executor makes."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def open(self, spec_summary):
        super().open(spec_summary)
        self.calls.append("open")

    def absorb(self, chunk):
        super().absorb(chunk)
        self.calls.append("absorb")

    def close(self):
        self.calls.append("close")

    def abort(self):
        self.calls.append("abort")


DEAD_WORKER_SINKS = {
    "keep-rows": lambda tmp: None,
    "memory": lambda tmp: MemorySink(),
    "reducer": lambda tmp: ReducerSink(RowReducer((("v", "", CountAcc()),))),
    "tee-jsonl-noop": lambda tmp: TeeSink(JsonlSink(tmp / "rows.jsonl.gz"), NoopSink()),
}


@pytest.fixture
def watchdog():
    """The regression a dead worker risks is a sweep that waits for it
    forever: dump every stack and exit instead."""
    faulthandler.dump_traceback_later(30, exit=True, file=sys.__stderr__)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def pooling():
    with SweepRunner(workers=2) as runner:
        runner.run_sweep(_dying(-1))
        if runner.pools_created == 0:
            pytest.skip("this environment cannot create a process pool")


class TestDeadWorker:
    def test_a_dead_worker_ends_the_sweep_and_leaves_a_truncated_artifact(
        self, tmp_path, pooling, watchdog
    ):
        path = tmp_path / "rows.jsonl.gz"
        with pytest.raises(WorkerCrashError):
            run_sweep(_dying(9), workers=2, chunksize=4, sink=JsonlSink(path))
        with pytest.raises(StoreError, match="truncated"):
            list(iter_stream_rows(path))
        # only whole chunks before the lost one (runs 8..11) were written
        rows = [json.loads(line) for line in gzip.decompress(path.read_bytes()).splitlines()[1:]]
        assert [row["index"] for row in rows] in ([], [0, 1, 2, 3], list(range(8)))

    def test_the_runner_pools_afresh_for_its_next_sweep(self, tmp_path, pooling, watchdog):
        serial = tmp_path / "serial.jsonl.gz"
        run_sweep(_dying(-1), workers=1, sink=JsonlSink(serial))
        path = tmp_path / "rows.jsonl.gz"
        with SweepRunner(workers=2) as runner:
            with pytest.raises(WorkerCrashError):
                runner.run_sweep(_dying(9), chunksize=4, sink=JsonlSink(path))
            runner.run_sweep(_dying(-1), chunksize=4, sink=JsonlSink(path))
            assert runner.pools_created == 2
        assert path.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("make", DEAD_WORKER_SINKS.values(), ids=DEAD_WORKER_SINKS.keys())
    def test_every_sink_path_ends_with_worker_crash_error(self, tmp_path, pooling, watchdog, make):
        with pytest.raises(WorkerCrashError) as err:
            run_sweep(_dying(9), workers=2, chunksize=4, sink=make(tmp_path))
        assert isinstance(err.value.__cause__, BrokenProcessPool)

    def test_the_sink_is_aborted_never_closed(self, pooling, watchdog):
        sink = Lifecycle()
        with pytest.raises(WorkerCrashError):
            run_sweep(_dying(9), workers=2, chunksize=4, sink=sink)
        assert sink.calls[0] == "open" and sink.calls[-1] == "abort"
        assert "close" not in sink.calls
        # only whole chunks before the lost one (runs 8..11) were absorbed
        assert sink.rows_emitted in (0, 4, 8)

    def test_the_dead_pool_is_released_at_once(self, pooling, watchdog):
        with SweepRunner(workers=2) as runner:
            with pytest.raises(WorkerCrashError):
                runner.run_sweep(_dying(9), chunksize=4)
            assert runner._pool is None
            assert runner.pools_created == 1
            assert runner.sweeps_run == 0


class TestPersistentPoolFlag:
    def test_run_sweep_routes_through_shared_runner(self):
        try:
            outcome = run_sweep(_spec("flagged"), workers=2, persistent_pool=True)
            assert shared_runner(2).sweeps_run >= 1
            assert outcome.results == run_sweep(_spec("flagged"), workers=1).results
        finally:
            shutdown_shared_runners()

    def test_shared_runner_is_per_worker_count(self):
        try:
            assert shared_runner(2) is shared_runner(2)
            assert shared_runner(2) is not shared_runner(3)
        finally:
            shutdown_shared_runners()


class TestSharedRunnerShutdown:
    def test_shutdown_is_idempotent(self):
        runner = shared_runner(2)
        runner.run_sweep(_spec("cleanup", runs=2))
        shutdown_shared_runners()
        # second (and third) calls find an empty registry and do nothing
        shutdown_shared_runners()
        shutdown_shared_runners()
        # the registry really was drained, not just closed in place
        assert shared_runner(2) is not runner
        shutdown_shared_runners()

    def test_shutdown_registered_with_atexit(self):
        # interrupted runs (SIGINT mid-sweep) must not leak pool
        # semaphores: the hook is registered at *import* time, so a
        # bare `import` + exit closes whatever runners exist — proven
        # in a subprocess, where interpreter exit actually happens
        import subprocess
        import sys

        code = (
            "import repro.engine.executor as ex\n"
            "class Probe:\n"
            "    def close(self):\n"
            "        print('RUNNER-CLOSED-AT-EXIT', flush=True)\n"
            "ex._SHARED_RUNNERS[2] = Probe()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RUNNER-CLOSED-AT-EXIT" in proc.stdout

    def test_shutdown_tolerates_a_failing_runner(self):
        class ExplodingRunner:
            def close(self):
                raise RuntimeError("pool teardown failed")

        from repro.engine.executor import _SHARED_RUNNERS

        try:
            _SHARED_RUNNERS[99] = ExplodingRunner()
            real = shared_runner(2)
            shutdown_shared_runners()  # must not raise, must drain both
            assert _SHARED_RUNNERS == {}
            assert real._pool is None
        finally:
            _SHARED_RUNNERS.clear()


class TestWorkerCache:
    def test_builds_once_per_key(self):
        clear_worker_cache()
        calls = []

        def build():
            calls.append(1)
            return {"value": len(calls)}

        first = worker_cache(("k",), build)
        second = worker_cache(("k",), build)
        assert first is second
        assert calls == [1]
        assert worker_cache(("other",), build) is not first
        clear_worker_cache()
