"""Unit tests for the persistent-pool sweep executor."""

import json
import os
from pathlib import Path
from unittest import mock

import pytest

from repro.engine.executor import (
    SweepRunner,
    clear_worker_cache,
    run_sweep,
    shared_runner,
    shutdown_shared_runners,
    worker_cache,
)
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
