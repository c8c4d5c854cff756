"""The sweep engine's one failure rule, pinned across sinks and pool
layouts: a failing task ends the sweep at once, the sink is aborted
rather than closed, and a streamed artifact is left detectably
truncated, holding exactly the rows before the failing task.

A task's exception reaches the caller as itself where it pickles and as
a faithful stand-in where it does not.  Dead-worker coverage lives in
``test_sweep_runner.py``.
"""

import gzip
import json
import pickle
from itertools import islice

import pytest

from repro.common.errors import StoreError
from repro.engine import (
    CellFoldSink,
    ChunkPlan,
    CountAcc,
    JsonlSink,
    MeanAcc,
    MemorySink,
    NoopSink,
    ReducerSink,
    ResultSink,
    RowReducer,
    SweepRunner,
    SweepSpec,
    TeeSink,
    fold_chunk,
    iter_stream_rows,
    load_stream,
    run_sweep,
)
from repro.engine.sink import _portable_error

RUNS = 12


class CellError(Exception):
    """A module-level exception type: it pickles by reference."""


def _failure(kind: str, seed: int) -> BaseException:
    if kind == "value":
        return ValueError(f"task {seed} failed")
    if kind == "key":
        return KeyError(f"task {seed}")
    if kind == "custom":
        return CellError(f"task {seed} failed")
    if kind == "unpicklable":
        error = ValueError(f"task {seed} failed")
        error.payload = lambda: None
        return error

    class LocalError(Exception):  # pickling by reference cannot find it
        pass

    return LocalError(f"task {seed} failed")


#: failure kind -> the exception type's name in this process, and after
#: it crossed the pool
FAILURES = {
    "value": ("ValueError", "ValueError"),
    "key": ("KeyError", "KeyError"),
    "custom": ("CellError", "CellError"),
    "unpicklable": ("ValueError", "RuntimeError"),
    "local": ("LocalError", "RuntimeError"),
}


def failing_at(seed: int, fail_at: int, kind: str = "value") -> dict:
    """A small row for every run but ``fail_at`` (offset seeding on an
    empty grid: the seed is the task index), where it raises the
    exception ``kind`` names."""
    if seed == fail_at:
        raise _failure(kind, seed)
    return {"v": seed, "odd": seed % 2}


def _spec(fail_at: int, kind: str = "value") -> SweepSpec:
    return SweepSpec(
        "failfast", failing_at, grid={}, runs=RUNS, seeding="offset", fixed={"fail_at": fail_at, "kind": kind}
    )


def _reducer() -> RowReducer:
    return RowReducer((("v", "v", MeanAcc()), ("odd", "odd", CountAcc())))


def _committed_rows(path) -> list[dict]:
    """The rows an aborted artifact holds (it has no end record)."""
    header, *records = gzip.decompress(path.read_bytes()).splitlines()
    assert json.loads(header)["type"] == "header"
    rows = [json.loads(record) for record in records]
    assert all(row.pop("type") == "row" for row in rows)
    return rows


def _prefix(spec: SweepSpec, n: int) -> list:
    """The results of the spec's first ``n`` tasks, run here."""
    return [task.execute() for task in islice(spec.iter_tasks(), n)]


LAYOUTS = {
    "serial": (1, None),
    "serial-chunks-of-3": (1, 3),
    "pool-chunks-of-1": (2, 1),
    "pool-chunks-of-4": (2, 4),
    "pool-default-chunks": (2, None),
}


class TestTheArtifactStopsAtTheFailingTask:
    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    @pytest.mark.parametrize("fail_at", [0, 5, RUNS - 1])
    def test_rows_before_the_failing_task_and_no_more(self, tmp_path, fail_at, layout):
        workers, chunksize = layout
        path = tmp_path / "rows.jsonl.gz"
        with pytest.raises(ValueError, match=f"task {fail_at} failed"):
            run_sweep(_spec(fail_at), workers=workers, chunksize=chunksize, sink=JsonlSink(path))
        rows = _committed_rows(path)
        assert [row["index"] for row in rows] == list(range(fail_at))
        assert [row["value"] for row in rows] == [{"v": i, "odd": i % 2} for i in range(fail_at)]
        with pytest.raises(StoreError, match="truncated"):
            list(iter_stream_rows(path))

    @pytest.mark.parametrize(
        "read", [lambda path: list(iter_stream_rows(path)), load_stream], ids=["iter_stream_rows", "load_stream"]
    )
    def test_every_reader_refuses_the_truncated_artifact(self, tmp_path, read):
        path = tmp_path / "rows.jsonl.gz"
        with pytest.raises(ValueError):
            run_sweep(_spec(7), workers=2, chunksize=3, sink=JsonlSink(path))
        with pytest.raises(StoreError, match="truncated"):
            read(path)


class Recording(MemorySink):
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


class TestTheSinkLifecycle:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_clean_sweep_closes_the_sink(self, workers):
        sink = Recording()
        run_sweep(_spec(-1), workers=workers, chunksize=4, sink=sink)
        assert sink.calls == ["open", "absorb", "absorb", "absorb", "close"]
        assert [r.index for r in sink.results] == list(range(RUNS))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_task_aborts_the_sink_after_the_rows_before_it(self, workers):
        sink = Recording()
        with pytest.raises(ValueError, match="task 6 failed"):
            run_sweep(_spec(6), workers=workers, chunksize=4, sink=sink)
        # chunk 4..7 ends at task 6: its rows 4 and 5 are absorbed, no later chunk is
        assert sink.calls == ["open", "absorb", "absorb", "abort"]
        assert [r.index for r in sink.results] == list(range(6))


SINKS = {
    "memory": lambda path: MemorySink(),
    "noop": lambda path: NoopSink(),
    "reducer": lambda path: ReducerSink(_reducer()),
    "jsonl": lambda path: JsonlSink(path),
    "cell-fold": lambda path: CellFoldSink(lambda state, result: (state or 0) + 1),
    "tee-jsonl-reducer": lambda path: TeeSink(JsonlSink(path), ReducerSink(_reducer())),
    "tee-memory-noop": lambda path: TeeSink(MemorySink(), NoopSink()),
}


class TestEverySinkStopsAtTheFailingTask:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("make", SINKS.values(), ids=SINKS.keys())
    def test_the_sink_holds_the_rows_before_the_failing_task(self, tmp_path, make, workers):
        path = tmp_path / "rows.jsonl.gz"
        sink = make(path)
        with pytest.raises(ValueError, match="task 7 failed"):
            run_sweep(_spec(7), workers=workers, chunksize=3, sink=sink)
        prefix = _prefix(_spec(7), 7)
        assert sink.rows_emitted == 7
        if not isinstance(sink, CellFoldSink):  # which skips row digests
            reference = ResultSink()
            for result in prefix:
                reference.emit(result)
            assert sink.digest == reference.digest
        if sink.keeps_rows:
            assert sink.results == prefix
        if "metrics" in sink.summary():
            eager = _reducer()
            for result in prefix:
                eager.fold(result)
            assert sink.summary()["metrics"] == eager.summary()["metrics"]
        if path.exists():
            assert [row["index"] for row in _committed_rows(path)] == list(range(7))


class TestTheErrorCrossesThePool:
    @pytest.mark.parametrize("kind", FAILURES)
    def test_the_task_error_reaches_the_caller(self, kind):
        with pytest.raises(Exception) as err:
            run_sweep(_spec(3, kind), workers=2, chunksize=2, sink=NoopSink())
        assert type(err.value).__name__ == FAILURES[kind][1]
        assert "task 3" in str(err.value)
        assert "failing_at" in str(err.value.__cause__)  # the worker's traceback

    @pytest.mark.parametrize("kind", FAILURES)
    def test_portable_error_is_the_exception_or_a_faithful_stand_in(self, kind):
        error = _failure(kind, 4)
        portable = _portable_error(error)
        if FAILURES[kind][1] == "RuntimeError":
            assert type(portable) is RuntimeError
            assert str(portable) == f"{type(error).__name__}: {error}"
        else:
            assert portable is error
        assert type(pickle.loads(pickle.dumps(portable))) is type(portable)

    def test_a_folded_chunk_crosses_a_pickle_whole(self):
        plan = ChunkPlan(digest=True, lines=True, reducers={0: _reducer()}, results=True)
        chunk = fold_chunk(next(_spec(-1).iter_chunks(5)), plan)
        again = pickle.loads(pickle.dumps(chunk))
        assert (again.rows, again.digest, again.lines) == (chunk.rows, chunk.digest, chunk.lines)
        assert again.results == chunk.results
        assert again.partials[0].summary() == chunk.partials[0].summary()
        assert again.error is None

    @pytest.mark.parametrize("kind", FAILURES)
    def test_a_failed_chunk_keeps_its_rows_and_its_error_across_a_pickle(self, kind):
        plan = ChunkPlan(digest=True, lines=True, results=True)
        chunk = fold_chunk(next(_spec(2, kind).iter_chunks(5)), plan)
        assert chunk.rows == 2 and type(chunk.error).__name__ == FAILURES[kind][0]
        again = pickle.loads(pickle.dumps(chunk))
        assert again.rows == 2
        assert again.lines == chunk.lines and again.lines.count(b"\n") == 2
        assert type(again.error).__name__ == FAILURES[kind][1]
        assert "task 2" in str(again.error)
        assert "failing_at" in str(again.error.__cause__)


class TestAWarmPoolOutlivesATaskError:
    @pytest.mark.parametrize("streamed", [False, True], ids=["keep-rows", "jsonl"])
    def test_the_next_sweep_runs_on_the_same_pool(self, tmp_path, streamed):
        path = tmp_path / "rows.jsonl.gz"

        def sink():
            return JsonlSink(path) if streamed else None

        with SweepRunner(workers=2) as runner:
            with pytest.raises(ValueError, match="task 5 failed"):
                runner.run_sweep(_spec(5), chunksize=2, sink=sink())
            clean = runner.run_sweep(_spec(-1), chunksize=2, sink=sink())
            if runner.pools_created == 0:
                pytest.skip("this environment cannot create a process pool")
            assert runner.pools_created == 1
            assert runner.sweeps_run == 1
        expected = [{"v": i, "odd": i % 2} for i in range(RUNS)]
        if streamed:
            assert [row["value"] for row in load_stream(path)[1]] == expected
        else:
            assert clean.values() == expected
