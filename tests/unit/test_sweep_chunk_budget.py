"""Deterministic budget on what a pooled streaming sweep costs its parent.

Chunks, not rows, cross the pool boundary — in both directions.  Going
in, a chunk is a description of its tasks (cell × run ranges); the
worker builds the tasks and derives their seeds.  Coming back, for a
sink tree that takes its rows folded (``TeeSink(JsonlSink,
ReducerSink)`` is the end-to-end benchmark's ``sweep_stream`` tree) the
workers encode, digest and fold every row, and the parent only orders
chunks, writes each chunk's bytes to the gzip stream in one call and
merges partials.  Every bar here is a count of parent-side calls —
never a wall time.
"""

import gzip
import hashlib
import random
from unittest import mock

import pytest

from repro.engine import (
    ChaosPlan,
    CountAcc,
    InjectedSinkError,
    JsonlSink,
    MeanAcc,
    NoopSink,
    ReducerSink,
    ResultStore,
    RowReducer,
    RunTask,
    SweepRunner,
    SweepSpec,
    TeeSink,
    aggregate,
    iter_stream_rows,
    sink as sink_module,
)

ROWS, CHUNK = 240, 16
CHUNKS = ROWS // CHUNK


def cell(seed: int) -> dict:
    rng = random.Random(seed)
    return {"x": rng.random(), "even": seed % 2 == 0}


def counted(calls: list, name: str, original):
    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    return counting


@pytest.fixture
def parent_calls():
    """Call counts of the per-row functions, as made in *this* process
    (pool workers fork their own copy of the list)."""
    calls: list[str] = []
    row_digest = counted(calls, "row_digest", aggregate.row_digest)
    row_payload = staticmethod(counted(calls, "row_payload", ResultStore.row_payload))
    patches = [
        mock.patch.object(aggregate, "row_digest", row_digest),
        mock.patch.object(sink_module, "row_digest", row_digest),
        mock.patch.object(RowReducer, "fold", counted(calls, "fold", RowReducer.fold)),
        mock.patch.object(ResultStore, "row_payload", row_payload),
        mock.patch.object(gzip.GzipFile, "write", counted(calls, "gzip_write", gzip.GzipFile.write)),
        mock.patch.object(RunTask, "__init__", counted(calls, "RunTask", RunTask.__init__)),
        # a SHA-256 begun here: a seed's (one per cell) or a row digest's
        mock.patch.object(hashlib, "sha256", counted(calls, "sha256", hashlib.sha256)),
    ]
    for patch in patches:
        patch.start()
    yield calls
    for patch in patches:
        patch.stop()


def sweep(runner: SweepRunner, path, **kwargs):
    reducer = RowReducer((("x", "x", MeanAcc()), ("even", "even", CountAcc())))
    spec = SweepSpec("budget", cell, grid={}, runs=ROWS)
    outcome = runner.run_sweep(spec, sink=TeeSink(JsonlSink(path), ReducerSink(reducer)), **kwargs)
    return outcome, reducer


@pytest.mark.parametrize("on_error", [None, "retry"])
def test_pooled_sweep_makes_no_per_row_call_in_the_parent(tmp_path, parent_calls, on_error):
    """Under a retry policy too: retries are settled where the task
    ran, so the policy changes nothing about what the parent does."""
    with SweepRunner(workers=2) as runner:
        runner.run_sweep(SweepSpec("can-pool", cell, grid={}, runs=2), sink=NoopSink())
        if runner.pools_created == 0:
            pytest.skip("this environment cannot create a process pool")
        outcome, reducer = sweep(runner, tmp_path / "rows.jsonl.gz", chunksize=CHUNK, on_error=on_error)
    # the workers build the tasks and derive their seeds: 242 of each
    # here before (the probe sweep's 2 and these 240)
    assert parent_calls.count("RunTask") == parent_calls.count("sha256") == 0
    per_row = [name for name in parent_calls if name != "gzip_write"]
    assert per_row == []  # a payload, two digests and a fold per row (960 calls) before
    # the header, one write per chunk, the end record
    assert parent_calls.count("gzip_write") <= CHUNKS + 2  # one per row (242) before

    # and the sweep is whole: every row in the artifact, folded once
    assert outcome.aggregate["rows"] == reducer.rows == ROWS
    digest = 0
    for row in iter_stream_rows(tmp_path / "rows.jsonl.gz"):
        digest = aggregate.merge_digests(digest, aggregate.row_digest(row))
    assert digest == outcome.aggregate["digest"] == reducer.digest


def test_serial_sweep_builds_each_row_once(tmp_path, parent_calls):
    """In process the same chunk function runs: one task, one payload,
    one digest and one fold per row (three encodes and two digests
    before), a cell's seed prefix hashed once per chunk instead of one
    hash per seed, and still one gzip write per chunk."""
    with SweepRunner(workers=1) as runner:
        sweep(runner, tmp_path / "rows.jsonl.gz", chunksize=CHUNK)
    assert parent_calls.count("RunTask") == ROWS
    assert parent_calls.count("row_payload") == ROWS
    assert parent_calls.count("row_digest") == ROWS
    # the row digests, and one seed prefix per cell per chunk it reaches
    assert parent_calls.count("sha256") == ROWS + CHUNKS
    assert parent_calls.count("fold") == ROWS
    assert parent_calls.count("gzip_write") <= CHUNKS + 2


def test_pooled_resume_expands_only_the_chunks_holding_salvaged_rows(tmp_path, parent_calls):
    """A crash cut the artifact in the middle of a chunk: the salvaged
    rows stand in for their tasks in the chunks up to the cut, which the
    parent builds; every later chunk crosses as a description.  The
    finished artifact is the uninterrupted run's, to the byte."""
    cut = 2 * CHUNK + CHUNK // 2
    path, reference = tmp_path / "rows.jsonl.gz", tmp_path / "reference.jsonl.gz"
    with SweepRunner(workers=1) as runner:
        sweep(runner, reference)
        spec = SweepSpec("budget", cell, grid={}, runs=ROWS)
        with pytest.raises(InjectedSinkError):
            crashing = ChaosPlan(tmp_path / "chaos").fail_sink(cut).wrap_sink(JsonlSink(path))
            runner.run_sweep(spec, sink=crashing)
    with SweepRunner(workers=2) as runner:
        runner.run_sweep(SweepSpec("can-pool", cell, grid={}, runs=2), sink=NoopSink())
        if runner.pools_created == 0:
            pytest.skip("this environment cannot create a process pool")
        parent_calls.clear()
        outcome, reducer = sweep(runner, path, chunksize=CHUNK, resume_from=path)
    assert outcome.resilience["resumed"] == cut
    # the salvaged rows, then the three chunks they reach (the third holds the cut)
    assert parent_calls.count("RunTask") == cut + 3 * CHUNK
    assert outcome.aggregate["rows"] == reducer.rows == ROWS
    assert path.read_bytes() == reference.read_bytes()


def test_default_chunks_are_capped(tmp_path):
    """Without ``chunksize=`` a chunk holds at most MAX_CHUNK_ROWS rows,
    so a serial sweep of any size keeps a bounded window of rows alive."""
    from repro.engine import MAX_CHUNK_ROWS

    rows = 8 * MAX_CHUNK_ROWS + 1  # a quarter of it is more than one chunk may hold
    spec = SweepSpec("capped", cell, grid={}, runs=rows)
    seen: list[int] = []
    original = JsonlSink.absorb

    def absorbing(self, chunk):
        seen.append(chunk.rows)
        return original(self, chunk)

    with mock.patch.object(JsonlSink, "absorb", absorbing):
        with SweepRunner(workers=1) as runner:
            runner.run_sweep(spec, sink=JsonlSink(tmp_path / "rows.jsonl.gz"))
    assert seen == [MAX_CHUNK_ROWS] * 8 + [1]
