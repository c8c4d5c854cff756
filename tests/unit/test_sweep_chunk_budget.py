"""Deterministic budget on what a pooled streaming sweep costs its parent.

Chunks, not rows, cross the pool boundary — in both directions.  Going
in, a chunk is a description of its tasks (cell × run ranges); the
worker expands it into plain fields and derives the seeds, and on a
folded plan no ``RunTask`` or ``RunResult`` is built anywhere.  Coming back, for a
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
    CountAcc,
    JsonlSink,
    MeanAcc,
    ReducerSink,
    ResultSink,
    ResultStore,
    RowReducer,
    RunResult,
    RunTask,
    SweepRunner,
    SweepSpec,
    TeeSink,
    aggregate,
    iter_stream_rows,
    store,
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
    row_payload = staticmethod(counted(calls, "row_payload", ResultStore.row_payload))
    patches = [
        mock.patch.object(aggregate, "row_digest", counted(calls, "row_digest", aggregate.row_digest)),
        # every canonical JSON encode: a row's value, a cell's params, a record
        mock.patch.object(store._CANONICAL, "encode", counted(calls, "encode", store._CANONICAL.encode)),
        mock.patch.object(RowReducer, "fold", counted(calls, "fold", RowReducer.fold)),
        mock.patch.object(ResultStore, "row_payload", row_payload),
        mock.patch.object(gzip.GzipFile, "write", counted(calls, "gzip_write", gzip.GzipFile.write)),
        mock.patch.object(RunTask, "__init__", counted(calls, "RunTask", RunTask.__init__)),
        mock.patch.object(RunResult, "__init__", counted(calls, "RunResult", RunResult.__init__)),
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


def test_pooled_sweep_makes_no_per_row_call_in_the_parent(tmp_path, parent_calls):
    with SweepRunner(workers=2) as runner:
        runner.run_sweep(SweepSpec("can-pool", cell, grid={}, runs=2), sink=ResultSink())
        if runner.pools_created == 0:
            pytest.skip("this environment cannot create a process pool")
        outcome, reducer = sweep(runner, tmp_path / "rows.jsonl.gz", chunksize=CHUNK)
    # the workers expand the tasks and derive their seeds: 242 of each
    # here before (the probe sweep's 2 and these 240)
    assert parent_calls.count("RunTask") == parent_calls.count("RunResult") == 0
    assert parent_calls.count("sha256") == 0
    per_row = [name for name in parent_calls if name not in ("gzip_write", "encode")]
    assert per_row == []  # a payload, two digests and a fold per row (960 calls) before
    assert parent_calls.count("encode") == 2  # the header and the end record
    # the header, one write per chunk, the end record
    assert parent_calls.count("gzip_write") <= CHUNKS + 2  # one per row (242) before

    # and the sweep is whole: every row in the artifact, folded once
    assert outcome.aggregate["rows"] == reducer.rows == ROWS
    digest = 0
    for row in iter_stream_rows(tmp_path / "rows.jsonl.gz"):
        digest = aggregate.merge_digests(digest, aggregate.row_digest(row))
    assert digest == outcome.aggregate["digest"] == reducer.digest


def test_serial_sweep_builds_each_row_once(tmp_path, parent_calls):
    """In process the same chunk function runs: one task call, one
    canonical encode, one digest and one fold per row (a payload and two
    encodes before), a cell's params encoded and its seed prefix hashed
    once per chunk it reaches, and still one gzip write per chunk.  The
    rows are folded as plain fields: no ``RunTask`` per row (one each
    before) and, the plan asking for no live results, no ``RunResult``."""
    with SweepRunner(workers=1) as runner:
        sweep(runner, tmp_path / "rows.jsonl.gz", chunksize=CHUNK)
    assert parent_calls.count("RunTask") == parent_calls.count("RunResult") == 0
    # the row encoder splices the digest input and the artifact line
    # from one encode; the reference pair is never called
    assert parent_calls.count("row_payload") == parent_calls.count("row_digest") == 0
    # each row's value, each chunk entry's params (one cell here, so
    # one entry per chunk), the artifact's header and end record
    assert parent_calls.count("encode") == ROWS + CHUNKS + 2
    # the row digests, and one seed prefix per cell per chunk it reaches
    assert parent_calls.count("sha256") == ROWS + CHUNKS
    # the fields fold, once per row
    assert parent_calls.count("fold") == ROWS
    assert parent_calls.count("gzip_write") <= CHUNKS + 2


def test_a_plan_with_live_results_builds_one_run_result_per_row(parent_calls):
    """The live-results plan (a sink that keeps rows) still builds no
    ``RunTask``, and exactly one ``RunResult`` per row."""
    with SweepRunner(workers=1) as runner:
        outcome = runner.run_sweep(SweepSpec("live", cell, grid={}, runs=ROWS), chunksize=CHUNK)
    assert len(outcome.results) == ROWS
    assert parent_calls.count("RunTask") == 0
    assert parent_calls.count("RunResult") == ROWS


def test_default_chunks_are_capped(tmp_path):
    """Without ``chunksize=`` a chunk holds at most MAX_CHUNK_ROWS rows,
    so a serial sweep of any size keeps a bounded window of rows alive."""
    from repro.engine import MAX_CHUNK_ROWS

    rows = 8 * MAX_CHUNK_ROWS + 1  # a quarter of it is more than one chunk may hold
    spec = SweepSpec("capped", cell, grid={}, runs=rows)
    seen: list[int] = []
    original = JsonlSink.emit

    def emitting(self, chunk):
        seen.append(chunk.rows)
        return original(self, chunk)

    with mock.patch.object(JsonlSink, "emit", emitting):
        with SweepRunner(workers=1) as runner:
            runner.run_sweep(spec, sink=JsonlSink(tmp_path / "rows.jsonl.gz"))
    assert seen == [MAX_CHUNK_ROWS] * 8 + [1]
