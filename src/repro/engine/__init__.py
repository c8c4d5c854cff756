"""Parallel sweep engine — declarative, deterministic, fan-out-safe.

The paper's headline experiments (E11 availability sweep, E13
re-enterability storm, E14 randomized model-check) are statistical:
they sharpen with more randomized runs.  This package turns their
ad-hoc ``for`` loops into one engine:

* :class:`~repro.engine.spec.SweepSpec` — a declarative sweep: task
  function × parameter grid × run count.
* :class:`~repro.engine.spec.RunTask` — one (cell, run) unit of work
  carrying a seed derived deterministically from the spec, never from
  execution order.
* :func:`~repro.engine.executor.run_sweep` — a process-pool executor
  with chunked batching and a serial fallback; results come back in
  task order, so output is **bit-identical at every worker count**.
* :class:`~repro.engine.executor.SweepRunner` — the persistent-pool
  executor: one warm worker pool (pre-imported simulator stack,
  :func:`~repro.engine.executor.worker_cache` for shared catalogs)
  reused across any number of sweeps, so campaigns of many sweeps
  amortize process creation.  ``run_sweep(..., persistent_pool=True)``
  routes through a process-wide shared runner.
* :class:`~repro.engine.store.ResultStore` — schema-versioned JSON
  artifacts (canonical encoding, byte-stable) plus aggregation helpers
  that work on live results and loaded artifacts alike.

Quickstart — a parallel availability sweep in three lines::

    from repro.engine import SweepSpec, run_sweep
    from repro.experiments.sweeps import availability_run

    outcome = run_sweep(
        SweepSpec("e11", availability_run,
                  grid={"protocol": ["skq", "qtp1"]}, runs=50, seeding="offset"),
        workers=4,
    )

Study-level drivers (``availability_sweep``, ``modelcheck``,
``workload_study``, …) all accept a ``workers=`` argument and route
through this engine; ``seeding="offset"`` replays the same scenario
sequence in every cell (the paired-comparison design the paper's
studies use), while the default ``"derived"`` hashing gives every cell
an independent stream.

Extreme-scale sweeps (10^5–10^6 cells) add two opt-in layers on top
(see ``engine/README.md``):

* **streaming result sinks** — ``run_sweep(..., sink=JsonlSink(path))``
  hands rows to a :class:`~repro.engine.sink.ResultSink` a chunk at a
  time as chunks complete instead of accumulating them, and
  ``run_sweep(..., reduce=RowReducer(...))`` folds rows into exact
  streaming aggregates per chunk; both keep sweep memory flat in cell
  count while staying byte-identical across backends and worker
  counts.  A sink states what it needs from a chunk
  (:class:`~repro.engine.sink.ChunkPlan`) and the chunk is folded into
  exactly that (:class:`~repro.engine.sink.FoldedChunk`) where its
  tasks ran, so for ``JsonlSink`` / ``ReducerSink`` / ``NoopSink`` and
  tees of them no row crosses the pool boundary.
* **zero-copy shared payloads** —
  :class:`~repro.engine.shared.SharedPayload` handles let every task of
  a huge sweep read one published catalog/trace instead of re-pickling
  it per task.
"""

from repro.engine.aggregate import (
    Accumulator,
    CountAcc,
    DigestMergeAcc,
    MeanAcc,
    QuantileDigest,
    RowReducer,
    merge_digests,
    row_digest,
)
from repro.engine.executor import (
    MAX_CHUNK_ROWS,
    WORKER_CACHE_LIMIT,
    SweepOutcome,
    SweepRunner,
    WorkerCrashError,
    default_chunksize,
    default_workers,
    fold_cells,
    run_sweep,
    shared_runner,
    shutdown_shared_runners,
    worker_cache,
)
from repro.engine.shared import SharedPayload
from repro.engine.sink import (
    STREAM_KIND,
    STREAM_SCHEMA,
    CellFoldSink,
    ChunkPlan,
    FoldedChunk,
    JsonlSink,
    MemorySink,
    NoopSink,
    ReducerSink,
    ResultSink,
    TeeSink,
    fold_chunk,
    iter_stream_rows,
    load_stream,
)
from repro.engine.spec import RunResult, RunTask, SweepSpec, derive_seed
from repro.engine.store import (
    SCHEMA_VERSION,
    ResultStore,
    canonical_line,
    count_where,
    fraction_of,
    group_by,
    jsonable,
    mean_of,
    values_of,
)

__all__ = [
    "MAX_CHUNK_ROWS",
    "SCHEMA_VERSION",
    "STREAM_KIND",
    "STREAM_SCHEMA",
    "WORKER_CACHE_LIMIT",
    "Accumulator",
    "CellFoldSink",
    "ChunkPlan",
    "CountAcc",
    "DigestMergeAcc",
    "FoldedChunk",
    "JsonlSink",
    "MeanAcc",
    "MemorySink",
    "NoopSink",
    "QuantileDigest",
    "ReducerSink",
    "ResultSink",
    "ResultStore",
    "RowReducer",
    "RunResult",
    "RunTask",
    "SharedPayload",
    "SweepOutcome",
    "SweepRunner",
    "SweepSpec",
    "TeeSink",
    "WorkerCrashError",
    "canonical_line",
    "count_where",
    "default_chunksize",
    "default_workers",
    "derive_seed",
    "fold_cells",
    "fold_chunk",
    "fraction_of",
    "group_by",
    "iter_stream_rows",
    "jsonable",
    "load_stream",
    "mean_of",
    "merge_digests",
    "row_digest",
    "run_sweep",
    "shared_runner",
    "shutdown_shared_runners",
    "values_of",
    "worker_cache",
]
