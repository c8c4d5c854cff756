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

Extreme-scale sweeps (10^5–10^6 cells) stream instead (see
``engine/README.md``): ``run_sweep(..., sink=JsonlSink(path))`` hands
rows to a :class:`~repro.engine.sink.ResultSink` a chunk at a time as
chunks complete instead of accumulating them, and
``sink=ReducerSink(RowReducer(...))`` folds them into exact streaming
aggregates per chunk; both keep sweep memory flat in cell count while
staying byte-identical across backends and worker counts.  A sink
states what it needs from a chunk (:class:`~repro.engine.sink.ChunkPlan`),
the chunk is folded into exactly that
(:class:`~repro.engine.sink.FoldedChunk`) where its tasks ran, and the
sink's ``emit`` takes it whole — the one thing a sink ever receives —
so no row crosses the pool boundary.  A sweep's ``fixed`` values cross
the pool once per chunk, not once per task.
"""

from repro.engine.aggregate import (
    Accumulator,
    CountAcc,
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
    run_sweep,
    shared_runner,
    shutdown_shared_runners,
    worker_cache,
)
from repro.engine.sink import (
    STREAM_KIND,
    STREAM_SCHEMA,
    ChunkPlan,
    FoldedChunk,
    JsonlSink,
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
    fraction_of,
    group_by,
    jsonable,
    mean_of,
)

__all__ = [
    "MAX_CHUNK_ROWS",
    "SCHEMA_VERSION",
    "STREAM_KIND",
    "STREAM_SCHEMA",
    "WORKER_CACHE_LIMIT",
    "Accumulator",
    "ChunkPlan",
    "CountAcc",
    "FoldedChunk",
    "JsonlSink",
    "MeanAcc",
    "QuantileDigest",
    "ReducerSink",
    "ResultSink",
    "ResultStore",
    "RowReducer",
    "RunResult",
    "RunTask",
    "SweepOutcome",
    "SweepRunner",
    "SweepSpec",
    "TeeSink",
    "WorkerCrashError",
    "canonical_line",
    "default_chunksize",
    "default_workers",
    "derive_seed",
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
    "worker_cache",
]
