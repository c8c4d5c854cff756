"""Sweep execution: serial, fanned out over a process pool, or onto a
persistent warm pool reused across sweeps.

The contract that makes parallelism safe here is one-way data flow:
every :class:`~repro.engine.spec.RunTask` carries its own seed and
builds its own simulator, so tasks share nothing and the executor can
batch them onto workers in any layout.  Results are always returned in
task-index order, so a sweep's output is bit-identical at every worker
count — a property the suite's property tests pin down.

Two pool modes exist, one loop runs on both:

* the default creates a pool per :func:`run_sweep` call — simple, and
  fine when one sweep dominates the session;
* :class:`SweepRunner` (or ``persistent_pool=True``) keeps **one warm
  pool alive across sweeps**.  Workers are created once with an
  initializer that pre-imports the simulator stack, so a campaign of
  many small sweeps (repeated passes of one sweep, a 10^5-run study split
  into shards) amortizes process creation and module import instead of
  paying them per sweep.  Results are still bit-identical: warm workers
  hold no per-task state, only imported modules and
  :func:`worker_cache` entries that are pure functions of their keys.

The pool is a ``concurrent.futures.ProcessPoolExecutor`` either way,
and every sweep — keep-every-row or ``sink=`` — is one call of
:func:`_stream`.  The unit of work is a **chunk** of at most
:data:`MAX_CHUNK_ROWS` consecutive tasks, described by cell × run
ranges (:class:`~repro.engine.spec.TaskChunk`) rather than built:
:func:`~repro.engine.sink.fold_chunk` expands and executes it where the
pool put it (in this process when there is no pool) and folds its rows
into the pieces the sink tree asked for; one generator
(:func:`_folded_chunks`) submits chunks within a bounded window and
hands them back in task order.  For a sink that takes its rows folded,
no row crosses the process boundary: the parent orders chunks, writes
their bytes and merges their partials.

A failing task or a dead worker ends the sweep at once: the sink is
aborted (a :class:`~repro.engine.sink.JsonlSink` artifact is left
detectably truncated) and the error is raised — a task's own
exception, or :class:`WorkerCrashError`.
"""

from __future__ import annotations

import atexit
import functools
import os
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.engine.sink import (
    LIVE_RESULTS,
    CellFoldSink,
    FoldedChunk,
    MemorySink,
    fold_chunk,
)
from repro.engine.spec import RunResult, SweepSpec, TaskChunk

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.sink import ResultSink
    from repro.engine.store import ResultStore

#: most rows one streamed chunk holds unless ``chunksize=`` says
#: otherwise.  Bounds the rows alive at once whatever the sweep's size
#: (peak heap stays flat in cell count, serial included), and keeps
#: chunks short enough that the parent's gzip of one overlaps the
#: workers' fold of the next.
MAX_CHUNK_ROWS = 256


class WorkerCrashError(RuntimeError):
    """A pool worker died mid-sweep; the sweep was abandoned."""


def default_workers() -> int:
    """A sensible worker count for this machine (>= 1)."""
    return max(1, os.cpu_count() or 1)


def default_chunksize(n_tasks: int, workers: int) -> int:
    """Batch tasks so each worker sees a few chunks, not one task each.

    Four chunks per worker amortizes per-chunk dispatch without letting one
    slow chunk straggle the whole pool.
    """
    return max(1, n_tasks // (workers * 4) or 1)


# ----------------------------------------------------------------------
# warm-worker state
# ----------------------------------------------------------------------

#: per-worker memo for deterministic shared artifacts (see worker_cache).
_WORKER_CACHE: dict[Any, Any] = {}

#: cap on distinct worker_cache entries per process.  A long-lived warm
#: pool sees every sweep of a campaign; without a bound, each new
#: (catalog, topology, trace) key pins its artifact forever.  FIFO like
#: ``CATALOG_MEMO_LIMIT``: entries are pure functions of their keys, so
#: eviction only ever costs a rebuild, never correctness.
WORKER_CACHE_LIMIT = 128


def worker_cache(key: Any, build: Callable[[], Any]) -> Any:
    """Per-process memo for artifacts that are pure functions of ``key``.

    Persistent workers survive across tasks, so a catalog or topology
    that every task of a sweep rebuilds identically can be built once
    per worker: ``catalog = worker_cache(("wan", 4, 8), build_catalog)``.

    Only cache values that are (a) deterministic given the key and (b)
    never mutated by a run — and never cache anything whose construction
    *consumes a shared RNG stream*, because skipping those draws on a
    warm worker would change every draw that follows and break the
    byte-identical-trajectories guarantee.

    Bounded at :data:`WORKER_CACHE_LIMIT` entries with FIFO eviction,
    so a pool reused across many sweeps cannot grow its memo without
    bound.
    """
    try:
        return _WORKER_CACHE[key]
    except KeyError:
        value = build()
        while len(_WORKER_CACHE) >= WORKER_CACHE_LIMIT:
            _WORKER_CACHE.pop(next(iter(_WORKER_CACHE)))
        _WORKER_CACHE[key] = value
        return value


def clear_worker_cache() -> None:
    """Drop this process's :func:`worker_cache` entries (tests use this)."""
    _WORKER_CACHE.clear()


def _warm_worker() -> None:
    """Pre-import the simulator stack.

    A cold worker pays these imports lazily inside its first task; a
    spawned (non-fork) worker pays them per *pool*.  Importing them in
    the initializer moves that cost to pool creation, which the
    persistent runner pays exactly once per campaign.
    """
    import repro.db.cluster  # noqa: F401  (pulls protocols, net, sim, storage)
    import repro.experiments.workload_study  # noqa: F401
    import repro.workload.generators  # noqa: F401
    import repro.workload.scenarios  # noqa: F401


#: set in every pool worker: a sweep issued from inside one runs serially
#: (executor workers are not daemonic, so nothing else would stop a
#: task that opens its own runner from forking grandchildren).
_IN_WORKER = False


def _init_worker(warm: bool) -> None:
    """Pool initializer: mark the process, and warm it on a warm pool."""
    global _IN_WORKER
    _IN_WORKER = True
    if warm:
        _warm_worker()


def _create_pool(workers: int, warm: bool) -> Any:
    """A process pool, or None where there cannot be one: this
    environment forbids it, or this process is itself a pool worker.

    ``concurrent.futures.ProcessPoolExecutor`` is the one standard
    library pool that reports a dead worker (``BrokenProcessPool``)
    instead of waiting for it forever.  Only pool *creation* falls back
    to serial; an error raised by a task must surface, not silently
    re-run the whole sweep serially.
    """
    if _IN_WORKER:
        return None
    try:
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(warm,))
    except (ImportError, OSError, NotImplementedError):  # no semaphores, no processes here
        return None


@dataclass
class SweepOutcome:
    """An executed sweep: the spec summary plus ordered results.

    ``aggregate`` is populated by the streaming path (``sink=``): the
    sink summary — row count, the order-independent row digest, and any
    reducer metrics.  On the default (row-keeping) path it stays
    ``None``.
    """

    spec: dict[str, Any]
    results: list[RunResult] = field(default_factory=list)
    aggregate: dict[str, Any] | None = None

    @property
    def name(self) -> str:
        """The sweep's name."""
        return self.spec["name"]

    def values(self) -> list[Any]:
        """Raw task return values, in task order."""
        return [r.value for r in self.results]


class SweepRunner:
    """A sweep executor that keeps one warm process pool across sweeps.

    Opt-in persistent-pool mode: create the runner once, push any
    number of sweeps through :meth:`run_sweep`, and close it (it is
    also a context manager).  The pool is created lazily on the first
    parallel sweep, with :func:`_warm_worker` pre-importing the
    simulator stack in every worker; environments where pools cannot
    be created (sandboxes, nested pools) degrade to serial execution,
    exactly like :func:`run_sweep`.

    Results are bit-identical to the per-sweep-pool and serial paths —
    seeds derive from the spec and warm workers hold no run state.
    """

    #: pre-import the simulator stack here and in every worker (the pool
    #: that lives for one sweep has nothing to amortize that over)
    _warm = True

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers if workers is not None else default_workers()
        self._pool: Any = None
        self._pool_failed = False
        self.sweeps_run = 0
        self.pools_created = 0

    def _ensure_pool(self) -> Any:
        """The pool, or None when this environment cannot pool."""
        if self._pool is None and not self._pool_failed:
            if self._warm:
                # import the stack in the *parent* first: fork children
                # then inherit warm modules outright, and the initializer
                # only pays real import work under a spawn start method.
                # Outside _create_pool's guard: a broken import of this
                # repo raises, it never degrades the runner to serial.
                _warm_worker()
            self._pool = _create_pool(self.workers, self._warm)
            if self._pool is None:
                self._pool_failed = True
            else:
                self.pools_created += 1
        return self._pool

    def run_sweep(
        self,
        spec: SweepSpec,
        chunksize: int | None = None,
        store: "ResultStore | None" = None,
        sink: "ResultSink | None" = None,
    ) -> SweepOutcome:
        """Execute one sweep on the warm pool (API mirrors :func:`run_sweep`).

        A worker that dies closes the pool (:class:`WorkerCrashError`);
        the runner's next parallel sweep creates a fresh one.
        """
        if store is not None and sink is not None and not sink.keeps_rows:
            raise ValueError(
                f"sweep {spec.name!r}: store= saves the outcome's rows and this sink keeps "
                "none; stream them through a JsonlSink instead, or tee a MemorySink in"
            )
        outcome = _stream(spec, chunksize, _KeepRows() if sink is None else sink, self)
        if store is not None:
            store.save(outcome)
        self.sweeps_run += 1
        return outcome

    def close(self) -> None:
        """Tear the pool down (idempotent); the next parallel sweep
        creates a fresh one — which is also how a pool that lost a
        worker is replaced."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class _OneSweepRunner(SweepRunner):
    """The pool that lives for one sweep."""

    _warm = False


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    chunksize: int | None = None,
    store: "ResultStore | None" = None,
    persistent_pool: bool = False,
    sink: "ResultSink | None" = None,
) -> SweepOutcome:
    """Execute a sweep and (optionally) persist its artifact.

    Args:
        spec: the sweep to run.
        workers: process count; ``1`` (or anything lower) runs serially
            in this process, which is also the automatic fallback when
            a pool cannot be created (restricted environments, missing
            ``fork``/``spawn`` support).
        chunksize: tasks per worker batch; default
            :func:`default_chunksize`, capped at :data:`MAX_CHUNK_ROWS`
            (an explicit value always wins).
        store: when given, the outcome is saved under ``spec.name``
            before returning.  Only with the default path or a sink
            that keeps rows: stream the rows through a
            :class:`~repro.engine.sink.JsonlSink` instead when a sink
            must drop them.
        persistent_pool: run on the process-wide shared
            :class:`SweepRunner` for this worker count, keeping the
            pool warm for later ``run_sweep`` calls, instead of
            creating (and tearing down) a pool just for this sweep.
        sink: streaming backend — rows reach the sink in task-index
            order, a chunk at a time as chunks complete (folded where
            their tasks ran for a sink that opts in, see
            :meth:`~repro.engine.sink.ResultSink.chunk_plan`; as live
            results otherwise), tasks are generated lazily, and only
            row-keeping sinks (``MemorySink``) retain rows in the
            outcome.  The default (``None``) is the classic
            keep-everything path, byte-identical to prior releases.

    Returns:
        A :class:`SweepOutcome` whose ``results`` are in task order —
        identical content for every ``workers`` value.  Streaming paths
        additionally seat the sink/reducer summary in ``aggregate``;
        its row digest is byte-identical across all backends and worker
        counts.

    Raises:
        ValueError: ``store`` with a ``sink`` that keeps no rows (the
            saved artifact would hold none), before any task runs.
        WorkerCrashError: a pool worker died.  Like a task's own
            exception, it aborts the sink first.
    """
    if persistent_pool and workers > 1:
        return shared_runner(workers).run_sweep(spec, chunksize, store, sink)
    with _OneSweepRunner(workers) as runner:
        return runner.run_sweep(spec, chunksize, store, sink)


#: process-wide persistent runners, one per worker count.
_SHARED_RUNNERS: dict[int, SweepRunner] = {}


def shared_runner(workers: int) -> SweepRunner:
    """The process-wide persistent :class:`SweepRunner` for ``workers``.

    :func:`shutdown_shared_runners` is registered with ``atexit`` at
    import time (see module bottom), so warm pools opened via
    ``persistent_pool=True`` are closed at interpreter exit even if the
    caller never cleans up — including after a SIGINT that aborted a
    sweep mid-flight, which otherwise leaks pool semaphores.
    """
    runner = _SHARED_RUNNERS.get(workers)
    if runner is None:
        runner = _SHARED_RUNNERS[workers] = SweepRunner(workers=workers)
    return runner


def shutdown_shared_runners() -> None:
    """Close every process-wide persistent runner (tests / atexit).

    Idempotent: runners are drained from the registry before closing,
    each :meth:`SweepRunner.close` tolerates an already-closed pool,
    and one runner failing to close never strands the rest.
    """
    while _SHARED_RUNNERS:
        _, runner = _SHARED_RUNNERS.popitem()
        try:
            runner.close()
        except Exception:  # pragma: no cover - interpreter-teardown noise
            pass


# Registered unconditionally at import: the hook is harmless when no
# shared runner was ever created (the registry is empty) and guarantees
# cleanup when one was — even for runs interrupted before their own
# teardown.  Re-imports don't stack duplicates (modules import once),
# and the function is idempotent regardless.
atexit.register(shutdown_shared_runners)


# ----------------------------------------------------------------------
# the one loop
# ----------------------------------------------------------------------


class _KeepRows(MemorySink):
    """The default path's sink: every live result kept, none encoded —
    so no digest, and no summary for the outcome's ``aggregate``."""

    def absorb(self, chunk: FoldedChunk) -> None:
        self.rows_emitted += chunk.rows
        self.results.extend(chunk.results)

    def summary(self) -> None:  # type: ignore[override]
        return None


def _folded_chunks(
    task_chunks: Iterator[TaskChunk],
    fold: Callable[[TaskChunk], FoldedChunk],
    runner: SweepRunner,
    pool: Any,
) -> Iterator[FoldedChunk]:
    """Each chunk of tasks folded, in task order: here when ``pool`` is
    None, else on the pool — the one place work is submitted to it.

    At most ``2 * workers + 2`` chunks are in flight (submitted, not yet
    yielded), whatever the sweep's size.

    Raises:
        WorkerCrashError: a worker died.  The runner's pool is closed
            first, so a persistent runner creates a fresh one for its
            next sweep.
    """
    if pool is None:
        yield from map(fold, task_chunks)
        return
    from concurrent.futures.process import BrokenProcessPool

    depth = 2 * runner.workers + 2
    futures: deque[Any] = deque()  # oldest first
    while True:
        try:
            futures.extend(pool.submit(fold, chunk) for chunk in islice(task_chunks, depth - len(futures)))
            if not futures:
                return
            chunk = futures.popleft().result()
        except BrokenProcessPool as exc:
            runner.close()
            raise WorkerCrashError("a pool worker died mid-chunk; the sweep was abandoned") from exc
        yield chunk


def _stream(spec: SweepSpec, chunksize: int | None, sink: ResultSink, runner: SweepRunner) -> SweepOutcome:
    """Drive one sweep through a sink, a chunk at a time.

    The one loop of every mode, serial and pooled: the spec's tasks are
    cut into chunks of at most ``chunksize`` (default: see
    :func:`run_sweep`), walked lazily; each is folded by
    :func:`~repro.engine.sink.fold_chunk` — in a pool worker, or right
    here — into the pieces ``sink`` asked for, its tasks expanded where
    they run, and the folded chunks reach the sink in task order.

    A task that raises ends its chunk: the rows before it are still
    absorbed, then the sink is aborted, not closed — a streaming file
    sink leaves a detectably-truncated artifact behind, holding every
    row before the failing one, instead of a well-formed file holding
    half a sweep — and the task's exception is re-raised.  A lost
    worker aborts the same way, after the last whole chunk before the
    lost one.
    """
    n_tasks = spec.n_tasks
    pool = runner._ensure_pool() if runner.workers > 1 and n_tasks > 1 else None
    size = chunksize or min(
        default_chunksize(n_tasks, runner.workers if pool is not None else 1), MAX_CHUNK_ROWS
    )
    fold = functools.partial(fold_chunk, plan=sink.chunk_plan() or LIVE_RESULTS)
    summary = spec.summary()
    sink.open(summary)
    try:
        for chunk in _folded_chunks(spec.iter_chunks(size), fold, runner, pool):
            sink.absorb(chunk)
            if chunk.error is not None:
                raise chunk.error
    except BaseException:
        sink.abort()
        raise
    sink.close()
    return SweepOutcome(
        spec=summary,
        results=list(sink.results) if sink.keeps_rows else [],
        aggregate=sink.summary(),
    )


def fold_cells(
    spec: SweepSpec,
    fold: Callable[[Any, RunResult], Any],
    workers: int = 1,
    store: "ResultStore | None" = None,
) -> list[tuple[dict[str, Any], Any]]:
    """Run ``spec`` and fold its results per grid cell, in task order.

    Returns :meth:`~repro.engine.sink.CellFoldSink.cells` —
    ``(params, state)`` per cell, in expansion order.  The sweep keeps
    every row (so ``store`` persists the full artifact) and the fold
    runs over them afterwards.
    """
    folder = CellFoldSink(fold)
    for result in run_sweep(spec, workers=workers, store=store).results:
        folder.emit(result)
    return folder.cells()
