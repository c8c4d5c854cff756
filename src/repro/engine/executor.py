"""Sweep execution: serial, fanned out over a process pool, or onto a
persistent warm pool reused across sweeps.

The contract that makes parallelism safe here is one-way data flow:
every :class:`~repro.engine.spec.RunTask` carries its own seed and
builds its own simulator, so tasks share nothing and the executor can
batch them onto workers in any layout.  Results are always returned in
task-index order, so a sweep's output is bit-identical at every worker
count — a property the suite's property tests pin down.

Two pool modes exist:

* the default creates a pool per :func:`run_sweep` call — simple, and
  fine when one sweep dominates the session;
* :class:`SweepRunner` (or ``persistent_pool=True``) keeps **one warm
  pool alive across sweeps**.  Workers are created once with an
  initializer that pre-imports the simulator stack, so a campaign of
  many small sweeps (the bench suite's cases, a 10^5-run study split
  into shards) amortizes process creation and module import instead of
  paying them per sweep.  Results are still bit-identical: warm workers
  hold no per-task state, only imported modules and
  :func:`worker_cache` entries that are pure functions of their keys.

Both go through one dispatch body (:func:`_dispatch`), told only which
pool to use.  On the streaming paths (``sink=`` / ``reduce=``) the unit
of work is a **chunk** of at most :data:`MAX_CHUNK_ROWS` consecutive
tasks: :func:`~repro.engine.sink.fold_chunk` executes it where the pool
put it (in this process when there is no pool) and folds its rows into
the pieces the sink tree asked for, and one loop (:func:`_stream`)
hands the folded chunks to the sink in task order.  For a sink that
takes its rows folded, no row crosses the process boundary: the parent
orders chunks, writes their bytes and merges their partials.
"""

from __future__ import annotations

import atexit
import functools
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ContextManager, Iterable, Iterator

from repro.engine.resilience import resolve_policy, run_resilient
from repro.engine.sink import LIVE_RESULTS, CellFoldSink, ReducerSink, TeeSink, fold_chunk
from repro.engine.spec import RunResult, RunTask, SweepSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.aggregate import RowReducer
    from repro.engine.sink import ResultSink
    from repro.engine.store import ResultStore

#: most rows one streamed chunk holds unless ``chunksize=`` says
#: otherwise.  Bounds the rows alive at once whatever the sweep's size
#: (peak heap stays flat in cell count, serial included), and keeps
#: chunks short enough that the parent's gzip of one overlaps the
#: workers' fold of the next.
MAX_CHUNK_ROWS = 256


def _execute_task(task: RunTask) -> RunResult:
    """Top-level trampoline so tasks pickle into pool workers."""
    return task.execute()


def default_workers() -> int:
    """A sensible worker count for this machine (>= 1)."""
    return max(1, os.cpu_count() or 1)


def default_chunksize(n_tasks: int, workers: int) -> int:
    """Batch tasks so each worker sees a few chunks, not one task each.

    Four chunks per worker amortizes task pickling without letting one
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
    """Pool initializer: pre-import the simulator stack.

    A cold worker pays these imports lazily inside its first task; a
    spawned (non-fork) worker pays them per *pool*.  Importing them in
    the initializer moves that cost to pool creation, which the
    persistent runner pays exactly once per campaign.
    """
    import repro.db.cluster  # noqa: F401  (pulls protocols, net, sim, storage)
    import repro.experiments.workload_study  # noqa: F401
    import repro.workload.generators  # noqa: F401
    import repro.workload.scenarios  # noqa: F401


#: exceptions meaning "this environment cannot create that pool" — the
#: serial fallback covers them; anything else is a real bug and raises.
#: AssertionError is multiprocessing's daemonic-children refusal, hit
#: when a bench task running *inside* a pool worker opens its own pool.
_POOL_UNAVAILABLE = (ImportError, OSError, PermissionError, AssertionError)


@dataclass
class SweepOutcome:
    """An executed sweep: the spec summary plus ordered results.

    ``aggregate`` is populated by the streaming paths (``sink=`` /
    ``reduce=``): the sink or reducer summary — row count, the
    order-independent row digest, and any reducer metrics.  On the
    default (row-keeping) path it stays ``None``.

    ``resilience`` is populated only by the fault-tolerant path
    (``on_error=`` / ``resume_from=``): completed/resumed/retried/
    quarantined/respawns provenance, so a partial result can never be
    mistaken for a full one.  ``failures`` then lists the quarantined
    cells as :class:`~repro.engine.resilience.TaskFailure` records.
    """

    spec: dict[str, Any]
    results: list[RunResult] = field(default_factory=list)
    aggregate: dict[str, Any] | None = None
    resilience: dict[str, Any] | None = None
    failures: list[Any] = field(default_factory=list)

    @property
    def name(self) -> str:
        """The sweep's name."""
        return self.spec["name"]

    def values(self) -> list[Any]:
        """Raw task return values, in task order."""
        return [r.value for r in self.results]

    def by_cell(self) -> list[tuple[dict[str, Any], list[RunResult]]]:
        """Results grouped per grid cell, preserving expansion order.

        All results of one sweep share a parameter-name set, so the
        cell key is the value tuple under one sorted name list computed
        once — not a re-sorted item tuple per result.  (Rows with a
        divergent name set — hand-built outcomes — fall back to the
        per-row sorted-items key.)
        """
        groups: dict[tuple, tuple[dict[str, Any], list[RunResult]]] = {}
        names: tuple[str, ...] | None = None
        for result in self.results:
            params = result.params
            if names is None or len(params) != len(names):
                names = tuple(sorted(params))
            try:
                key = tuple(params[name] for name in names)
            except KeyError:  # divergent name set
                key = tuple(sorted(params.items(), key=lambda kv: kv[0]))
            groups.setdefault(key, (params, []))[1].append(result)
        return list(groups.values())

    def cell(self, **params: Any) -> list[RunResult]:
        """Results of the single cell matching ``params`` (subset match)."""
        return [
            r
            for r in self.results
            if all(r.params.get(k) == v for k, v in params.items())
        ]


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
    seeds travel with tasks and warm workers hold no run state.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers if workers is not None else default_workers()
        self._pool: Any = None
        self._pool_failed = False
        self.sweeps_run = 0
        self.pools_created = 0

    def _ensure_pool(self) -> Any:
        """The shared pool, or None when this environment cannot pool."""
        if self._pool is None and not self._pool_failed:
            # import the stack in the *parent* first: fork children
            # then inherit warm modules outright, and the initializer
            # only pays real import work under a spawn start method.
            # Outside _create_pool's guard: a broken import of this
            # repo raises, it never degrades the runner to serial.
            _warm_worker()
            self._pool = _create_pool(self.workers, initializer=_warm_worker)
            if self._pool is None:
                self._pool_failed = True
            else:
                self.pools_created += 1
        return self._pool

    @contextmanager
    def _lease(self) -> Iterator[Any]:
        """The warm pool, left running for the next sweep."""
        yield self._ensure_pool()

    def run_sweep(
        self,
        spec: SweepSpec,
        chunksize: int | None = None,
        store: "ResultStore | None" = None,
        sink: "ResultSink | None" = None,
        reduce: "RowReducer | None" = None,
        on_error: Any = None,
        resume_from: Any = None,
    ) -> SweepOutcome:
        """Execute one sweep on the warm pool (API mirrors :func:`run_sweep`)."""
        outcome = _dispatch(
            spec, self.workers, chunksize, store, sink, reduce, on_error, resume_from, self._lease
        )
        self.sweeps_run += 1
        return outcome

    def close(self) -> None:
        """Tear the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    chunksize: int | None = None,
    store: "ResultStore | None" = None,
    persistent_pool: bool = False,
    sink: "ResultSink | None" = None,
    reduce: "RowReducer | None" = None,
    on_error: Any = None,
    resume_from: Any = None,
) -> SweepOutcome:
    """Execute a sweep and (optionally) persist its artifact.

    Args:
        spec: the sweep to run.
        workers: process count; ``1`` (or anything lower) runs serially
            in this process, which is also the automatic fallback when
            a pool cannot be created (restricted environments, missing
            ``fork``/``spawn`` support).
        chunksize: tasks per worker batch; default
            :func:`default_chunksize`, on the streaming paths capped at
            :data:`MAX_CHUNK_ROWS` (an explicit value always wins).
        store: when given, the outcome is saved under ``spec.name``
            before returning.  (With a non-row-keeping ``sink`` the
            saved artifact has an empty ``results`` body — stream the
            rows through a :class:`~repro.engine.sink.JsonlSink`
            instead when they must be persisted.)
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
        reduce: a :class:`~repro.engine.aggregate.RowReducer`
            *template*, never mutated: shorthand for
            ``sink=ReducerSink(reduce.fresh())`` — each chunk folds its
            rows into a fresh partial where its tasks ran, partials
            merge in chunk order and the outcome carries only
            ``aggregate``.  Mutually exclusive with ``sink``.
        on_error: fault policy for failing tasks.  ``None`` (default)
            is the exact historical behaviour — the first task
            exception aborts the sweep.  ``"retry"`` re-runs failed
            tasks from their pinned per-cell seed under the default
            :class:`~repro.engine.resilience.RetryPolicy`;
            ``"quarantine"`` additionally records cells that exhaust
            their retries into the outcome's failure manifest and
            keeps sweeping; pass a ``RetryPolicy`` for full control.
            Any non-``None`` value routes execution through the
            resilient backend, which also survives worker-process
            death (the pool is respawned and unacknowledged chunks
            re-dispatched, exactly-once by task index).
        resume_from: path of a partial :class:`~repro.engine.sink.JsonlSink`
            artifact from a crashed run.  Committed rows are salvaged
            and replayed instead of re-executed, and the finished
            artifact is byte-identical to an uninterrupted run.  When
            ``sink`` is ``None``, a ``JsonlSink`` at that path is
            implied.  Composes with ``on_error``; not with ``reduce``.

    Returns:
        A :class:`SweepOutcome` whose ``results`` are in task order —
        identical content for every ``workers`` value.  Streaming paths
        additionally seat the sink/reducer summary in ``aggregate``;
        its row digest is byte-identical across all backends and worker
        counts.
    """
    if persistent_pool and workers > 1:
        return shared_runner(workers).run_sweep(spec, chunksize, store, sink, reduce, on_error, resume_from)
    return _dispatch(
        spec,
        workers,
        chunksize,
        store,
        sink,
        reduce,
        on_error,
        resume_from,
        functools.partial(_fresh_pool, workers),
    )


def _dispatch(
    spec: SweepSpec,
    workers: int,
    chunksize: int | None,
    store: "ResultStore | None",
    sink: "ResultSink | None",
    reduce: "RowReducer | None",
    on_error: Any,
    resume_from: Any,
    lease: Callable[[], ContextManager[Any]],
) -> SweepOutcome:
    """The one body behind :func:`run_sweep` and :meth:`SweepRunner.run_sweep`.

    ``lease()`` is a context manager yielding the pool a parallel sweep
    runs on — ``None`` where this environment cannot pool, which means
    serial.  It alone differs between the two callers.
    """
    if sink is not None and reduce is not None:
        raise ValueError("pass sink= or reduce=, not both")
    if on_error is not None or resume_from is not None:
        # The resilient backend owns its pool (it must be able to kill
        # and respawn workers); a warm pool stays untouched.
        if reduce is not None:
            raise ValueError("on_error/resume_from do not compose with reduce=")
        outcome = run_resilient(
            spec,
            workers=workers,
            chunksize=chunksize,
            sink=sink,
            policy=resolve_policy(on_error),
            resume_from=resume_from,
        )
    else:
        if reduce is not None:
            sink = ReducerSink(reduce.fresh())  # the template is never mutated
        parallel = workers > 1 and spec.n_tasks > 1
        with lease() if parallel else nullcontext() as pool:
            if sink is not None:
                outcome = _stream(spec, workers if pool is not None else 1, chunksize, sink, pool)
            else:
                outcome = SweepOutcome(
                    spec=spec.summary(), results=_execute_all(spec.tasks(), workers, chunksize, pool)
                )
    if store is not None:
        store.save(outcome)
    return outcome


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


def _create_pool(workers: int, initializer: Callable[[], None] | None = None) -> Any:
    """A process pool, or None where this environment cannot create one
    (sandboxes where process creation is forbidden, a task already
    running inside a daemonic pool worker).

    Only pool *creation* falls back to serial; an error raised by a
    task must surface, not silently re-run the whole sweep serially.
    """
    try:
        import multiprocessing

        return multiprocessing.get_context().Pool(processes=workers, initializer=initializer)
    except _POOL_UNAVAILABLE:
        return None


@contextmanager
def _fresh_pool(workers: int) -> Iterator[Any]:
    """A pool that lives for one sweep."""
    pool = _create_pool(workers)
    try:
        yield pool
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()


def _execute_all(tasks: list[RunTask], workers: int, chunksize: int | None, pool: Any) -> list[RunResult]:
    """The keep-every-row path: all results, in task order
    (``Pool.map`` preserves input order, so no re-sorting is needed)."""
    if pool is None:
        return [task.execute() for task in tasks]
    return pool.map(_execute_task, tasks, chunksize or default_chunksize(len(tasks), workers))


# ----------------------------------------------------------------------
# the streaming backend (sink= / reduce=)
# ----------------------------------------------------------------------


def _chunked(items: Iterable[Any], size: int) -> Iterable[list[Any]]:
    """Split an iterable into lists of at most ``size`` items."""
    chunk: list[Any] = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _stream(
    spec: SweepSpec,
    workers: int,
    chunksize: int | None,
    sink: "ResultSink",
    pool: Any,
) -> SweepOutcome:
    """Drive one sweep through a sink, a chunk at a time.

    The one loop of the streaming paths, serial and pooled: tasks come
    from ``spec.iter_tasks()`` (never materialized as a list), each
    chunk of them is folded by :func:`~repro.engine.sink.fold_chunk` —
    in a pool worker, or right here — into the pieces ``sink`` asked
    for, and ``Pool.imap`` hands the folded chunks back in task order.

    A task that raises ends its chunk: the rows before it are still
    absorbed, then the sink is aborted, not closed — a streaming file
    sink leaves a detectably-truncated artifact behind, holding every
    row before the failing one, instead of a well-formed file holding
    half a sweep — and the task's exception is re-raised.
    """
    summary = spec.summary()
    fold = functools.partial(fold_chunk, plan=sink.chunk_plan() or LIVE_RESULTS)
    size = chunksize or min(default_chunksize(spec.n_tasks, workers), MAX_CHUNK_ROWS)
    task_chunks = _chunked(spec.iter_tasks(), size)
    sink.open(summary)
    try:
        for chunk in map(fold, task_chunks) if pool is None else pool.imap(fold, task_chunks):
            sink.absorb(chunk)
            if chunk.error is not None:
                raise chunk.error
    except BaseException:
        sink.abort()
        raise
    sink.close()
    results = list(sink.results) if sink.keeps_rows else []
    return SweepOutcome(spec=summary, results=results, aggregate=sink.summary())


def map_runs(
    task: Callable[..., Any],
    seeds: Iterable[int],
    workers: int = 1,
    **params: Any,
) -> list[Any]:
    """Convenience: run ``task(seed=s, **params)`` for every seed.

    A one-cell sweep without declaring a spec — handy for quick studies
    and for porting existing ``for i in range(runs)`` loops.
    """
    seeds = list(seeds)
    tasks = [
        RunTask(index=i, sweep="map-runs", task=task, params=dict(params), run=i, seed=s)
        for i, s in enumerate(seeds)
    ]
    with _fresh_pool(workers) if workers > 1 and len(tasks) > 1 else nullcontext() as pool:
        return [r.value for r in _execute_all(tasks, workers, None, pool)]


def fold_cells(
    spec: SweepSpec,
    fold: Callable[[Any, RunResult], Any],
    workers: int = 1,
    store: "ResultStore | None" = None,
    sink: "ResultSink | None" = None,
) -> list[tuple[dict[str, Any], Any]]:
    """Run ``spec`` and fold its results per grid cell, in task order.

    Returns :meth:`~repro.engine.sink.CellFoldSink.cells` —
    ``(params, state)`` per cell, in expansion order.  Without ``sink``
    the sweep keeps every row (so ``store`` persists the full artifact)
    and the fold runs over them afterwards; with one, rows stream
    through the caller's sink and the fold together and no row list ever
    exists.  Both ways ``fold`` sees the same results in the same order,
    so the folded states are identical.
    """
    folder = CellFoldSink(fold)
    if sink is None:
        for result in run_sweep(spec, workers=workers, store=store).results:
            folder.emit(result)
    else:
        run_sweep(spec, workers=workers, store=store, sink=TeeSink(sink, folder))
    return folder.cells()
