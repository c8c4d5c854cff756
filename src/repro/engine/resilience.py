"""Fault-tolerant sweep execution: retry, quarantine, crash recovery.

The repo simulates commit protocols under injected faults, but until
this layer the harness *running* those simulations was itself fragile:
one raising task aborted a whole 10^5-cell sweep, a dying worker
process hung the pool, and a truncated artifact could only be thrown
away.  This module makes the sweep engine crash-tolerant the same way
the paper's protocols are — deterministically, so every recovery path
converges to the bytes an uninterrupted run would have produced:

* :class:`RetryPolicy` — capped re-execution of failed tasks with
  bounded, deterministic backoff.  Tasks re-run *from their pinned
  per-cell seed* (the seed travels with the task), so a retry that
  succeeds is byte-identical to a first-try success.
* **Quarantine** — ``RetryPolicy(quarantine=True)`` records poison
  cells as :class:`TaskFailure` entries in an explicit
  :class:`FailureManifest` and keeps sweeping; the outcome (and the
  artifact's ``end`` record) carries the quarantined indices so a
  partial result can never be mistaken for a full one.
* **Worker-crash recovery** — the resilient parallel backend dispatches
  task chunks over a :class:`concurrent.futures.ProcessPoolExecutor`;
  when a worker dies mid-chunk (``BrokenProcessPool``), the pool is
  respawned and only *unacknowledged* chunks are re-dispatched, so
  every task index contributes exactly one row.
* **Resume** — ``run_sweep(resume_from=path)`` salvages the committed
  rows of a partial :class:`~repro.engine.sink.JsonlSink` artifact,
  skips re-executing those task indices, and replays the salvaged rows
  through the sink pipeline, so the finished artifact is byte-identical
  to an uninterrupted run (the crash-anywhere property the chaos tests
  pin).
* :class:`ChaosPlan` — a seeded, declarative fault harness for the
  sweep engine itself (kill a worker at a chosen task, fail a task N
  times, fail a sink write), in the same chainable-action style as
  :class:`~repro.sim.failures.FailurePlan`.  Injection state lives in
  marker files so a fault fires exactly the scheduled number of times
  across processes and across resumed runs.

Everything here is opt-in: ``run_sweep``'s default (``on_error=None``)
stays the exact historical abort-everything behaviour.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.common.errors import StoreError
from repro.engine.spec import RunResult, RunTask, SweepSpec
from repro.engine.store import jsonable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.executor import SweepOutcome
    from repro.engine.sink import JsonlSink, ResultSink


class WorkerCrashError(RuntimeError):
    """The pool kept losing workers beyond the policy's respawn budget."""


class InjectedFault(RuntimeError):
    """A task exception raised by a :class:`ChaosPlan` schedule."""


class InjectedSinkError(OSError):
    """A sink I/O error raised by a :class:`ChaosPlan` schedule."""


#: exit code chaos-killed workers die with (recognizable in waitpid logs).
CHAOS_KILL_EXIT = 86

#: failure-manifest schema version; bump on any layout change.
MANIFEST_SCHEMA = 1

#: the manifest ``kind`` tag distinguishing it from other artifacts.
MANIFEST_KIND = "repro-sweep-failures"


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry/backoff/quarantine policy for failed tasks.

    Args:
        max_attempts: total executions allowed per task (first try
            included); ``1`` disables retry.
        backoff: base delay in seconds before the second attempt;
            doubles per further attempt.  ``0.0`` retries immediately
            (what the deterministic tests use).
        backoff_cap: upper bound on any single delay — backoff is
            *bounded*, never unbounded exponential.
        quarantine: when a task exhausts its attempts, record it in the
            failure manifest and keep sweeping instead of aborting.
        respawn_limit: how many pool respawns (dead workers) one sweep
            tolerates before giving up with :class:`WorkerCrashError`.

    The policy is a frozen value object: no RNG, no jitter — two runs
    of the same sweep under the same policy behave identically, which
    is what lets a resumed run converge to the uninterrupted bytes.
    """

    max_attempts: int = 3
    backoff: float = 0.05
    backoff_cap: float = 1.0
    quarantine: bool = False
    respawn_limit: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays cannot be negative")
        if self.respawn_limit < 0:
            raise ValueError(f"respawn_limit must be >= 0, got {self.respawn_limit}")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before attempt ``attempt + 1`` (deterministic)."""
        if self.backoff <= 0.0:
            return 0.0
        return min(self.backoff_cap, self.backoff * (2 ** (attempt - 1)))


def resolve_policy(on_error: Any) -> RetryPolicy | None:
    """Normalize a ``run_sweep(on_error=...)`` argument.

    ``None``/``"raise"`` mean the historical abort-everything path
    (returns ``None``); ``"retry"`` and ``"quarantine"`` are shorthands
    for the common policies; a :class:`RetryPolicy` passes through.
    """
    if on_error is None or on_error == "raise":
        return None
    if isinstance(on_error, RetryPolicy):
        return on_error
    if on_error == "retry":
        return RetryPolicy()
    if on_error == "quarantine":
        return RetryPolicy(quarantine=True)
    raise ValueError(
        f"on_error must be None, 'raise', 'retry', 'quarantine' or a "
        f"RetryPolicy, got {on_error!r}"
    )


# ----------------------------------------------------------------------
# failure records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TaskFailure:
    """One quarantined (poison) cell: where it was and how it died."""

    index: int
    params: dict[str, Any]
    run: int
    seed: int
    attempts: int
    error: str
    message: str

    def payload(self) -> dict[str, Any]:
        """The manifest row (JSON-safe)."""
        return {
            "index": self.index,
            "params": jsonable(self.params),
            "run": self.run,
            "seed": self.seed,
            "attempts": self.attempts,
            "error": self.error,
            "message": self.message,
        }


@dataclass
class FailureManifest:
    """The explicit record of a sweep's poison cells.

    Written alongside (never inside) the row artifact, so downstream
    tooling can tell "these cells are missing because they failed" from
    "this artifact is truncated".  Canonically encoded: two runs that
    quarantine the same cells produce identical manifest bytes.
    """

    sweep: str
    records: list[TaskFailure] = field(default_factory=list)

    def indices(self) -> list[int]:
        """Quarantined task indices, sorted."""
        return sorted(r.index for r in self.records)

    def payload(self) -> dict[str, Any]:
        """The JSON-safe manifest document."""
        return {
            "schema": MANIFEST_SCHEMA,
            "kind": MANIFEST_KIND,
            "sweep": self.sweep,
            "quarantined": [
                r.payload() for r in sorted(self.records, key=lambda r: r.index)
            ],
        }

    def save(self, path: str | Path) -> Path:
        """Write the manifest canonically; returns its path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.payload(), sort_keys=True, indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FailureManifest":
        """Read a manifest back.

        Raises:
            StoreError: unreadable/foreign/schema-mismatched document.
        """
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"cannot read failure manifest {path}: {exc}") from None
        if not isinstance(payload, dict) or payload.get("kind") != MANIFEST_KIND:
            raise StoreError(f"{path} is not a sweep failure manifest")
        if payload.get("schema") != MANIFEST_SCHEMA:
            raise StoreError(
                f"failure manifest {path} has schema {payload.get('schema')!r}, "
                f"this library reads schema {MANIFEST_SCHEMA}"
            )
        records = [
            TaskFailure(
                index=r["index"],
                params=r["params"],
                run=r["run"],
                seed=r["seed"],
                attempts=r["attempts"],
                error=r["error"],
                message=r["message"],
            )
            for r in payload.get("quarantined", [])
        ]
        return cls(sweep=payload.get("sweep", ""), records=records)


# ----------------------------------------------------------------------
# chaos harness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KillWorker:
    """First execution of task ``index`` hard-kills its worker process."""

    index: int


@dataclass(frozen=True)
class FailTask:
    """The first ``attempts`` executions of task ``index`` raise
    :class:`InjectedFault`; later executions succeed."""

    index: int
    attempts: int = 1


@dataclass(frozen=True)
class FailSink:
    """The sink write of the ``row``-th emitted row (0-based) raises
    :class:`InjectedSinkError`, once."""

    row: int


ChaosAction = KillWorker | FailTask | FailSink


class ChaosPlan:
    """A declarative fault schedule for the sweep harness itself.

    The load-side dual of :class:`~repro.sim.failures.FailurePlan`:
    chainable actions, one :meth:`describe` line each — but keyed by
    task index / row count instead of virtual time, because the victim
    is the executor, not the simulated cluster.

    Injection state lives as marker files under ``state_dir`` (claimed
    atomically with ``O_EXCL``), so each scheduled fault fires exactly
    its scheduled number of times *across processes and across resumed
    runs* — a retried or re-dispatched task sees the claim and runs
    clean, which is what lets chaos runs converge deterministically.
    Plans are picklable and travel inside wrapped tasks into workers.
    """

    def __init__(self, state_dir: str | Path) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.actions: list[ChaosAction] = []

    def kill_worker(self, index: int) -> "ChaosPlan":
        """Hard-kill (``os._exit``) the worker executing task ``index``
        on its first execution; returns self for chaining."""
        self.actions.append(KillWorker(index))
        return self

    def fail_task(self, index: int, attempts: int = 1) -> "ChaosPlan":
        """Raise from task ``index``'s first ``attempts`` executions;
        returns self for chaining."""
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        self.actions.append(FailTask(index, attempts))
        return self

    def fail_sink(self, row: int) -> "ChaosPlan":
        """Raise an I/O error at the ``row``-th sink emit, once;
        returns self for chaining."""
        self.actions.append(FailSink(row))
        return self

    def __len__(self) -> int:
        return len(self.actions)

    def describe(self) -> str:
        """One line per action, in schedule order (for test logs)."""

        def key(action: ChaosAction) -> int:
            return action.row if isinstance(action, FailSink) else action.index

        return "\n".join(f"at={key(a)}: {a}" for a in sorted(self.actions, key=key))

    def claim(self, marker: str) -> bool:
        """Atomically claim a one-shot marker; True exactly once ever."""
        try:
            fd = os.open(self.state_dir / marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def claim_all(self) -> None:
        """Pre-claim every marker (tests use this to build the fault-free
        reference run of a chaos-wrapped spec)."""
        for action in self.actions:
            if isinstance(action, KillWorker):
                self.claim(f"kill-{action.index}")
            elif isinstance(action, FailTask):
                for k in range(action.attempts):
                    self.claim(f"fail-{action.index}-{k}")
            elif isinstance(action, FailSink):
                self.claim(f"sink-{action.row}")

    def wrap(self, task: Callable[..., Any]) -> "ChaosTask":
        """A picklable task wrapper that applies this plan's task faults."""
        return ChaosTask(task, self)

    def wrap_sink(self, sink: "ResultSink") -> "ChaosSink":
        """A sink wrapper that applies this plan's sink faults."""
        return ChaosSink(sink, self)


class ChaosTask:
    """A sweep task wrapped with a :class:`ChaosPlan`'s task faults.

    Sets ``needs_task_index`` so :meth:`~repro.engine.spec.RunTask.execute`
    passes the task's index in — fault schedules are keyed by index, the
    one coordinate that survives retries, re-dispatch and resume.
    """

    needs_task_index = True

    def __init__(self, inner: Callable[..., Any], plan: ChaosPlan) -> None:
        self.inner = inner
        self.plan = plan
        name = getattr(inner, "__qualname__", getattr(inner, "__name__", "task"))
        # spec.summary() reads __module__/__qualname__ off the task; the
        # chaos label deliberately omits the state_dir so two plans with
        # different scratch dirs produce byte-identical artifact headers.
        self.__module__ = getattr(inner, "__module__", __name__)
        self.__qualname__ = f"chaos[{name}]"
        self.__name__ = self.__qualname__

    def __call__(self, seed: int, task_index: int, **params: Any) -> Any:
        for action in self.plan.actions:
            if isinstance(action, KillWorker) and action.index == task_index:
                if self.plan.claim(f"kill-{task_index}"):
                    os._exit(CHAOS_KILL_EXIT)
            elif isinstance(action, FailTask) and action.index == task_index:
                for k in range(action.attempts):
                    if self.plan.claim(f"fail-{task_index}-{k}"):
                        raise InjectedFault(
                            f"injected fault at task {task_index} (attempt marker {k})"
                        )
        return self.inner(seed=seed, **params)


class ChaosSink:
    """A sink proxy that injects scheduled I/O errors before delegating.

    Delegates the whole :class:`~repro.engine.sink.ResultSink` surface
    to the wrapped sink, so it can stand anywhere a sink can — including
    inside a :class:`~repro.engine.sink.TeeSink`.
    """

    def __init__(self, inner: "ResultSink", plan: ChaosPlan) -> None:
        self.inner = inner
        self.plan = plan

    @property
    def keeps_rows(self) -> bool:
        return self.inner.keeps_rows

    @property
    def results(self) -> list[RunResult]:
        return self.inner.results

    @property
    def rows_emitted(self) -> int:
        return self.inner.rows_emitted

    @property
    def digest(self) -> int:
        return self.inner.digest

    @property
    def quarantined(self) -> list[int]:
        return self.inner.quarantined

    @property
    def spec(self) -> dict[str, Any] | None:
        return self.inner.spec

    def open(self, spec_summary: dict[str, Any]) -> None:
        self.inner.open(spec_summary)

    def emit(self, result: RunResult, row: Any = None) -> None:
        count = self.inner.rows_emitted
        for action in self.plan.actions:
            if isinstance(action, FailSink) and action.row == count:
                if self.plan.claim(f"sink-{count}"):
                    raise InjectedSinkError(
                        f"injected sink I/O error before row {count}"
                    )
        self.inner.emit(result, row)

    def chunk_plan(self) -> None:
        """Never opts in: ``fail_sink(row)`` counts live ``emit`` calls."""
        return None

    def absorb(self, chunk: Any) -> None:
        for result in chunk.results:
            self.emit(result)

    def note_quarantined(self, index: int) -> None:
        self.inner.note_quarantined(index)

    def close(self) -> None:
        self.inner.close()

    def abort(self) -> None:
        self.inner.abort()

    def summary(self) -> dict[str, Any]:
        return self.inner.summary()


# ----------------------------------------------------------------------
# the resilient executor
# ----------------------------------------------------------------------


@dataclass
class _Failed:
    """Worker-side envelope for one failed task (picklable)."""

    task: RunTask
    error: BaseException


@dataclass
class _Stats:
    """Mutable provenance counters for one resilient sweep."""

    resumed: int = 0
    completed: int = 0
    retried: int = 0
    respawns: int = 0


def _portable_error(exc: BaseException) -> BaseException:
    """The exception itself when it pickles, else a faithful stand-in
    (an unpicklable exception must not poison the result pipe)."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _guarded_chunk(tasks: list[RunTask]) -> list[Any]:
    """Worker side: execute one chunk, converting per-task exceptions
    into :class:`_Failed` envelopes instead of poisoning the pool."""
    out: list[Any] = []
    for task in tasks:
        try:
            out.append(task.execute())
        except Exception as exc:
            out.append(_Failed(task=task, error=_portable_error(exc)))
    return out


def _guard_one(task: RunTask) -> Any:
    """Serial flavour of :func:`_guarded_chunk`."""
    try:
        return task.execute()
    except Exception as exc:
        return _Failed(task=task, error=exc)


def _chunk_list(items: list[Any], size: int) -> list[list[Any]]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _resilient_raw_stream(
    tasks: list[RunTask],
    workers: int,
    chunksize: int | None,
    policy: RetryPolicy,
    stats: _Stats,
) -> Iterator[Any]:
    """``RunResult | _Failed`` per task, in task order, surviving worker
    death.

    The parallel backend dispatches chunks over a
    ``ProcessPoolExecutor``; a chunk is *acknowledged* once its result
    list is back in the parent.  When a worker dies, every
    unacknowledged chunk is re-dispatched onto a fresh pool — at most
    ``policy.respawn_limit`` times — so each task index yields exactly
    one item no matter how many workers were lost.
    """
    import multiprocessing

    from repro.engine.executor import _POOL_UNAVAILABLE, default_chunksize

    if workers <= 1 or len(tasks) <= 1 or multiprocessing.current_process().daemon:
        for task in tasks:
            yield _guard_one(task)
        return

    from concurrent.futures import FIRST_COMPLETED, CancelledError, wait
    from concurrent.futures.process import BrokenProcessPool

    size = chunksize or default_chunksize(len(tasks), workers)
    chunks = _chunk_list(tasks, size)
    try:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        futures: dict[Any, int] = {}
        for cid, chunk in enumerate(chunks):
            futures[pool.submit(_guarded_chunk, chunk)] = cid
    except _POOL_UNAVAILABLE:
        for task in tasks:
            yield _guard_one(task)
        return

    acked: dict[int, list[Any]] = {}
    next_cid = 0
    try:
        while next_cid < len(chunks):
            if not futures:  # pragma: no cover - defensive
                raise WorkerCrashError("resilient pool lost track of pending chunks")
            done, _pending = wait(list(futures), return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                cid = futures.pop(future)
                try:
                    acked[cid] = future.result()
                except (BrokenProcessPool, CancelledError, OSError):
                    broken = True
            if broken:
                stats.respawns += 1
                if stats.respawns > policy.respawn_limit:
                    raise WorkerCrashError(
                        f"workers kept dying: {stats.respawns} pool respawns "
                        f"exceeded the policy limit of {policy.respawn_limit}"
                    )
                pool.shutdown(wait=False, cancel_futures=True)
                futures.clear()
                pool = ProcessPoolExecutor(max_workers=workers)
                for cid, chunk in enumerate(chunks):
                    if cid not in acked:
                        futures[pool.submit(_guarded_chunk, chunk)] = cid
            while next_cid in acked:
                yield from acked.pop(next_cid)
                next_cid += 1
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _settle(
    item: Any,
    policy: RetryPolicy,
    stats: _Stats,
    sleep: Callable[[float], None] = time.sleep,
) -> RunResult | TaskFailure:
    """Apply retry/backoff/quarantine to one raw stream item.

    Retries run in the parent from the task's pinned seed, so a retry
    that succeeds is indistinguishable from a first-try success.
    """
    if isinstance(item, RunResult):
        stats.completed += 1
        return item
    task, error = item.task, item.error
    attempt = 1
    while attempt < policy.max_attempts:
        delay = policy.delay(attempt)
        if delay > 0:
            sleep(delay)
        attempt += 1
        stats.retried += 1
        try:
            result = task.execute()
        except Exception as exc:
            error = exc
            continue
        stats.completed += 1
        return result
    if policy.quarantine:
        return TaskFailure(
            index=task.index,
            params=jsonable(task.params),
            run=task.run,
            seed=task.seed,
            attempts=attempt,
            error=type(error).__name__,
            message=str(error),
        )
    raise error


def _find_jsonl(sink: Any, path: Path) -> "JsonlSink | None":
    """The JsonlSink writing ``path`` inside a (possibly nested) sink tree."""
    from repro.engine.sink import JsonlSink, TeeSink

    if isinstance(sink, ChaosSink):
        return _find_jsonl(sink.inner, path)
    if isinstance(sink, JsonlSink) and Path(sink.path) == path:
        return sink
    if isinstance(sink, TeeSink):
        for child in sink.sinks:
            found = _find_jsonl(child, path)
            if found is not None:
                return found
    return None


def _result_from_row(row: dict[str, Any]) -> RunResult:
    """Reconstruct a salvaged artifact row as a RunResult.

    The value is the row's JSON form (``jsonable`` is idempotent), so
    re-emitting it through any sink reproduces the original canonical
    line — and hence the original digest and artifact bytes.
    """
    return RunResult(
        index=row["index"],
        params=row["params"],
        run=row["run"],
        seed=row["seed"],
        value=row["value"],
    )


def run_resilient(
    spec: SweepSpec,
    workers: int = 1,
    chunksize: int | None = None,
    sink: "ResultSink | None" = None,
    policy: RetryPolicy | None = None,
    resume_from: str | Path | None = None,
) -> "SweepOutcome":
    """Execute one sweep under the resilience layer.

    This is the engine behind ``run_sweep(on_error=..., resume_from=...)``;
    call through :func:`~repro.engine.executor.run_sweep` in normal code.

    Rows are emitted into ``sink`` in task-index order, one ``emit``
    per row in the parent whatever :meth:`ResultSink.chunk_plan` says:
    retries are settled per task here, a quarantined cell leaves a gap
    mid-chunk, and ``ChaosPlan.fail_sink(row)`` counts rows.  Salvaged
    rows (under ``resume_from``) are replayed without re-executing
    their tasks.  The outcome's ``resilience``
    mapping (also merged into ``aggregate``) carries the provenance:
    ``completed`` / ``resumed`` / ``retried`` / ``quarantined`` /
    ``respawns`` — so partial results are always labelled as such.
    """
    from repro.engine.executor import SweepOutcome
    from repro.engine.sink import MemorySink, scan_partial_stream

    if policy is None:
        policy = RetryPolicy(max_attempts=1)
    summary = spec.summary()
    committed: dict[int, dict[str, Any]] = {}
    if resume_from is not None:
        resume_from = Path(resume_from)
        if sink is None:
            from repro.engine.sink import JsonlSink

            sink = JsonlSink(resume_from)
        elif _find_jsonl(sink, resume_from) is None:
            raise ValueError(
                f"resume_from={str(resume_from)!r} names no JsonlSink in the "
                "given sink tree; resume rewrites that artifact in place, so "
                "the sink must include a JsonlSink at the same path"
            )
        committed = scan_partial_stream(resume_from, expect_spec=jsonable(summary))
        n = spec.n_tasks
        stray = [i for i in committed if not (0 <= i < n)]
        if stray:
            raise StoreError(
                f"partial artifact {resume_from} holds task indices {stray[:5]} "
                f"outside this spec's 0..{n - 1} range; refusing to resume"
            )
    if sink is None:
        sink = MemorySink()

    stats = _Stats(resumed=len(committed))
    manifest = FailureManifest(sweep=spec.name)
    pending = [t for t in spec.iter_tasks() if t.index not in committed]
    raw = _resilient_raw_stream(pending, workers, chunksize, policy, stats)

    sink.open(summary)
    try:
        for index in range(spec.n_tasks):
            row = committed.get(index)
            if row is not None:
                sink.emit(_result_from_row(row), row=row)
                continue
            settled = _settle(next(raw), policy, stats)
            if isinstance(settled, TaskFailure):
                manifest.records.append(settled)
                sink.note_quarantined(settled.index)
            else:
                sink.emit(settled)
    except BaseException:
        sink.abort()
        raise
    sink.close()

    provenance: dict[str, Any] = {
        "completed": stats.completed + stats.resumed,
        "resumed": stats.resumed,
        "retried": stats.retried,
        "quarantined": manifest.indices(),
        "respawns": stats.respawns,
    }
    aggregate = dict(sink.summary())
    aggregate["resilience"] = provenance
    results = list(sink.results) if sink.keeps_rows else []
    return SweepOutcome(
        spec=summary,
        results=results,
        aggregate=aggregate,
        resilience=provenance,
        failures=list(manifest.records),
    )
