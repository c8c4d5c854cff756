"""Fault-tolerant sweep execution: retry, quarantine, crash recovery.

The repo simulates commit protocols under injected faults; this module
makes the harness *running* those simulations crash-tolerant the same
way the paper's protocols are — deterministically, so every recovery
path converges to the bytes an uninterrupted run would have produced.
It holds the policies, records and preludes; the sweep itself runs in
the one loop every sweep runs in (:mod:`repro.engine.executor`):

* :class:`RetryPolicy` — capped re-execution of failed tasks with
  bounded, deterministic backoff, settled where the task ran
  (:func:`~repro.engine.sink.fold_chunk`).  Tasks re-run *from their
  pinned per-cell seed* (the task carries its seed), so a retry
  that succeeds is byte-identical to a first-try success.
* **Quarantine** — ``RetryPolicy(quarantine=True)`` records poison
  cells as :class:`TaskFailure` entries in an explicit
  :class:`FailureManifest` and keeps sweeping; the outcome (and the
  artifact's ``end`` record) carries the quarantined indices so a
  partial result can never be mistaken for a full one.
* **Worker-crash recovery** — every pool is a
  :class:`concurrent.futures.ProcessPoolExecutor`, so a worker that
  dies mid-chunk is *seen* (``BrokenProcessPool``).  Under a policy the
  pool is replaced and the chunks not yet handed to the sink are
  submitted again — at most ``respawn_limit`` times — so every task
  index contributes exactly one row; with no policy the sweep aborts
  with :class:`WorkerCrashError` at once instead of hanging.
* **Resume** — ``run_sweep(resume_from=path)`` salvages the committed
  rows of a partial :class:`~repro.engine.sink.JsonlSink` artifact
  (:func:`salvage`) and stands each in for its task, so it folds
  through the sink pipeline in index order without re-executing and
  the finished artifact is byte-identical to an uninterrupted run (the
  crash-anywhere property the chaos tests pin).
* :class:`ChaosPlan` — a seeded, declarative fault harness for the
  sweep engine itself (kill a worker at a chosen task, fail a task N
  times, fail a sink write), in the same chainable-action style as
  :class:`~repro.sim.failures.FailurePlan`.  Injection state lives in
  marker files so a fault fires exactly the scheduled number of times
  across processes and across resumed runs.

Retry, quarantine, respawn and resume are opt-in (``on_error=`` /
``resume_from=``), compose with every sink, with ``reduce=`` and with
the warm pool, and leave a fault-free sweep's summaries and artifacts
byte-for-byte what they are without them.
"""

from __future__ import annotations

import functools
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.common.errors import StoreError
from repro.engine.spec import RunResult, RunTask, SweepSpec
from repro.engine.store import jsonable, read_document, write_document

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.sink import JsonlSink, ResultSink


class WorkerCrashError(RuntimeError):
    """A pool worker died and the sweep may not replace the pool: no
    policy, or one whose respawn budget is spent."""


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

    ``None``/``"raise"`` mean no policy — the first task exception
    aborts the sweep (returns ``None``); ``"retry"`` and
    ``"quarantine"`` are shorthands for the common policies; a
    :class:`RetryPolicy` passes through.
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
        """The manifest row (JSON-safe): every field under its own name."""
        return jsonable(self)


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
        return write_document(path, self.payload())

    @classmethod
    def load(cls, path: str | Path) -> "FailureManifest":
        """Read a manifest back.

        Raises:
            StoreError: unreadable/foreign/schema-mismatched document.
        """
        what = "sweep failure manifest"
        try:
            payload = read_document(path, what, MANIFEST_SCHEMA, "quarantined", MANIFEST_KIND)
        except FileNotFoundError as exc:
            raise StoreError(f"cannot read {what} {path}: {exc}") from None
        try:
            records = [
                TaskFailure(**{name: r[name] for name in TaskFailure.__dataclass_fields__})
                for r in payload["quarantined"]
            ]
        except (KeyError, TypeError) as exc:
            raise StoreError(
                f"failure manifest {path} has a malformed quarantined record: {exc!r}"
            ) from None
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

    Holds its one child the way a :class:`~repro.engine.sink.TeeSink`
    holds several (``sinks``) and hands everything but ``emit`` straight
    to it, so it can stand anywhere a sink can — including inside a tee.
    """

    def __init__(self, inner: "ResultSink", plan: ChaosPlan) -> None:
        self.sinks = (inner,)
        self.plan = plan

    def __getattr__(self, name: str) -> Any:
        return getattr(self.sinks[0], name)

    def emit(self, result: RunResult, row: Any = None) -> None:
        count = self.rows_emitted
        for action in self.plan.actions:
            if isinstance(action, FailSink) and action.row == count:
                if self.plan.claim(f"sink-{count}"):
                    raise InjectedSinkError(
                        f"injected sink I/O error before row {count}"
                    )
        self.sinks[0].emit(result, row)

    def chunk_plan(self) -> None:
        """Never opts in: ``fail_sink(row)`` counts live ``emit`` calls."""
        return None

    def absorb(self, chunk: Any) -> None:
        for result in chunk.results:
            self.emit(result)


def _portable_error(exc: BaseException) -> BaseException:
    """The exception itself when it pickles, else a faithful stand-in
    (an unpicklable exception must not poison the result pipe)."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# resume
# ----------------------------------------------------------------------


def _find_jsonl(sink: Any, path: Path) -> "JsonlSink | None":
    """The JsonlSink writing ``path`` inside a (possibly nested) sink tree."""
    from repro.engine.sink import JsonlSink

    if isinstance(sink, JsonlSink) and Path(sink.path) == path:
        return sink
    for child in getattr(sink, "sinks", ()):
        found = _find_jsonl(child, path)
        if found is not None:
            return found
    return None


def _stored(value: Any, /, **_cell: Any) -> Any:
    """The task of a salvaged row: its committed value, whatever the cell."""
    return value


def salvage(spec: SweepSpec, sink: "ResultSink", path: str | Path) -> dict[int, RunTask]:
    """The resume prelude: the committed rows of the partial artifact at
    ``path``, by task index, each as a task whose execution returns the
    stored value.

    Such a task folds through :func:`~repro.engine.sink.fold_chunk` like
    any other, in index order, without re-running its cell; its value is
    the row's JSON form (``jsonable`` is idempotent), so every sink sees
    the original canonical line — and hence the original digest and
    artifact bytes.

    Raises:
        ValueError: ``sink`` holds no ``JsonlSink`` at ``path``.
        StoreError: everything :func:`~repro.engine.sink.scan_partial_stream`
            raises, plus salvaged indices outside the spec's range.
    """
    from repro.engine.sink import scan_partial_stream

    path = Path(path)
    if _find_jsonl(sink, path) is None:
        raise ValueError(
            f"resume_from={str(path)!r} names no JsonlSink in the "
            "given sink tree; resume rewrites that artifact in place, so "
            "the sink must include a JsonlSink at the same path"
        )
    committed = scan_partial_stream(path, expect_spec=spec.summary())
    n = spec.n_tasks
    stray = [i for i in committed if not (0 <= i < n)]
    if stray:
        raise StoreError(
            f"partial artifact {path} holds task indices {stray[:5]} "
            f"outside this spec's 0..{n - 1} range; refusing to resume"
        )
    return {
        index: RunTask(
            index=index,
            sweep=spec.name,
            task=functools.partial(_stored, row["value"]),
            params=row["params"],
            run=row["run"],
            seed=row["seed"],
        )
        for index, row in committed.items()
    }
