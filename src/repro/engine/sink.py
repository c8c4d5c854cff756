"""Pluggable result sinks: where a sweep's rows go as they complete.

The default sweep path accumulates every :class:`~repro.engine.spec.RunResult`
in RAM and hands them back inside the outcome — fine at 10^3 cells,
fatal at 10^6.  A :class:`ResultSink` decouples *producing* rows from
*keeping* them: the sink streams them to disk (:class:`JsonlSink`),
folds them into aggregates (:class:`ReducerSink`), fans them out
(:class:`TeeSink`) or only counts and digests them (the base
:class:`ResultSink`).

Every sink tracks two backend-independent invariants as it goes:
``rows_emitted`` and an order-independent row ``digest`` (see
:mod:`repro.engine.aggregate`).  Every row is encoded once, where its
task ran, by :func:`~repro.engine.aggregate.encode_fields`, which
splices the row's digest input and its artifact line from one
canonical encode of its ``value`` and one formatted header; both equal
what :meth:`ResultStore.row_payload` and :func:`canonical_line` give,
byte for byte.  So the digest of a sweep is byte-identical across
sinks and across every worker count — the property the engine property
tests pin.  Per-cell work stays out of the per-row loop: a cell's rows
share one ``params`` dict, and :func:`fold_chunk` encodes it once per
cell.

Lifecycle: ``open(spec_summary)`` → chunks, always in task-index order
→ ``close()``; the executor calls ``abort()`` instead of ``close()``
when a task raises or a worker dies, so a partially-written
:class:`JsonlSink` file has no ``end`` record and its truncation
tripwire fires on load.  A sink serves one sweep: a second ``open``
raises ``ValueError`` before any task runs.

A sink receives one thing, a :class:`FoldedChunk` of consecutive rows
(``emit``).  What the chunk holds is the sink's choice, stated once per
sweep through :meth:`ResultSink.chunk_plan`: artifact lines as bytes, a
partial reducer, a count and a digest.  :func:`fold_chunk` builds
exactly those where the tasks run — walking a chunk's plain ``(index,
params, run, seed)`` fields, never a :class:`~repro.engine.spec.RunTask`
— so in a pooled sweep no row crosses the process boundary.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.engine.aggregate import (
    DIGEST_MOD,
    RowReducer,
    encode_fields,
    encode_params,
    merge_digests,
)
from repro.engine.spec import RunResult, TaskChunk
from repro.engine.store import JsonlReader, canonical_line, gzip_writer, jsonable

#: streamed-artifact schema version; bump on any layout change.
STREAM_SCHEMA = 1

#: the header ``kind`` tag distinguishing row streams from traces.
STREAM_KIND = "repro-sweep-rows"


class ChunkPlan:
    """What a sink tree needs from each chunk of a sweep (picklable: it
    travels to the pool workers with every chunk of tasks).

    * ``digest`` — the modular sum of the rows' digests;
    * ``lines`` — the rows' canonical artifact lines, as bytes;
    * ``reducers`` — empty reducers to fold one partial each from, under
      the key the asking sink will look its partial up by;
    * ``results`` — the live results themselves (the default
      keep-every-row sweep).

    (Plain classes, here and below: two dataclasses cost every
    ``import repro`` 2 ms of generated code.)
    """

    def __init__(
        self,
        digest: bool = False,
        lines: bool = False,
        reducers: Mapping[int, RowReducer] | None = None,
        results: bool = False,
    ) -> None:
        self.digest = digest
        self.lines = lines
        self.reducers = dict(reducers or {})
        self.results = results


class FoldedChunk:
    """One chunk of consecutive rows, folded where its tasks ran.

    ``rows`` always counts; ``digest``, ``lines``, ``partials`` and
    ``results`` are filled only where the :class:`ChunkPlan` asked.
    ``error`` is the exception that ended the chunk early: the pieces
    then cover the rows before the failing one.
    """

    def __init__(self) -> None:
        self.rows = 0
        self.digest = 0
        self.lines = b""
        self.partials: dict[int, RowReducer] = {}
        self.results: list[RunResult] = []
        self.error: BaseException | None = None

    def __getstate__(self) -> dict[str, Any]:
        """Pickled only to leave a pool worker: the error then travels
        as itself where it pickles, as a faithful stand-in where it
        does not, the worker's traceback attached as its cause."""
        state = dict(self.__dict__)
        if self.error is not None:
            from multiprocessing.pool import ExceptionWithTraceback

            state["error"] = ExceptionWithTraceback(_portable_error(self.error), self.error.__traceback__)
        return state


def _portable_error(exc: BaseException) -> BaseException:
    """The exception itself when it pickles, else a faithful stand-in
    (an unpicklable exception must not poison the result pipe)."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def fold_chunk(chunk: TaskChunk, plan: ChunkPlan) -> FoldedChunk:
    """Run ``chunk``'s tasks and fold their rows into the pieces ``plan`` names.

    The one place a sweep task is run and the one producer of
    :class:`FoldedChunk`: pool workers and the serial path both call
    it, so a row is encoded once, where its task ran.  One loop walks
    the chunk's plain ``(index, params, run, seed)`` fields
    (:meth:`TaskChunk.fields`), calls the task function and encodes,
    digests and folds the row from those fields and its value
    (:func:`encode_fields`, :meth:`RowReducer.fold`).  No
    :class:`~repro.engine.spec.RunTask` is built, and a
    :class:`RunResult` only where the plan asks for live results.  A
    cell's ``params`` are encoded once per run of rows sharing them.

    A task that raises, or a row whose encoding or metric fold raises,
    ends the chunk: it is returned with the rows before it and the
    exception.
    """
    folded = FoldedChunk()
    folded.partials = {key: reducer.fresh() for key, reducer in plan.reducers.items()}
    partials = list(folded.partials.values())
    encode = plan.digest or plan.lines or bool(partials)
    keep_lines, keep_results = plan.lines, plan.results
    lines: list[str] = []
    results = folded.results
    task = chunk.task
    rows = digests = 0
    encoded: Any = None  # the params dict params_line encodes
    params_line = ""
    try:
        for index, params, run, seed in chunk.fields():
            value = task(seed=seed, **params)
            if encode:
                if params is not encoded:
                    params_line = encode_params(params)
                    encoded = params
                digest, line = encode_fields(index, params_line, run, seed, value)
                for partial in partials:
                    partial.fold(index, digest, value)
                digests += digest
                if keep_lines:
                    lines.append(line)
            # count, digest, lines and results always cover the same rows
            rows += 1
            if keep_results:
                results.append(RunResult(index, params, run, seed, value))
    except Exception as exc:
        folded.error = exc
    folded.rows = rows
    folded.digest = digests % DIGEST_MOD
    if lines:
        folded.lines = ("\n".join(lines) + "\n").encode("utf-8")
    return folded


def _refuse_reuse(sink: ResultSink) -> None:
    """Raise unless ``sink`` has never been opened: its counts, its
    reducer and its artifact describe one sweep."""
    if sink.spec is not None:
        raise ValueError(
            f"{type(sink).__name__} already served sweep {sink.spec.get('name')!r}; "
            "a sink serves one sweep, so make a new one"
        )


class ResultSink:
    """Base sink: bookkeeping only (row count + order-independent digest).

    Every sink takes its rows as folded chunks (:class:`FoldedChunk`),
    in task order, through :meth:`emit`, and states once per sweep what
    the chunks must hold (:meth:`chunk_plan`).  This one asks for the count and the
    digest and adds them up; a subclass asks for more and extends both
    methods.  The lifecycle hooks default to no-ops.
    """

    def __init__(self) -> None:
        self.rows_emitted = 0
        self.digest = 0
        self.spec: dict[str, Any] | None = None

    def open(self, spec_summary: dict[str, Any]) -> None:
        """Called once before the first chunk.

        Raises:
            ValueError: the sink already served a sweep.
        """
        _refuse_reuse(self)
        self.spec = spec_summary

    def chunk_plan(self) -> ChunkPlan:
        """The pieces this sink takes a chunk as, asked once per sweep."""
        return ChunkPlan(digest=True)

    def emit(self, chunk: FoldedChunk) -> None:
        """Receive one chunk of consecutive rows, in task-index order."""
        self.rows_emitted += chunk.rows
        self.digest = merge_digests(self.digest, chunk.digest)

    def close(self) -> None:
        """Called once after the last chunk (success path only)."""

    def abort(self) -> None:
        """Called instead of :meth:`close` when the sweep fails."""

    def summary(self) -> dict[str, Any]:
        """The sink's JSON-able aggregate, seated in the outcome."""
        return {"rows": self.rows_emitted, "digest": self.digest}


class JsonlSink(ResultSink):
    """Stream rows into a schema-versioned gzip'd JSONL artifact.

    The library's one gzip-JSONL framing (:mod:`repro.engine.store`)
    under the ``kind`` tag :data:`STREAM_KIND`: a ``header`` line
    carrying schema/kind/sweep/spec, one ``row`` line per result, and a
    final ``end`` record with the line count as a truncation tripwire.
    Two runs of the same sweep produce identical *bytes* regardless of
    worker count, wall clock, or output path — incremental writes and a
    single batch write are byte-identical too.

    ``compresslevel`` defaults to 6 (zlib default): at 10^5+ rows/sec
    the level-9 sliver of extra compression costs more wall time than
    the rows themselves.
    """

    def __init__(self, path: str | Path, compresslevel: int = 6) -> None:
        super().__init__()
        self.path = Path(path)
        self.compresslevel = compresslevel
        self._file: Any = None
        self._gz: Any = None

    def open(self, spec_summary: dict[str, Any]) -> None:
        super().open(spec_summary)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "wb")
        self._gz = gzip_writer(self._file, self.compresslevel)
        self._write_line(
            canonical_line(
                {
                    "type": "header",
                    "schema": STREAM_SCHEMA,
                    "kind": STREAM_KIND,
                    "sweep": spec_summary.get("name"),
                    "spec": jsonable(spec_summary),
                }
            )
        )

    def _write_line(self, line: str) -> None:
        self._gz.write((line + "\n").encode("utf-8"))

    def chunk_plan(self) -> ChunkPlan:
        return ChunkPlan(digest=True, lines=True)

    def emit(self, chunk: FoldedChunk) -> None:
        """One gzip write per chunk: the stream's bytes depend on what
        is written, never on how it was cut into writes."""
        super().emit(chunk)
        if chunk.rows:
            self._gz.write(chunk.lines)

    def close(self) -> None:
        """The ``end`` record (it counts the header and the rows), then
        the teardown :meth:`abort` does."""
        if self._gz is not None:
            self._write_line(canonical_line({"type": "end", "records": self.rows_emitted + 1}))
        self.abort()

    def abort(self) -> None:
        """Tear down WITHOUT the end record: the file stays detectably
        truncated, so a later load fails loudly instead of analysing a
        partial sweep."""
        if self._gz is None:
            return
        self._gz.close()
        self._file.close()
        self._gz = self._file = None


def _open_stream(path: str | Path) -> JsonlReader:
    """A reader over the row stream at ``path``, its header checked."""
    return JsonlReader(path, "row stream", STREAM_KIND, STREAM_SCHEMA)


def _rows(reader: JsonlReader) -> Iterator[dict[str, Any]]:
    for record in reader.records:
        kind = record.pop("type", None)
        if kind != "row":
            raise reader.fail(f"has unknown record type {kind!r}")
        yield record


def iter_stream_rows(path: str | Path) -> Iterator[dict[str, Any]]:
    """Stream the row records of a :class:`JsonlSink` artifact.

    Validates the header before the first yield and the ``end`` record
    after the last, holding only one line in memory at a time.

    Raises:
        StoreError: everything :class:`~repro.engine.store.JsonlReader`
            rejects (unreadable/corrupt file, foreign or
            schema-mismatched header, a line that is not an object,
            truncation), or a record that is not a ``row``.
    """
    with _open_stream(path) as reader:
        yield from _rows(reader)


def load_stream(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """A whole streamed artifact: ``(spec_summary, rows)``.

    Convenience for small streams and tests; big streams should use
    :func:`iter_stream_rows` and never materialize the list.

    Raises:
        StoreError: everything :func:`iter_stream_rows` raises — no raw
            ``OSError`` leaks out.
    """
    with _open_stream(path) as reader:
        return reader.header.get("spec") or {}, list(_rows(reader))


class ReducerSink(ResultSink):
    """Fold rows into a :class:`~repro.engine.aggregate.RowReducer`.

    The streaming twin of "run the sweep, then aggregate the rows": the
    outcome's ``aggregate`` carries the reducer summary and the raw
    rows are never retained.  Each chunk folds its rows into a fresh
    clone of the reducer where its tasks ran; :meth:`emit` merges that
    partial into the caller's own reducer.
    """

    def __init__(self, reducer: RowReducer) -> None:
        super().__init__()
        self.reducer = reducer

    def chunk_plan(self) -> ChunkPlan:
        return ChunkPlan(digest=True, reducers={id(self): self.reducer.fresh()})

    def emit(self, chunk: FoldedChunk) -> None:
        self.reducer.merge(chunk.partials[id(self)])
        self.rows_emitted = self.reducer.rows
        self.digest = self.reducer.digest

    def summary(self) -> dict[str, Any]:
        return self.reducer.summary()


class TeeSink(ResultSink):
    """Fan each chunk out to several child sinks.

    The chunk is folded once, to the union of the children's plans, and
    shared with every child, so ``TeeSink(JsonlSink(...),
    ReducerSink(...))`` pays one encode per row, not one per branch.
    The tee's own digest mirrors the first child's (all children agree
    by construction), and its summary is the first child's plus
    whatever keys the later children add.
    """

    def __init__(self, *sinks: ResultSink) -> None:
        super().__init__()
        if not sinks:
            raise ValueError("TeeSink needs at least one child sink")
        self.sinks = tuple(sinks)

    def open(self, spec_summary: dict[str, Any]) -> None:
        for sink in (self, *self.sinks):  # all checked before any is opened
            _refuse_reuse(sink)
        super().open(spec_summary)
        for sink in self.sinks:
            sink.open(spec_summary)

    def chunk_plan(self) -> ChunkPlan:
        """The union of the children's plans."""
        plans = [sink.chunk_plan() for sink in self.sinks]
        reducers: dict[int, RowReducer] = {}
        for plan in plans:
            reducers.update(plan.reducers)
        return ChunkPlan(
            digest=any(plan.digest for plan in plans),
            lines=any(plan.lines for plan in plans),
            reducers=reducers,
            results=any(plan.results for plan in plans),
        )

    def emit(self, chunk: FoldedChunk) -> None:
        self.rows_emitted += chunk.rows
        for sink in self.sinks:
            sink.emit(chunk)
        self.digest = self.sinks[0].digest

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def abort(self) -> None:
        for sink in self.sinks:
            sink.abort()

    def summary(self) -> dict[str, Any]:
        out = dict(self.sinks[0].summary())
        for sink in self.sinks[1:]:
            for key, value in sink.summary().items():
                out.setdefault(key, value)  # an earlier child wins a conflict
        return out
