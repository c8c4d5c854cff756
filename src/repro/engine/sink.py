"""Pluggable result sinks: where a sweep's rows go as they complete.

The default sweep path accumulates every :class:`~repro.engine.spec.RunResult`
in RAM and hands them back inside the outcome — fine at 10^3 cells,
fatal at 10^6.  A :class:`ResultSink` decouples *producing* rows from
*keeping* them: the sink decides whether to keep a row
(:class:`MemorySink`), stream it to disk (:class:`JsonlSink`), fold it
into aggregates (:class:`ReducerSink`, :class:`CellFoldSink`), fan it
out (:class:`TeeSink`) or drop it (:class:`NoopSink`).

Every sink tracks two backend-independent invariants as it goes:
``rows_emitted`` and an order-independent row ``digest`` (see
:mod:`repro.engine.aggregate`).  Because both the eager path and every
sink encode rows through :meth:`ResultStore.row_payload`, the digest of
a sweep is byte-identical across `MemorySink`/`JsonlSink`/reducers and
across every worker count — the property the streaming bench case and
the engine property tests pin.

Lifecycle: ``open(spec_summary)`` → rows, always in task-index order →
``close()``; the executor calls ``abort()`` instead of ``close()`` when
a task raises or a worker dies, so a partially-written
:class:`JsonlSink` file has no ``end`` record and its truncation
tripwire fires on load.

Rows arrive one *chunk* at a time (``absorb``).  What the chunk holds
is the sink's choice, stated once per sweep through
:meth:`ResultSink.chunk_plan`: a sink that opts in names the pieces it
can take already folded — artifact lines as bytes, a partial reducer, a
count and a digest — and :func:`fold_chunk` builds exactly those where
the tasks run, so in a pooled sweep no row crosses the process
boundary; a sink that does not opt in gets the chunk's live results,
one ``emit`` each.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.engine.aggregate import RowReducer, merge_digests, row_digest
from repro.engine.spec import RunResult, RunTask
from repro.engine.store import JsonlReader, ResultStore, canonical_line, gzip_writer, jsonable

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
    * ``results`` — the live results themselves.

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


#: the plan of a sink tree that does not opt in: every live result.
LIVE_RESULTS = ChunkPlan(results=True)


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


def fold_chunk(tasks: Iterable[RunTask], plan: ChunkPlan) -> FoldedChunk:
    """Execute ``tasks`` and fold their rows into the pieces ``plan`` names.

    ``tasks`` is usually a :class:`~repro.engine.spec.TaskChunk`, so the
    tasks and their seeds are built here as they are iterated.  The one
    place a sweep task is executed and the one producer of
    :class:`FoldedChunk`: pool workers and the serial path both run it,
    so a row's payload is built once, where its task ran.  A task that
    raises, or a row whose encoding raises, ends the chunk: it is
    returned with the rows before it and the exception.
    """
    chunk = FoldedChunk()
    chunk.partials = {key: reducer.fresh() for key, reducer in plan.reducers.items()}
    partials = list(chunk.partials.values())
    encode = plan.digest or plan.lines or bool(partials)
    lines: list[str] = []
    for task in tasks:
        try:
            result = task.execute()
            if encode:
                row = ResultStore.row_payload(result)
                digest = row_digest(row)
                if plan.lines:
                    line = canonical_line({"type": "row", **row})
                for partial in partials:
                    partial.fold(result, row=row, digest=digest)
                chunk.digest = merge_digests(chunk.digest, digest)
                if plan.lines:
                    lines.append(line)
        except Exception as exc:
            chunk.error = exc
            break
        # count, digest, lines and results always cover the same rows
        chunk.rows += 1
        if plan.results:
            chunk.results.append(result)
    if lines:
        chunk.lines = ("\n".join(lines) + "\n").encode("utf-8")
    return chunk


class ResultSink:
    """Base sink: bookkeeping only (row count + order-independent digest).

    Subclasses extend :meth:`emit` (always calling ``super().emit`` or
    maintaining the counters themselves) and may override the lifecycle
    hooks, which default to no-ops.  ``emit`` receives the live result
    plus, optionally, its precomputed canonical row — a
    :class:`TeeSink` encodes each row once and shares it with every
    branch instead of re-encoding per child.

    A subclass that overrides only ``emit`` sees every live result, in
    task order, in the parent process.  One that can take its rows
    already folded overrides :meth:`chunk_plan` and :meth:`absorb`
    together (a subclass of such a sink that needs live results again
    returns ``None`` from ``chunk_plan`` and restores this ``absorb``).
    """

    #: does this sink retain full rows for the outcome's ``results``?
    keeps_rows = False

    def __init__(self) -> None:
        self.rows_emitted = 0
        self.digest = 0
        self.spec: dict[str, Any] | None = None

    def open(self, spec_summary: dict[str, Any]) -> None:
        """Called once before the first row."""
        self.spec = spec_summary

    def emit(self, result: RunResult, row: Mapping[str, Any] | None = None) -> None:
        """Receive one result, in task-index order."""
        if row is None:
            row = ResultStore.row_payload(result)
        self.rows_emitted += 1
        self.digest = merge_digests(self.digest, row_digest(row))

    def chunk_plan(self) -> ChunkPlan | None:
        """The pieces this sink takes a chunk as, asked once per sweep.

        ``None`` (the default) does not opt in: :meth:`absorb` is handed
        the chunk's live results.
        """
        return None

    def absorb(self, chunk: FoldedChunk) -> None:
        """Receive one chunk of consecutive rows, in task-index order
        (the default: ``emit`` each of its live results)."""
        for result in chunk.results:
            self.emit(result)

    def _tally(self, chunk: FoldedChunk) -> None:
        """Fold a chunk's count and digest into this sink's own."""
        self.rows_emitted += chunk.rows
        self.digest = merge_digests(self.digest, chunk.digest)

    def close(self) -> None:
        """Called once after the last row (success path only)."""

    def abort(self) -> None:
        """Called instead of :meth:`close` when the sweep fails."""

    def summary(self) -> dict[str, Any]:
        """The sink's JSON-able aggregate, seated in the outcome."""
        return {"rows": self.rows_emitted, "digest": self.digest}


class NoopSink(ResultSink):
    """Count and digest rows, keep nothing — the pure-throughput sink."""

    def chunk_plan(self) -> ChunkPlan:
        return ChunkPlan(digest=True)

    def absorb(self, chunk: FoldedChunk) -> None:
        self._tally(chunk)


class MemorySink(ResultSink):
    """Keep every row in RAM — the classic (and default) behaviour."""

    keeps_rows = True

    def __init__(self) -> None:
        super().__init__()
        self.results: list[RunResult] = []

    def emit(self, result: RunResult, row: Mapping[str, Any] | None = None) -> None:
        super().emit(result, row)
        self.results.append(result)


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
        self._lines = 0

    def open(self, spec_summary: dict[str, Any]) -> None:
        super().open(spec_summary)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "wb")
        self._gz = gzip_writer(self._file, self.compresslevel)
        self._write_line(
            {
                "type": "header",
                "schema": STREAM_SCHEMA,
                "kind": STREAM_KIND,
                "sweep": spec_summary.get("name"),
                "spec": jsonable(spec_summary),
            }
        )

    def _write_line(self, record: dict[str, Any]) -> None:
        self._gz.write((canonical_line(record) + "\n").encode("utf-8"))
        self._lines += 1

    def emit(self, result: RunResult, row: Mapping[str, Any] | None = None) -> None:
        if row is None:
            row = ResultStore.row_payload(result)
        super().emit(result, row)
        self._write_line({"type": "row", **row})

    def chunk_plan(self) -> ChunkPlan:
        return ChunkPlan(digest=True, lines=True)

    def absorb(self, chunk: FoldedChunk) -> None:
        """One gzip write per chunk: the stream's bytes depend on what
        is written, never on how it was cut into writes."""
        self._tally(chunk)
        if chunk.rows:
            self._gz.write(chunk.lines)
            self._lines += chunk.rows

    def close(self) -> None:
        if self._gz is None:
            return
        self._write_line({"type": "end", "records": self._lines})
        self._gz.close()
        self._file.close()
        self._gz = self._file = None

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
    rows are never retained.
    """

    def __init__(self, reducer: RowReducer) -> None:
        super().__init__()
        self.reducer = reducer

    def emit(self, result: RunResult, row: Mapping[str, Any] | None = None) -> None:
        self.reducer.fold(result, row=row)
        self.rows_emitted = self.reducer.rows
        self.digest = self.reducer.digest

    def chunk_plan(self) -> ChunkPlan:
        return ChunkPlan(digest=True, reducers={id(self): self.reducer.fresh()})

    def absorb(self, chunk: FoldedChunk) -> None:
        """Merge the chunk's partial into the caller's own reducer."""
        self.reducer.merge(chunk.partials[id(self)])
        self.rows_emitted = self.reducer.rows
        self.digest = self.reducer.digest

    def summary(self) -> dict[str, Any]:
        return self.reducer.summary()


class CellFoldSink(ResultSink):
    """Streaming per-cell fold: results grouped per grid cell without
    holding rows.

    ``fold(state, result) -> state`` runs once per row against its
    cell's accumulated state (``None`` on the cell's first row); cells
    appear in first-emission order, which for an in-order executor is
    exactly the spec's expansion order.  Row digests are skipped:
    driver folds run on the hot default path too, where paying a
    canonical-JSON encode per row just for bookkeeping would tax every
    study.
    """

    def __init__(self, fold: Callable[[Any, RunResult], Any]) -> None:
        super().__init__()
        self._fold = fold
        self._groups: dict[tuple, tuple[dict[str, Any], Any]] = {}
        self._names: tuple[str, ...] | None = None

    def emit(self, result: RunResult, row: Mapping[str, Any] | None = None) -> None:
        self.rows_emitted += 1
        params = result.params
        if self._names is None or len(params) != len(self._names):
            self._names = tuple(sorted(params))
        try:
            key = tuple(params[name] for name in self._names)
            seat = self._groups.get(key)
        except (KeyError, TypeError):  # divergent name set / unhashable value
            key = tuple(sorted((k, repr(v)) for k, v in params.items()))
            seat = self._groups.get(key)
        if seat is None:
            self._groups[key] = (params, self._fold(None, result))
        else:
            self._groups[key] = (seat[0], self._fold(seat[1], result))

    def cells(self) -> list[tuple[dict[str, Any], Any]]:
        """``(cell_params, folded_state)`` pairs in first-seen order."""
        return list(self._groups.values())


class TeeSink(ResultSink):
    """Fan each row out to several child sinks.

    The canonical row is encoded once and shared with every child, so
    ``TeeSink(JsonlSink(...), ReducerSink(...))`` pays one encode per
    row, not one per branch.  The tee's own digest mirrors the first
    child's (all children agree by construction), and its summary is
    the first child's plus whatever keys the later children add.
    """

    def __init__(self, *sinks: ResultSink) -> None:
        super().__init__()
        if not sinks:
            raise ValueError("TeeSink needs at least one child sink")
        self.sinks = tuple(sinks)

    @property
    def keeps_rows(self) -> bool:  # type: ignore[override]
        return any(sink.keeps_rows for sink in self.sinks)

    @property
    def results(self) -> list[RunResult]:
        """The rows of the first row-keeping child."""
        for sink in self.sinks:
            if sink.keeps_rows:
                return sink.results
        return []

    def open(self, spec_summary: dict[str, Any]) -> None:
        super().open(spec_summary)
        for sink in self.sinks:
            sink.open(spec_summary)

    def emit(self, result: RunResult, row: Mapping[str, Any] | None = None) -> None:
        if row is None:
            row = ResultStore.row_payload(result)
        self.rows_emitted += 1
        for sink in self.sinks:
            sink.emit(result, row)
        self.digest = self.sinks[0].digest

    def chunk_plan(self) -> ChunkPlan:
        """The union of the children's plans; a child that does not opt
        in adds the live results."""
        plans = [sink.chunk_plan() or LIVE_RESULTS for sink in self.sinks]
        reducers: dict[int, RowReducer] = {}
        for plan in plans:
            reducers.update(plan.reducers)
        return ChunkPlan(
            digest=any(plan.digest for plan in plans),
            lines=any(plan.lines for plan in plans),
            reducers=reducers,
            results=any(plan.results for plan in plans),
        )

    def absorb(self, chunk: FoldedChunk) -> None:
        self.rows_emitted += chunk.rows
        for sink in self.sinks:
            sink.absorb(chunk)
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
